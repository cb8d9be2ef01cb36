import csv
import math
import time

import numpy as np
import pytest

from resonlab import fields, studies
from resonlab.errors import ConfigError
from resonlab.fields import Observable, scalar_average_limit
from resonlab.integrators import NoiseModel
from resonlab.io import write_report
from resonlab.nonlinearity import NonlinearitySpec, cubic_damping_terms
from resonlab.resonance import build_resonance_table
from resonlab.studies import (StudyConfig, StudyReport, run_study,
                              study_deterministic_convergence,
                              study_disparity_decay,
                              study_operator_convergence,
                              study_stationary_measure,
                              study_stochastic_actions)


@pytest.fixture(scope="module")
def cubic5(frame_1d_5):
    spec = NonlinearitySpec("cubic_focusing", mu=0.5)
    table = build_resonance_table(frame_1d_5, patterns=((1, -1, 1),))
    return spec, table


@pytest.fixture(scope="module")
def mix5(frame_1d_5):
    spec = NonlinearitySpec("polynomial", mu=0.3,
                            terms=cubic_damping_terms(-0.3 - 2.5j))
    table = build_resonance_table(frame_1d_5, patterns=((1,), (1, -1, 1)))
    b = 0.14 * (1.0 + frame_1d_5.eigenvalues) ** -1.5
    return spec, table, NoiseModel(tuple(b))


def test_config_rejects_bad_ladder():
    with pytest.raises(ConfigError):
        StudyConfig("converge", epsilons=(0.1, 0.1))
    with pytest.raises(ConfigError):
        StudyConfig("converge", epsilons=())
    with pytest.raises(ConfigError):
        StudyConfig("converge", epsilons=(0.05, 0.1))


def test_config_rejects_unknown_study_and_bad_exponents():
    with pytest.raises(ConfigError):
        StudyConfig("wavelets")
    with pytest.raises(ConfigError):
        StudyConfig("converge", s1=2.0, s_star=2.0)


def test_config_rejects_infinite_and_nonpositive_windows():
    # an infinite window used to reach the quadrature and die in OverflowError
    for bad in (float("inf"), float("nan"), 0.0, -1.0):
        with pytest.raises(ConfigError, match="windows"):
            StudyConfig.from_document({"study": "operator", "windows": [10.0, bad]})
    assert StudyConfig("operator", windows=[10.0, 20.0]).windows == (10.0, 20.0)


@pytest.mark.parametrize("key", ["tau_end", "burn_in", "batch_length", "compare_taus"])
def test_config_refuses_non_finite_times(key):
    # a non-finite compare tau used to land on sample 0, where both ensembles
    # share their initial state; the stationary horizon is burn_in plus batches
    for bad in (math.inf, -math.inf, math.nan):
        value = [0.5, bad] if key == "compare_taus" else bad
        with pytest.raises(ConfigError, match=key):
            StudyConfig.from_document({"study": "stochastic", key: value})


def test_config_refuses_bad_seeds():
    # the studies key member streams from seed up to seed + max(members, rungs)
    for key, bad in (("seed", -1), ("seed", True), ("seed", 3.0), ("seed", None),
                     ("seed", 2 ** 128 - 200), ("initial_seed", -5),
                     ("initial_seed", 2.5), ("initial_seed", True)):
        with pytest.raises(ConfigError, match=f"^{key} "):
            StudyConfig.from_document({"study": "stochastic", key: bad})
    with pytest.raises(ConfigError, match=r"seed \+ 6 must be below 2\*\*128"):
        StudyConfig("stationary", members=2, epsilons=(0.4, 0.3, 0.2, 0.1, 0.05, 0.01),
                    seed=2 ** 128 - 6)
    top = StudyConfig("stochastic", seed=2 ** 128 - 201, initial_seed=2 ** 130)
    assert top.seed == 2 ** 128 - 201 and top.initial_seed == 2 ** 130
    numpy_ints = StudyConfig("stochastic", seed=np.int64(5), initial_seed=np.uint8(3))
    assert type(numpy_ints.seed) is int and type(numpy_ints.initial_seed) is int


@pytest.mark.parametrize("key", ["samples", "initials", "members", "tracked_modes", "batches"])
def test_config_refuses_counts_that_are_not_integers(key):
    # samples=30.5 used to be echoed while 30 ran, and batches=4.5 split the
    # series into 5 groups but divided by sqrt(4.5)
    for bad in (2.5, 30.5, True, "30"):
        with pytest.raises(ConfigError, match=f"^{key} must be an integer"):
            StudyConfig.from_document({"study": "stationary", key: bad})
    assert type(getattr(StudyConfig("stationary", **{key: np.int64(30)}), key)) is int


def test_config_document_round_trip():
    cfg = StudyConfig("stochastic", epsilons=(0.2, 0.05), members=64, seed=5,
                      initial_seed=17, compare_taus=(0.5, 1.0))
    again = StudyConfig.from_document(cfg.to_document())
    assert again == cfg


def test_config_from_document_rejects_unknown_keys():
    doc = StudyConfig("converge").to_document()
    doc["wibble"] = 3
    with pytest.raises(ConfigError, match="wibble"):
        StudyConfig.from_document(doc)


def test_report_passed_ignores_string_labels():
    rep = StudyReport("stationary", {}, {}, {"a": True, "label": "conditional"}, {})
    assert rep.passed()
    rep.verdicts["b"] = False
    assert not rep.passed()


def test_report_document_round_trip():
    rep = StudyReport("converge", {"study": "converge"},
                      {"t": {"columns": ["x"], "rows": [[1.0]]}},
                      {"ok": True}, {"frame_sha256": "f" * 64})
    doc = rep.to_document()
    again = StudyReport.from_document(doc)
    assert again.passed() and again.tables == rep.tables
    with pytest.raises(ConfigError):
        StudyReport.from_document({"schema": "something-else"})


def test_converge_study_cubic_ladder(frame_1d_5, cubic5):
    spec, table = cubic5
    cfg = StudyConfig("converge", epsilons=(0.2, 0.05), dt=2e-3, samples=11,
                      initials=2, radius=1.0, seed=3)
    rep = study_deterministic_convergence(frame_1d_5, spec, table, cfg)
    assert rep.passed(), rep.verdicts
    deltas = {(r[0], r[1]): r[2] for r in rep.tables["deviation"]["rows"]}
    assert deltas[(0.05, 0)] < 0.5 * deltas[(0.2, 0)]
    # provenance lets every number be traced to a run: the initials are the
    # members of one effective run and of one full run per epsilon
    assert len(rep.provenance["runs"]) == 2 + 1 + 1
    assert all(len(h) == 64 for h in rep.provenance["runs"].values())
    # and records what each run did: 5 segments of 0.1 in steps of at most
    # theta_osc * eps / lambda_max = 2.5e-3 for the full runs at eps = 0.05
    meta = rep.provenance["run_meta"]
    assert list(meta) == list(rep.provenance["runs"])
    assert meta["effective"] == {"steps": 500, "h_target": 2e-3, "excluded": 0}
    assert meta["full_eps0.05"] == {"steps": 500, "h_target": 2e-3, "excluded": 0}
    assert meta["full_eps0.2"]["steps"] == 500


def test_report_csv_cells_are_numbers(tmp_path, frame_1d_5, cubic5):
    spec, table = cubic5
    cfg = StudyConfig("converge", epsilons=(0.2, 0.05), dt=2e-3, samples=11,
                      initials=2, radius=1.0, seed=3)
    rep = study_deterministic_convergence(frame_1d_5, spec, table, cfg)
    files = write_report(tmp_path, rep)
    assert "deviation.csv" in files

    def parses(cell):
        if cell in ("True", "False"):
            return True
        try:
            float(cell)  # also every int
        except ValueError:
            return False
        return True

    for name in files:
        if name.endswith(".csv"):
            with open(tmp_path / name, newline="") as fh:
                body = list(csv.reader(fh))[1:]
            assert body and all(parses(cell) for row in body for cell in row), name


def test_converge_study_diagonal_is_exact(frame_1d_5):
    # per-mode multiplier field: averaging changes nothing, so the deviation
    # is pure scheme error
    gammas = tuple(-0.3 - 0.2j * k for k in range(frame_1d_5.modes))
    spec = NonlinearitySpec("diagonal", mu=0.5, gammas=gammas)
    table = build_resonance_table(frame_1d_5, patterns=((1,),))
    cfg = StudyConfig("converge", epsilons=(0.2, 0.05), dt=2e-3, samples=11,
                      initials=1, seed=3)
    rep = study_deterministic_convergence(frame_1d_5, spec, table, cfg)
    deltas = [r[2] for r in rep.tables["deviation"]["rows"]]
    assert max(deltas) < 1e-8


def test_operator_study_bounds_and_decay(frame_1d_9):
    cfg = StudyConfig("operator", initials=3, radius=1.0, seed=11)
    rep = study_operator_convergence(frame_1d_9, cfg)
    assert rep.passed(), rep.verdicts
    rows = rep.tables["operator_error"]["rows"]
    # resonant observables are flat at quadrature accuracy for every window
    flat = [r for r in rows if r[0] in ("linear_self", "cubic_resonant")]
    assert flat and all(r[2] <= cfg.quadrature_margin for r in flat)
    # every error obeys the closed-form oscillatory bound
    assert all(r[2] <= r[3] + cfg.quadrature_margin for r in rows)


@pytest.mark.parametrize("name", ["frame_1d_9", "frame_1d_9_cos"])
def test_limit_and_bound_share_one_resonance_rule(name, request):
    # a term survives the infinite window exactly when the closed-form bound
    # of the finite window skips it
    frame = request.getfixturevalue(name)
    v = np.ones(frame.modes, dtype=complex)
    seen = set()
    for _, obs, target in studies._operator_battery(frame, frame.modes):
        kept = scalar_average_limit(obs, frame, target=target).terms
        for term in obs.terms:
            bound = studies._oscillatory_bound(Observable((term,)), frame, v, 10.0, target)
            assert (term in kept) == (bound == 0.0)
            seen.add(term in kept)
    assert seen == {True, False}


def test_converge_study_refuses_runaway_quadrature(frame_1d_9_cos, monkeypatch):
    # V != 0: gamma_min is 5.5e-6, so the route swap's five slow beats would
    # take 1.2e8 quadrature nodes; refused before any full-system run
    full_runs = []
    monkeypatch.setattr(studies, "integrate_full", lambda *args, **kw: full_runs.append(args))
    spec = NonlinearitySpec("cubic_focusing", mu=0.5)
    table = build_resonance_table(frame_1d_9_cos, patterns=((1, -1, 1),))
    start = time.perf_counter()
    with pytest.raises(ConfigError, match=r"115336226 quadrature nodes.*gamma_min=5\.5"):
        run_study(StudyConfig("converge"), frame_1d_9_cos, spec, table)
    assert time.perf_counter() - start < 1.0
    assert not full_runs


def test_stochastic_study_single_rung_bands(frame_1d_5, mix5):
    spec, table, noise = mix5
    cfg = StudyConfig("stochastic", epsilons=(0.05,), members=100, seed=21,
                      initial_seed=99, radius=1.0, dt=2e-3, samples=5,
                      compare_taus=(0.5, 1.0), tracked_modes=3)
    rep = study_stochastic_actions(frame_1d_5, spec, table, noise, cfg)
    assert rep.verdicts["bands"], rep.tables["mean_actions"]["rows"]
    assert rep.provenance["noise_convention"].startswith("E|beta")
    # 4 segments of 0.25; the full run's step is min(dt, 0.2 * 0.05 / 4)
    assert rep.provenance["run_meta"] == {
        "effective": {"steps": 500, "h_target": 2e-3, "excluded": 0},
        "full_eps0.05": {"steps": 500, "h_target": 2e-3, "excluded": 0}}
    taus = {r[1] for r in rep.tables["mean_actions"]["rows"]}
    assert taus == {0.5, 1.0}
    assert len(rep.tables["var_actions"]["rows"]) == 2 * 3


def test_stochastic_study_rejects_off_grid_compare_tau(frame_1d_5, mix5):
    spec, table, noise = mix5
    # refused by the config, before any study runs
    with pytest.raises(ConfigError):
        cfg = StudyConfig("stochastic", epsilons=(0.05,), members=10, samples=5,
                          compare_taus=(0.3,))
        study_stochastic_actions(frame_1d_5, spec, table, noise, cfg)


def test_stationary_study_diagonal_ou_matches_closed_form(frame_1d_5):
    # zero drift beyond the linear damping: the effective flow is an exact
    # per-mode OU process with stationary actions b_k^2 / (2 mu lambda_k)
    spec = NonlinearitySpec("diagonal", mu=0.5, gammas=(0.0,) * frame_1d_5.modes)
    table = build_resonance_table(frame_1d_5, patterns=((1,),))
    lam = frame_1d_5.eigenvalues
    b = np.where(lam > 0, 0.2 * (1.0 + lam) ** -1.0, 0.0)
    noise = NoiseModel(tuple(b))
    cfg = StudyConfig("stationary", epsilons=(0.1,), seed=33, radius=0.5,
                      burn_in=4.0, batches=10, batch_length=2.0,
                      tracked_modes=3)
    rep = study_stationary_measure(frame_1d_5, spec, table, noise, cfg)
    assert rep.verdicts["label"] == "conditional"
    assert rep.verdicts["stationary_batches"], "batch drift test tripped"
    rows = {r[1]: r for r in rep.tables["stationary_estimates"]["rows"]}
    for k in (1, 2):
        exact = b[k] ** 2 / (2.0 * spec.mu * lam[k])
        mean_eff, se_eff = rows[f"I_{k}"][4], rows[f"I_{k}"][5]
        assert abs(mean_eff - exact) <= 5.0 * se_eff
    # zero drift, zero noise on the lambda=0 mode: its action never moves
    assert rows["I_0"][5] == 0.0 and rows["I_0"][7] == 0.0


def test_stationary_study_mixing_family(frame_1d_5, mix5):
    spec, table, noise = mix5
    cfg = StudyConfig("stationary", epsilons=(0.1, 0.05), seed=90210,
                      radius=1.0, burn_in=4.0, batches=12, batch_length=1.5,
                      tracked_modes=3)
    rep = study_stationary_measure(frame_1d_5, spec, table, noise, cfg)
    assert rep.passed(), rep.verdicts
    agree = rep.tables["agreement"]["rows"]
    assert [row[0] for row in agree] == [0.1, 0.05]
    assert "conditional_on" in rep.provenance


def test_disparity_study_cubic(frame_1d_5, cubic5):
    spec, table = cubic5
    cfg = StudyConfig("disparity", epsilons=(0.2, 0.1, 0.05), dt=2e-3,
                      samples=11, seed=7, tracked_modes=3)
    rep = study_disparity_decay(frame_1d_5, spec, table, cfg)
    assert rep.passed(), rep.verdicts
    assert "ensemble_monotone" not in rep.verdicts
    assert rep.tables["step_check"]["rows"][0][2] <= 0.05


def test_disparity_study_with_ensemble(frame_1d_5, cubic5):
    spec, table = cubic5
    b = 0.05 * (1.0 + frame_1d_5.eigenvalues) ** -1.5
    cfg = StudyConfig("disparity", epsilons=(0.2, 0.05), dt=2e-3, samples=11,
                      seed=7, members=40, tracked_modes=3)
    rep = study_disparity_decay(frame_1d_5, spec, table, cfg,
                                noise=NoiseModel(tuple(b)))
    assert rep.verdicts["ensemble_monotone"]
    cols = rep.tables["disparity"]["columns"]
    assert cols[-1] == "ensemble_mean"
    meta = rep.provenance["run_meta"]
    assert sorted(meta) == ["det_eps0.05", "det_eps0.05_halfstep", "det_eps0.2",
                            "ens_eps0.05", "ens_eps0.2"]
    assert meta["ens_eps0.2"] == {"steps": 500, "h_target": 2e-3, "excluded": 0}
    assert meta["det_eps0.05_halfstep"] == {"steps": 1000, "h_target": 1e-3, "excluded": 0}


def test_each_study_builds_one_drift(frame_1d_5, cubic5, mix5, monkeypatch):
    built = []
    for cls in (fields.ResonantDrift, fields.QuadratureDrift):
        def counted(self, *args, init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    short = dict(tau_end=0.2, dt=2e-3, samples=3, members=4, seed=5)
    mix_noise = mix5[2]
    cases = {
        "converge": (StudyConfig("converge", initials=3, **short), cubic5, None),
        "disparity": (StudyConfig("disparity", **short), cubic5, mix_noise),
        "stochastic": (StudyConfig("stochastic", **short), mix5[:2], mix_noise),
        "stationary": (StudyConfig("stationary", epsilons=(0.2,), burn_in=0.0, batches=4,
                                   batch_length=0.05, **short), mix5[:2], mix_noise),
        "operator": (StudyConfig("operator", initials=1, seed=2), (None, None), None),
    }
    counts = {}
    for name, (cfg, (spec, table), noise) in cases.items():
        del built[:]
        run_study(cfg, frame_1d_5, spec=spec, table=table, noise=noise)
        counts[name] = (built.count("ResonantDrift"), built.count("QuadratureDrift"))
    assert counts == {"converge": (1, 1), "disparity": (1, 0), "stochastic": (1, 0),
                      "stationary": (1, 0), "operator": (0, 0)}


def test_run_study_dispatch_and_missing_pieces(frame_1d_5, cubic5):
    spec, table = cubic5
    with pytest.raises(ConfigError, match="noise"):
        run_study(StudyConfig("stochastic"), frame_1d_5, spec=spec, table=table)
    with pytest.raises(ConfigError, match="table"):
        run_study(StudyConfig("converge"), frame_1d_5, spec=spec)
    rep = run_study(StudyConfig("operator", initials=1, seed=2), frame_1d_5)
    assert rep.study == "operator"
