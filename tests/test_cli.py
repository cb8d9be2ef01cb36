import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from resonlab import integrators, io, resonance
from resonlab.cli import main
from resonlab.fields import ResonantDrift
from resonlab.io import load_trajectory, read_json
from resonlab.nonlinearity import NonlinearitySpec
from resonlab.resonance import ResonanceTable, build_resonance_table
from resonlab.spectral import SpectralFrame

TAU = 2 * np.pi


def write_config(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Config directory with frame and table artifacts built through the CLI."""
    ws = tmp_path_factory.mktemp("cli")
    basis_cfg = write_config(ws / "basis.json", {
        "geometry": {"lengths": [TAU], "grid_points": 32},
        "modes": 5,
    })
    assert main(["basis", "--config", basis_cfg, "--out", str(ws / "basis")]) == 0
    frame = SpectralFrame.from_document(read_json(ws / "basis" / "frame.json"))

    res_cfg = write_config(ws / "res.json", {
        "frame": {"file": "basis/frame.json", "sha256": frame.content_hash()},
        "resonance": {"patterns": [[1, -1, 1]]},
    })
    assert main(["resonances", "--config", res_cfg, "--out", str(ws / "res")]) == 0
    table = ResonanceTable.from_document(read_json(ws / "res" / "table.json"))

    return {"dir": ws, "frame": frame, "table": table,
            "frame_ref": {"file": "basis/frame.json", "sha256": frame.content_hash()},
            "table_ref": {"file": "res/table.json", "sha256": table.content_hash()}}


def test_basis_outputs_and_manifest(workspace):
    out = workspace["dir"] / "basis"
    manifest = read_json(out / "manifest.json")
    assert set(manifest["outputs"]) == {"frame.json", "spectrum.txt"}
    assert manifest["command"] == "basis" and manifest["version"]
    text = (out / "spectrum.txt").read_text()
    assert "multiplicity" in text
    mults = [line.split()[-1] for line in text.splitlines()[3:]]
    assert mults == ["1", "2", "2"]


def test_manifest_document(workspace, tmp_path):
    cfg = str(workspace["dir"] / "basis.json")
    assert main(["basis", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "7"]) == 0
    doc = read_json(tmp_path / "b" / "manifest.json")
    assert list(doc) == ["schema", "command", "config_path", "config", "version",
                         "timestamp", "seed", "outputs", "resources"]
    assert doc["schema"] == "resonlab-manifest-v2"
    assert list(doc["outputs"]) == sorted(doc["outputs"])  # sorted for stability
    assert doc["seed"] == 7 and doc["command"] == "basis"


def test_table_file_is_canonical_and_reads_back_exactly(workspace):
    raw = (workspace["dir"] / "res" / "table.json").read_bytes()
    assert raw.endswith(b"\n") and b"\n" not in raw[:-1]
    assert json.loads(raw)["schema"] == "resonlab-resonance-v1"
    table = workspace["table"]
    assert hashlib.sha256(raw[:-1]).hexdigest() == table.content_hash()
    in_memory = build_resonance_table(workspace["frame"], patterns=((1, -1, 1),))
    assert in_memory.content_hash() == table.content_hash()
    spec = NonlinearitySpec("cubic_focusing", mu=0.5)
    read_back = ResonantDrift(workspace["frame"], spec, table).groups
    built = ResonantDrift(workspace["frame"], spec, in_memory).groups
    assert len(read_back) == len(built) > 0
    for got, want in zip(read_back, built):
        for attr in ("conjugate", "slots", "targets", "coeffs", "seg_starts", "seg_targets",
                     "prefixes", "prefix_ids"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr


def test_basis_rerun_is_identical(workspace, tmp_path):
    cfg = str(workspace["dir"] / "basis.json")
    assert main(["basis", "--config", cfg, "--out", str(tmp_path / "b2")]) == 0
    first = (workspace["dir"] / "basis" / "frame.json").read_bytes()
    assert (tmp_path / "b2" / "frame.json").read_bytes() == first


def test_rerun_into_same_dir_reproduces_everything(workspace, tmp_path):
    # data artifacts must be bitwise stable; the manifest may differ only in
    # its timestamp and resources, also when the workspace is copied to another path
    home = tmp_path / "ws"
    home.mkdir()
    shutil.copy(workspace["dir"] / "basis.json", home / "basis.json")
    snapshots = []
    for _ in range(2):
        assert main(["basis", "--config", str(home / "basis.json"),
                     "--out", str(home / "twice")]) == 0
        snapshots.append({p.name: p.read_bytes() for p in (home / "twice").iterdir()})
    moved = shutil.copytree(home, tmp_path / "a" / "longer" / "path" / "ws")
    assert main(["basis", "--config", str(moved / "basis.json"),
                 "--out", str(moved / "twice")]) == 0
    snapshots.append({p.name: p.read_bytes() for p in (moved / "twice").iterdir()})
    strip = lambda raw: {k: v for k, v in json.loads(raw).items()
                         if k not in ("timestamp", "resources")}
    before = snapshots[0]
    for after in snapshots[1:]:
        assert set(before) == set(after)
        for name in before:
            if name == "manifest.json":
                continue
            assert before[name] == after[name], name
        assert strip(before["manifest.json"]) == strip(after["manifest.json"])


def test_unknown_config_key_is_an_error(workspace, tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.json", {
        "geometry": {"lengths": [TAU], "grid_points": 32},
        "modes": 5, "wibble": 1,
    })
    assert main(["basis", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "wibble" in capsys.readouterr().err
    # a key of another noise form is unknown in this one
    for noise in ({"eigenvalue_power": 2, "decay": 1.5},
                  {"amplitudes": [0.1] * 5, "decay": 3}):
        cfg = write_config(workspace["dir"] / "noise.json", _simulate_config(
            workspace, noise=noise, seed=9,
            solver={"epsilon": 0.2, "tau_end": 0.5, "dt": 2e-3, "samples": 6,
                    "scheme": "expeuler"}))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "n")]) == 1
        assert "decay" in capsys.readouterr().err
    # a nonlinearity key its kind does not write: spec, term, factor, gamma entry
    one = {"re": 1.0, "im": 0.0, "factors": [{"conjugate": False}]}
    for key, nonlinearity in (
            ("derivatve", {"kind": "polynomial", "mu": 0.5,
                           "terms": [{**one, "factors": [{"derivatve": 0}]}]}),
            ("power", {"kind": "polynomial", "mu": 0.5, "terms": [{**one, "power": 2}]}),
            ("gr", {"kind": "cubic_focusing", "mu": 0.5, "gr": 1.0}),
            ("imag", {"kind": "diagonal", "mu": 0.5,
                      "gammas": [{"re": -1.0, "im": 0.0, "imag": 1.0}] * 5})):
        cfg = write_config(workspace["dir"] / "nonlinearity.json", _simulate_config(
            workspace, nonlinearity=nonlinearity))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "p")]) == 1
        assert key in capsys.readouterr().err


_INLINE_FRAME = {"geometry": {"lengths": [TAU], "grid_points": 16}, "modes": 5}


@pytest.mark.parametrize("command, name, doc", [
    ("basis", "grid_points", {**_INLINE_FRAME,
                              "geometry": {"lengths": [TAU], "grid_points": 16.9}}),
    ("basis", "modes", {**_INLINE_FRAME, "modes": 5.7}),
    ("basis", "potential index", {**_INLINE_FRAME, "potential": {
        "cosines": [{"m": [1.5], "amplitude": 0.1}]}}),
    ("resonances", "pattern sign", {"frame": _INLINE_FRAME,
                                    "resonance": {"patterns": [[1, -1, 1.5]]}}),
])
def test_fractional_integers_exit_one(tmp_path, capsys, command, name, doc):
    # each used to be truncated: a 16-point grid, 5 modes, the pattern
    # (1, -1, 1), the cosine index 1
    cfg = write_config(tmp_path / "frac.json", doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert f"error: {name} must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name, factor", [("conjugate", {"conjugate": "false"}),
                                          ("derivative", {"derivative": 0.7}),
                                          ("derivative", {"derivative": True})])
def test_nonlinearity_factor_values_exit_one(workspace, tmp_path, capsys, name, factor):
    # "false" used to build a conjugated factor, 0.7 axis 0 and true axis 1
    nonlinearity = {"kind": "polynomial", "mu": 0.5,
                    "terms": [{"re": 1.0, "im": 0.0, "factors": [factor]}]}
    cfg = write_config(workspace["dir"] / "factor.json", _simulate_config(
        workspace, nonlinearity=nonlinearity))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert f"error: {name} must be" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


_TERM = {"re": 1.0, "im": 0.0, "factors": [{"conjugate": False}]}


@pytest.mark.parametrize("place, nonlinearity", [
    ("'nonlinearity'", [1]),
    ("nonlinearity.terms must be a list", {"kind": "polynomial", "mu": 0.5, "terms": 1}),
    ("'nonlinearity.terms[1]'", {"kind": "polynomial", "mu": 0.5, "terms": [_TERM, 1]}),
    ("'nonlinearity.terms[0].factors[0]'", {"kind": "polynomial", "mu": 0.5,
                                            "terms": [{**_TERM, "factors": [1]}]}),
    ("'nonlinearity.gammas[2]'", {"kind": "diagonal", "mu": 0.5,
                                  "gammas": [{"re": -1.0, "im": 0.0}] * 2 + [1] * 3}),
    ("nonlinearity.terms[0] is missing required key(s): re", {
        "kind": "polynomial", "mu": 0.5, "terms": [{"im": 1.0, "factors": [{}]}]}),
])
def test_malformed_nonlinearity_parts_exit_one(workspace, tmp_path, capsys, place,
                                               nonlinearity):
    # "factors": [1] and "nonlinearity": [1] used to escape as AttributeError
    # tracebacks, "terms": [1], "gammas": [1, ...] and a term with no "re" as
    # "malformed config" that named no place
    cfg = write_config(workspace["dir"] / "part.json", _simulate_config(
        workspace, nonlinearity=nonlinearity))
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert place in err, err
    assert "malformed" not in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "effective"])
def test_derivative_axis_beyond_the_frame_exits_one(workspace, tmp_path, capsys, command):
    # "derivative": 1 on the 1-D workspace frame used to die with IndexError
    nonlinearity = {"kind": "polynomial", "mu": 0.5, "terms": [{
        "re": 0.0, "im": 1.0,
        "factors": [{}, {"conjugate": True}, {"derivative": 1}]}]}
    tables = {"table": workspace["table_ref"]} if command == "effective" else {}
    cfg = write_config(workspace["dir"] / "axis.json", _simulate_config(
        workspace, nonlinearity=nonlinearity, **tables))
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: derivative axis 1 does not exist on a frame of dimension 1" in err, err
    assert not out.exists()


def test_missing_frame_file_is_actionable(workspace, tmp_path, capsys):
    cfg = write_config(tmp_path / "r.json", {
        "frame": {"file": "nowhere/frame.json", "sha256": "0" * 64},
        "resonance": {"patterns": [[1, -1, 1]]},
    })
    assert main(["resonances", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "resonlab basis" in capsys.readouterr().err


def test_stale_frame_hash_is_refused(workspace, tmp_path, capsys):
    ref = dict(workspace["frame_ref"])
    ref["sha256"] = "f" * 64
    cfg = write_config(workspace["dir"] / "stale.json", {
        "frame": ref, "resonance": {"patterns": [[1, -1, 1]]},
    })
    assert main(["resonances", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "rebuild" in capsys.readouterr().err


def _simulate_config(workspace, **over):
    doc = {
        "frame": workspace["frame_ref"],
        "nonlinearity": {"kind": "cubic_focusing", "mu": 0.5},
        "solver": {"epsilon": 0.2, "tau_end": 0.5, "dt": 2e-3, "samples": 6},
        "initial": {"radius": 1.0, "s": 2.0, "seed": 3},
    }
    doc.update(over)
    return doc


def test_simulate_writes_trajectory(workspace, tmp_path):
    cfg = write_config(workspace["dir"] / "sim.json", _simulate_config(workspace))
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    traj = load_trajectory(out / "trajectory.jsonl")
    assert traj.states.shape == (6, 5) and traj.epsilon == 0.2
    manifest = read_json(out / "manifest.json")
    assert set(manifest["outputs"]) == {"trajectory.jsonl"}


def test_simulate_rerun_bitwise_identical(workspace, tmp_path):
    cfg = write_config(workspace["dir"] / "sim2.json", _simulate_config(workspace))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        outs.append((out / "trajectory.jsonl").read_bytes())
    assert outs[0] == outs[1]


def test_zero_noise_simulate_matches_deterministic(workspace, tmp_path):
    solver = {"epsilon": 0.2, "tau_end": 0.5, "dt": 2e-3, "samples": 6,
              "scheme": "expeuler"}
    cfg_det = write_config(workspace["dir"] / "det.json",
                           _simulate_config(workspace, solver=solver))
    cfg_sto = write_config(workspace["dir"] / "sto.json",
                           _simulate_config(workspace, solver=solver,
                                            noise={"scale": 0.0}, seed=9))
    assert main(["simulate", "--config", cfg_det, "--out", str(tmp_path / "d")]) == 0
    assert main(["simulate", "--config", cfg_sto, "--out", str(tmp_path / "s")]) == 0
    det = load_trajectory(tmp_path / "d" / "trajectory.jsonl")
    sto = load_trajectory(tmp_path / "s" / "trajectory.jsonl")
    assert np.array_equal(det.states, sto.states)


def test_stochastic_simulate_needs_seed(workspace, tmp_path, capsys):
    cfg = write_config(workspace["dir"] / "ns.json", _simulate_config(
        workspace,
        solver={"epsilon": 0.2, "tau_end": 0.5, "dt": 2e-3, "samples": 6,
                "scheme": "expeuler"},
        noise={"scale": 0.05, "decay": 1.5}))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "effective"])
def test_fractional_sample_count_exits_one_before_any_drift(workspace, tmp_path, capsys,
                                                            monkeypatch, command):
    # "samples": 3.9 used to run 3 samples and write 3 into the trajectory header
    built = _count_drift_builds(monkeypatch)
    table = {"table": workspace["table_ref"]} if command == "effective" else {}
    cfg = write_config(workspace["dir"] / "frac.json", _simulate_config(
        workspace, solver={"epsilon": 0.2, "tau_end": 0.5, "dt": 2e-3, "samples": 3.9},
        **table))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "samples must be an integer >= 2, got 3.9" in capsys.readouterr().err
    assert built == [] and not (tmp_path / "o").exists()


_NOISY_SOLVER = {"epsilon": 0.2, "tau_end": 0.5, "dt": 2e-3, "samples": 6,
                 "scheme": "expeuler"}


def test_seedless_noisy_effective_builds_no_drift(workspace, tmp_path, capsys, monkeypatch):
    built = _count_drift_builds(monkeypatch)
    cfg = write_config(workspace["dir"] / "ens.json", _simulate_config(
        workspace, table=workspace["table_ref"], solver=_NOISY_SOLVER,
        noise={"scale": 0.05, "decay": 1.5}))
    assert main(["effective", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "seed" in capsys.readouterr().err
    assert built == []


def test_wrong_noise_count_exits_one_before_any_drift(workspace, tmp_path, capsys,
                                                     monkeypatch):
    built = _count_drift_builds(monkeypatch)
    cfg = write_config(workspace["dir"] / "count.json", _simulate_config(
        workspace, table=workspace["table_ref"], solver=_NOISY_SOLVER, seed=9,
        noise={"amplitudes": [0.1] * 3}))
    assert main(["effective", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "noise has 3 amplitudes, the frame has 5 modes" in capsys.readouterr().err
    assert built == [] and not (tmp_path / "o").exists()


def _count_drift_builds(monkeypatch):
    built = []
    init = ResonantDrift.__init__
    monkeypatch.setattr(ResonantDrift, "__init__",
                        lambda self, *args: built.append(self) or init(self, *args))
    return built


@pytest.mark.parametrize("kind", ["stochastic", "disparity"])
def test_bad_seeds_exit_one_before_any_drift(workspace, tmp_path, capsys, monkeypatch, kind):
    # a negative seed used to reach the Philox constructor after the drift
    # build (after the whole deterministic ladder for a disparity study) and
    # exit as "malformed config: ValueError(...)"
    built = _count_drift_builds(monkeypatch)
    study = {"study": kind, "epsilons": [0.2, 0.1], "dt": 2e-3, "samples": 3,
             "tau_end": 0.2, "members": 4}
    doc = {"frame": workspace["frame_ref"], "table": workspace["table_ref"],
           "nonlinearity": {"kind": "cubic_focusing", "mu": 0.5},
           "noise": {"scale": 0.05, "decay": 1.5}, "study": study}
    cfg = write_config(workspace["dir"] / f"seed-{kind}.json", doc)
    out = str(tmp_path / "o")
    assert main(["study", kind, "--config", cfg, "--out", out, "--seed", "-3"]) == 1
    assert "--seed must be a non-negative integer, got -3" in capsys.readouterr().err
    for key, bad in (("seed", -3), ("seed", True), ("seed", 2.0), ("seed", "7"),
                     ("seed", 2 ** 128 - 4), ("initial_seed", -1),
                     ("initial_seed", 1.5), ("initial_seed", False)):
        cfg = write_config(workspace["dir"] / f"seed-{kind}.json",
                           {**doc, "study": {**study, key: bad}})
        assert main(["study", kind, "--config", cfg, "--out", out]) == 1, (key, bad)
        err = capsys.readouterr().err
        assert f"error: {key} " in err and "malformed" not in err, (key, bad)
    assert built == []
    assert not os.path.exists(out)


def test_bad_trajectory_seeds_exit_one_before_any_drift(workspace, tmp_path, capsys,
                                                        monkeypatch):
    built = _count_drift_builds(monkeypatch)
    doc = _simulate_config(workspace, table=workspace["table_ref"], solver=_NOISY_SOLVER,
                           noise={"scale": 0.05, "decay": 1.5})
    out = str(tmp_path / "o")
    for extra, config_seed, key in ((["--seed", "-1"], 9, "--seed"),
                                    ([], -1, "seed"), ([], 2 ** 128, "seed"),
                                    ([], True, "seed"), ([], 9.0, "seed")):
        cfg = write_config(workspace["dir"] / "eseed.json", {**doc, "seed": config_seed})
        assert main(["effective", "--config", cfg, "--out", out, *extra]) == 1
        assert f"error: {key} " in capsys.readouterr().err, (extra, config_seed)
    cfg = write_config(workspace["dir"] / "eseed.json", {
        **doc, "seed": 9, "initial": {"radius": 1.0, "s": 2.0, "seed": -3}})
    assert main(["effective", "--config", cfg, "--out", out]) == 1
    assert "initial.seed must be a non-negative integer" in capsys.readouterr().err
    assert built == []
    # the largest key is accepted
    cfg = write_config(workspace["dir"] / "eseed.json", {**doc, "seed": 2 ** 128 - 1})
    assert main(["effective", "--config", cfg, "--out", out]) == 0


def test_manifest_records_resources(workspace, tmp_path):
    cfg = write_config(workspace["dir"] / "res-sim.json", _simulate_config(
        workspace, solver=_NOISY_SOLVER, noise={"scale": 0.05, "decay": 1.5}, seed=9))
    sizes = []
    for name in ("a", "b"):
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        sizes.append((tmp_path / name / "manifest.json").stat().st_size)
    resources = read_json(tmp_path / "a" / "manifest.json")["resources"]
    assert set(resources) == {"wall_s", "self", "children"}
    for who in ("self", "children"):
        assert set(resources[who]) == {"cpu_s", "peak_rss_mb", "minor_faults"}
    values = [resources["wall_s"], *resources["self"].values(),
              *resources["children"].values()]
    # fixed-width strings: the manifest's size does not vary from run to run
    assert all(len(v) == len("1.000000e+00") and float(v) >= 0 for v in values)
    assert float(resources["self"]["peak_rss_mb"]) > 1.0
    assert sizes[0] == sizes[1]


def test_noisy_effective_records_its_noise(workspace, tmp_path):
    cfg = write_config(workspace["dir"] / "enoise.json", _simulate_config(
        workspace, table=workspace["table_ref"], solver=_NOISY_SOLVER,
        noise={"scale": 0.05, "decay": 1.5}, seed=9))
    assert main(["effective", "--config", cfg, "--out", str(tmp_path / "e")]) == 0
    traj = load_trajectory(tmp_path / "e" / "trajectory.jsonl")
    b = 0.05 * (1.0 + workspace["frame"].eigenvalues) ** -1.5
    assert traj.seed == 9 and traj.epsilon is None
    assert traj.noise_doc["amplitudes"] == [float(x) for x in b]
    assert "2 tau" in traj.noise_doc["convention"]


def test_effective_requires_table_and_runs(workspace, tmp_path):
    doc = _simulate_config(workspace, table=workspace["table_ref"])
    cfg = write_config(workspace["dir"] / "eff.json", doc)
    assert main(["effective", "--config", cfg, "--out", str(tmp_path / "e")]) == 0
    traj = load_trajectory(tmp_path / "e" / "trajectory.jsonl")
    assert traj.epsilon is None

    del doc["table"]
    cfg = write_config(workspace["dir"] / "eff2.json", doc)
    assert main(["effective", "--config", cfg, "--out", str(tmp_path / "e2")]) == 1


def _count_fallback_hashes(monkeypatch):
    """Schemas of the documents whose content hash read_json takes, which it
    does only for a file whose bytes do not hash to its pin."""
    schemas, reading = [], []
    read_json, content_hash = io.read_json, io.content_hash

    def counted_read(*args, **kwargs):
        reading.append(True)
        try:
            return read_json(*args, **kwargs)
        finally:
            reading.pop()

    def counted_hash(doc):
        if reading:
            schemas.append(doc["schema"])
        return content_hash(doc)

    monkeypatch.setattr(io, "read_json", counted_read)
    monkeypatch.setattr(io, "content_hash", counted_hash)
    return schemas


def _run_effective_on_copy(workspace, tmp_path, name, raw, what="table"):
    """`effective` on a copy of the workspace frame or table written as `raw`
    bytes, referenced by its content hash."""
    ref = dict(workspace[f"{what}_ref"])
    ref["file"] = f"{os.path.dirname(ref['file'])}/{name}.json"
    (workspace["dir"] / ref["file"]).write_bytes(raw)
    cfg = write_config(workspace["dir"] / f"{name}_cfg.json", _simulate_config(
        workspace, **{"table": workspace["table_ref"], what: ref}))
    return main(["effective", "--config", cfg, "--out", str(tmp_path / name)])


def test_canonical_table_file_is_not_rehashed(workspace, tmp_path, monkeypatch):
    raw = (workspace["dir"] / "res" / "table.json").read_bytes()
    calls = _count_fallback_hashes(monkeypatch)
    assert _run_effective_on_copy(workspace, tmp_path, "canonical", raw) == 0
    assert len(calls) == 0


def test_indented_table_file_still_loads(workspace, tmp_path, monkeypatch):
    # a table written as indented JSON (before one-line artifacts) has other
    # bytes but the same content hash, which is then checked on the parsed table
    doc = json.loads(io.canonical_bytes(workspace["table"].to_document()))
    calls = _count_fallback_hashes(monkeypatch)
    raw = json.dumps(doc, indent=2).encode() + b"\n"
    assert _run_effective_on_copy(workspace, tmp_path, "indented", raw) == 0
    assert calls == ["resonlab-resonance-v1"]


def test_tampered_table_file_is_refused(workspace, tmp_path, capsys):
    doc = json.loads(io.canonical_bytes(workspace["table"].to_document()))
    entry = next(e for e in doc["resonances"] if e["tuples"])
    entry["tuples"] = entry["tuples"][:-1]
    raw = json.dumps(doc, separators=(",", ":")).encode() + b"\n"
    assert _run_effective_on_copy(workspace, tmp_path, "tampered", raw) == 1
    assert "table hash" in capsys.readouterr().err


def test_indented_frame_file_still_loads(workspace, tmp_path, monkeypatch):
    doc = workspace["frame"].to_document()
    calls = _count_fallback_hashes(monkeypatch)
    raw = json.dumps(doc, indent=2).encode() + b"\n"
    assert _run_effective_on_copy(workspace, tmp_path, "indented_frame", raw,
                                  what="frame") == 0
    assert calls == ["resonlab-frame-v1"]


def test_tampered_frame_file_is_refused(workspace, tmp_path, capsys):
    doc = workspace["frame"].to_document()
    doc["lambda"][-1] += 1e-9
    raw = json.dumps(doc, separators=(",", ":")).encode() + b"\n"
    assert _run_effective_on_copy(workspace, tmp_path, "tampered_frame", raw,
                                  what="frame") == 1
    assert "frame hash" in capsys.readouterr().err


def test_manifest_hashes_are_the_output_bytes(workspace, tmp_path):
    outs = [workspace["dir"] / "basis", workspace["dir"] / "res"]
    for argv, doc in (
            (["simulate"], _simulate_config(workspace)),
            (["effective"], _simulate_config(workspace, table=workspace["table_ref"])),
            (["study", "operator"], {"frame": workspace["frame_ref"],
                                     "study": {"study": "operator", "initials": 1,
                                               "seed": 2}})):
        out = tmp_path / argv[0]
        cfg = write_config(workspace["dir"] / f"hashed_{argv[0]}.json", doc)
        assert main([*argv, "--config", cfg, "--out", str(out)]) == 0
        outs.append(out)
    for out in outs:
        outputs = read_json(out / "manifest.json")["outputs"]
        assert outputs and list(outputs) == sorted(outputs)
        for name, digest in outputs.items():
            assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest(), name


def test_blow_up_exits_two(workspace, tmp_path, capsys):
    doc = _simulate_config(
        workspace,
        nonlinearity={"kind": "diagonal", "mu": 0.0,
                      "gammas": [{"re": 1.0, "im": 0.0}] * 5},
        solver={"epsilon": 0.2, "tau_end": 2.0, "dt": 2e-3, "samples": 6,
                "blow_up_factor": 2.0},
        table=workspace["table_ref"])
    cfg = write_config(workspace["dir"] / "blow.json", doc)
    assert main(["effective", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "bound" in capsys.readouterr().err


def test_study_pass_and_fail_exit_codes(workspace, tmp_path, capsys):
    ok = write_config(workspace["dir"] / "sop.json", {
        "frame": workspace["frame_ref"],
        "study": {"study": "operator", "initials": 1, "seed": 2},
    })
    out = tmp_path / "op"
    assert main(["study", "operator", "--config", ok, "--out", str(out)]) == 0
    report = read_json(out / "report.json")
    assert report["study"] == "operator" and report["verdicts"]["error_decays"]
    files = set(os.listdir(out))
    assert {"report.json", "manifest.json", "operator_error.csv",
            "worst_case.csv"} <= files

    # a ladder too shallow to halve the deviation: criteria fail, exit 3
    fail = write_config(workspace["dir"] / "scf.json", {
        "frame": workspace["frame_ref"],
        "table": workspace["table_ref"],
        "nonlinearity": {"kind": "cubic_focusing", "mu": 0.5},
        "study": {"study": "converge", "epsilons": [0.1, 0.09], "dt": 2e-3,
                  "samples": 6, "tau_end": 0.5, "initials": 1, "seed": 3},
    })
    assert main(["study", "converge", "--config", fail,
                 "--out", str(tmp_path / "cf")]) == 3
    assert "halved: False" in capsys.readouterr().out


def test_non_finite_compare_tau_exits_one(workspace, tmp_path, capsys):
    cfg = write_config(workspace["dir"] / "snan.json", {
        "frame": workspace["frame_ref"],
        "table": workspace["table_ref"],
        "nonlinearity": {"kind": "cubic_focusing", "mu": 0.5},
        "noise": {"scale": 0.1, "decay": 1.5},
        "study": {"study": "stochastic", "compare_taus": [float("nan")]},
    })
    assert main(["study", "stochastic", "--config", cfg,
                 "--out", str(tmp_path / "s")]) == 1
    assert "compare_taus" in capsys.readouterr().err


def test_disparity_study_builds_no_diffusion(workspace, tmp_path, monkeypatch):
    built, original = [], resonance.build_diffusion
    counted = lambda *args: built.append(args) or original(*args)
    monkeypatch.setattr(resonance, "build_diffusion", counted)
    monkeypatch.setattr(integrators, "build_diffusion", counted, raising=False)
    cfg = write_config(workspace["dir"] / "sdn.json", {
        "frame": workspace["frame_ref"],
        "table": workspace["table_ref"],
        "nonlinearity": {"kind": "cubic_focusing", "mu": 0.5},
        "noise": {"scale": 0.05, "decay": 1.5},
        "study": {"study": "disparity", "epsilons": [0.2, 0.1], "dt": 2e-3, "samples": 3,
                  "tau_end": 0.2, "members": 4, "seed": 3},
    })
    # a ladder this short misses the factor-two criterion: exit 3 after the report
    assert main(["study", "disparity", "--config", cfg,
                 "--out", str(tmp_path / "d")]) == 3
    assert read_json(tmp_path / "d" / "report.json")["tables"]["disparity"]["columns"][-1] \
        == "ensemble_mean"
    assert built == []


def test_study_kind_mismatch(workspace, tmp_path):
    cfg = write_config(workspace["dir"] / "mk.json", {
        "frame": workspace["frame_ref"],
        "study": {"study": "operator"},
    })
    assert main(["study", "converge", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 1


def test_usage_errors_exit_one():
    assert main([]) == 1
    assert main(["simulate"]) == 1
    assert main(["--help"]) == 0


def test_threads_flag_sets_environment(workspace, tmp_path, monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    cfg = str(workspace["dir"] / "basis.json")
    assert main(["basis", "--config", cfg, "--out", str(tmp_path / "t"),
                 "--threads", "2"]) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"


def test_bad_threads_exit_one(workspace, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    cfg = str(workspace["dir"] / "basis.json")
    assert main(["basis", "--config", cfg, "--out", str(tmp_path / "t"),
                 "--threads", "0"]) == 1
    assert "--threads must be an integer >= 1, got 0" in capsys.readouterr().err
    assert "OPENBLAS_NUM_THREADS" not in os.environ


def test_importing_the_cli_loads_no_numpy():
    # --threads only pins BLAS if numpy loads after the variables are set
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c",
                    "import resonlab.cli, sys; assert 'numpy' not in sys.modules"],
                   env=env, check=True)
