"""Claim-sized studies over the averaging machinery.

Each study turns one statement about the effective dynamics into runs,
tables, and boolean verdicts: deterministic action convergence along an
epsilon ladder, finite-window operator averages against their resonant
limits, stochastic action moments, stationary-state estimates, and the
decay of the accumulated drift disparity.  Everything runs in memory;
the provenance block records content hashes of the frame, the config,
and every trajectory or ensemble a table number came from.
"""

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError, check_int, check_keys, check_seed
from .fields import (Observable, QuadratureDrift, ResonantDrift, action_observable,
                     default_quadrature_nodes, drift_route_residual,
                     monomial_observable, scalar_average, scalar_average_limit)
from .integrators import (NOISE_CONVENTION, SolverConfig, ensemble_full,
                          ensemble_effective, integrate_effective, integrate_full)
from .io import content_hash, ensemble_hash, trajectory_hash
from .resonance import minimal_frequency_gap
from .spectral import action_distance, sample_ball

__all__ = [
    "STUDIES", "StudyConfig", "StudyReport", "run_study",
    "study_deterministic_convergence", "study_operator_convergence",
    "study_stochastic_actions", "study_stationary_measure",
    "study_disparity_decay",
]

STUDIES = ("converge", "operator", "stochastic", "stationary", "disparity")
REPORT_SCHEMA = "resonlab-report-v1"


@dataclass(frozen=True)
class StudyConfig:
    """Numeric knobs shared by the studies; physical objects come in as arguments.

    `epsilons` is the ladder (strictly decreasing), `s1` the action-distance
    exponent, `s_star` the smoothness of sampled initial data.  `compare_taus`
    restricts moment comparisons to a subset of the sample grid (empty means
    every positive sample time).  `burn_in`/`batches`/`batch_length` shape the
    stationary time averages; `windows` is the averaging-window grid of the
    operator study.  `initial_seed` pins the sampled initial data separately
    from the Monte Carlo seed (None reuses `seed`).  The studies key their
    member streams from `seed` up to `seed + max(members, len(epsilons))`, and
    every one of those keys must be a Philox key.
    """

    study: str
    epsilons: tuple = (0.1, 0.05, 0.025, 0.0125)
    s1: float = 1.6
    s_star: float = 2.0
    tau_end: float = 1.0
    dt: float = 1e-3
    samples: int = 21
    theta_osc: float = 0.2
    initials: int = 3
    radius: float = 1.0
    members: int = 200
    seed: int = 2718
    initial_seed: int | None = None
    tracked_modes: int = 4
    compare_taus: tuple = ()
    burn_in: float = 6.0
    batches: int = 20
    batch_length: float = 1.5
    windows: tuple = ()
    quadrature_margin: float = 1e-8

    def __post_init__(self):
        if self.study not in STUDIES:
            raise ConfigError(f"unknown study {self.study!r}; pick one of {STUDIES}")
        eps = tuple(float(e) for e in self.epsilons)
        if not eps or any(not (e > 0) for e in eps):
            raise ConfigError("epsilon ladder must be nonempty and positive")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ConfigError("epsilon ladder must be strictly decreasing")
        if not (0.0 <= self.s1 < self.s_star):
            raise ConfigError(f"need 0 <= s1 < s_star, got s1={self.s1} s_star={self.s_star}")
        for name, least in (("samples", 2), ("initials", 1), ("members", 2),
                            ("tracked_modes", 1), ("batches", 4)):
            object.__setattr__(self, name, check_int(getattr(self, name), name, least))
        object.__setattr__(self, "seed", check_seed(
            self.seed, "seed", keys=max(self.members, len(eps)) + 1))
        if self.initial_seed is not None:
            object.__setattr__(self, "initial_seed",
                               check_seed(self.initial_seed, "initial_seed"))
        if not 0.0 < self.tau_end < math.inf:
            raise ConfigError(f"tau_end must be positive and finite, got {self.tau_end}")
        if not (0.0 <= self.burn_in < math.inf and 0.0 < self.batch_length < math.inf):
            raise ConfigError("stationary averaging needs a finite burn_in >= 0 "
                              "and a finite batch_length > 0")
        compare_taus = tuple(float(t) for t in self.compare_taus)
        if not all(map(math.isfinite, compare_taus)):
            raise ConfigError(f"compare_taus must be finite, got {compare_taus}")
        windows = tuple(float(w) for w in self.windows)
        if any(not 0.0 < w < math.inf for w in windows):
            raise ConfigError(f"averaging windows must be positive and finite, got {windows}")
        object.__setattr__(self, "epsilons", eps)
        object.__setattr__(self, "compare_taus", compare_taus)
        object.__setattr__(self, "windows", windows)

    def solver(self, **overrides):
        base = SolverConfig(epsilon=1.0, tau_end=self.tau_end, dt=self.dt,
                            samples=self.samples, theta_osc=self.theta_osc)
        return replace(base, **overrides) if overrides else base

    def to_document(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def from_document(doc):
        check_keys("study", doc, {f.name for f in fields(StudyConfig)}, required=("study",))
        return StudyConfig(**{k: (tuple(v) if isinstance(v, list) else v)
                              for k, v in doc.items()})


@dataclass
class StudyReport:
    """Tables plus verdicts plus provenance; JSON and CSV friendly throughout."""

    study: str
    config: dict
    tables: dict
    verdicts: dict
    provenance: dict

    def passed(self):
        return all(v for v in self.verdicts.values() if isinstance(v, bool))

    def to_document(self):
        return {"schema": REPORT_SCHEMA, "study": self.study, "config": self.config,
                "tables": self.tables, "verdicts": self.verdicts,
                "provenance": self.provenance}

    @staticmethod
    def from_document(doc):
        if doc.get("schema") != REPORT_SCHEMA:
            raise ConfigError(f"not a study report: schema {doc.get('schema')!r}")
        return StudyReport(doc["study"], doc["config"], doc["tables"],
                           doc["verdicts"], doc["provenance"])


def _table(columns, rows):
    return {"columns": list(columns), "rows": [list(r) for r in rows]}


def _provenance(frame, cfg, runs, extra=None):
    """Content hashes of the frame, the config and every run; runs maps a name
    to (hash, result), and each trajectory or ensemble result also gives its
    run's steps, h_target and excluded members, which are deterministic."""
    prov = {
        "frame_sha256": frame.content_hash(),
        "config_sha256": content_hash(cfg.to_document()),
        "runs": {name: digest for name, (digest, _) in sorted(runs.items())},
    }
    meta = {name: {"steps": result.meta["steps"], "h_target": result.meta["h_target"],
                   "excluded": len(getattr(result, "excluded", ()))}
            for name, (_, result) in sorted(runs.items()) if result is not None}
    if meta:
        prov["run_meta"] = meta
    if extra:
        prov.update(extra)
    return prov


def _initial_states(frame, cfg):
    """The (initials, M) batch of initial data.  They are physics, the seed is
    measurement: an explicit initial_seed keeps them fixed while Monte Carlo seeds vary."""
    rng = np.random.default_rng(cfg.seed if cfg.initial_seed is None
                                else cfg.initial_seed)
    return np.array([sample_ball(frame, cfg.s_star, cfg.radius, rng)
                     for _ in range(cfg.initials)])


def _compare_indices(taus, cfg):
    """Sample-grid indices entering moment comparisons."""
    if cfg.compare_taus:
        idx = []
        for t in cfg.compare_taus:
            i = int(np.argmin(np.abs(taus - t)))
            if abs(taus[i] - t) > 1e-9 * max(1.0, abs(t)):
                raise ConfigError(f"compare tau {t} is not on the sample grid")
            idx.append(i)
        return idx
    return list(range(1, len(taus)))


# -- deterministic action convergence ---------------------------------------

def study_deterministic_convergence(frame, spec, table, cfg):
    """delta(eps) = max over sampled tau of the weighted action distance
    between the full oscillatory run and the effective flow, for each member
    of one batch of initial data on a fixed smooth ball: one effective run and
    one full run per epsilon integrate every member.

    Verdicts: delta strictly decreasing along the ladder and the last ladder
    point below half of the first, for every initial datum; plus a route
    swap check showing delta does not depend on whether the effective drift
    comes from resonance enumeration or from quadrature averaging.
    """
    # sized before any run: a near-resonance stretches the window past the node budget
    window = table.suggested_window(5.0)
    try:
        quadrature = QuadratureDrift(frame, spec, window)
    except ConfigError as err:
        raise ConfigError(f"route swap: {err}; gamma_min={table.gamma_min:.3e}") from None
    drift = ResonantDrift(frame, spec, table)
    initials = _initial_states(frame, cfg)
    base = cfg.solver(scheme="lawson4")
    eff = integrate_effective(initials, drift, base)
    runs = {"effective": (trajectory_hash(eff, base), eff)}
    deltas = np.empty((len(initials), len(cfg.epsilons)))
    for i, eps in enumerate(cfg.epsilons):
        full_cfg = replace(base, epsilon=eps)
        full = integrate_full(initials, spec, frame, full_cfg)
        runs[f"full_eps{eps:g}"] = trajectory_hash(full, full_cfg), full
        deltas[:, i] = np.max(action_distance(full.actions(), eff.actions(), cfg.s1,
                                              frame.eigenvalues), axis=0)

    # Route swap: rerunning the effective flow with the quadrature drift must
    # reproduce delta up to the measured drift residual scaled by the horizon.
    swapped = integrate_effective(initials[0], quadrature, base)
    runs["effective_route_swap"] = trajectory_hash(swapped, base), swapped
    residual = drift_route_residual(initials[0], drift, quadrature, s=cfg.s1)["residual"]
    route_gap = float(np.max(action_distance(
        swapped.actions(), eff.actions()[:, 0], cfg.s1, frame.eigenvalues)))
    route_tol = max(1e-9, 100.0 * cfg.tau_end * residual)

    rows = [[float(eps), j, deltas[j, i]]
            for i, eps in enumerate(cfg.epsilons) for j in range(len(initials))]
    spread = [[float(eps), float(deltas[:, i].max() / max(deltas[:, i].min(), 1e-300))]
              for i, eps in enumerate(cfg.epsilons)]
    verdicts = {
        "monotone": bool(np.all(deltas[:, 1:] < deltas[:, :-1])),
        "halved": bool(np.all(deltas[:, -1] < 0.5 * deltas[:, 0])),
        "route_independent": bool(route_gap <= route_tol),
    }
    tables = {
        "deviation": _table(("epsilon", "initial", "delta"), rows),
        "spread": _table(("epsilon", "max_over_min"), spread),
        "route_swap": _table(("route_gap", "drift_residual", "tolerance"),
                             [[route_gap, residual, route_tol]]),
    }
    return StudyReport("converge", cfg.to_document(), tables, verdicts,
                       _provenance(frame, cfg, runs))


# -- averaging-operator convergence -----------------------------------------

def _operator_battery(frame, tracked):
    """(name, observable, target) triples with known infinite-window limits;
    resonance is decided by Observable.detunings, as in the limits."""
    target = 0
    # linear coordinates against a target with a different frequency
    linear = [(k, monomial_observable(1.0, v=(k,))) for k in range(1, frame.modes)]
    off = [(k, obs) for k, obs in linear if obs.detunings(frame, target)[0] is not None]
    battery = [(f"linear_v{k}", obs, target) for k, obs in off if k <= tracked]
    # the target's own coordinate: resonant, zero error at every window
    battery.append(("linear_self", monomial_observable(1.0, v=(target,)), target))
    # a resonant cubic monomial (frequency sum zero against the target)
    if off:
        k = off[0][0]
        battery.append(("cubic_resonant", monomial_observable(1.0, v=(k, target), vbar=(k,)),
                        target))
    # a plainly nonresonant monomial (bracket average, no target shift)
    if frame.modes > 3:
        quadratic = monomial_observable(1.0, v=(1,), vbar=(3,))
        if quadratic.detunings(frame)[0] is not None:
            battery.append(("quadratic_nonresonant", quadratic, None))
    return battery


def _oscillatory_bound(observable, frame, state, window, target):
    """Exact closed-form bound, per state of a batch: each nonresonant term
    contributes at most 2 |term(v)| / (window * |frequency gap|)."""
    bound = 0.0
    for term, gap in zip(observable.terms, observable.detunings(frame, target)):
        if gap is not None:
            bound += 2.0 * abs(Observable((term,))(state)) / (window * abs(gap))
    return bound


def study_operator_convergence(frame, cfg):
    """Finite-window scalar averages against their resonant limits on a grid
    of windows, maximized over a sample of states in a smooth ball.

    The error of every polynomial observable obeys the exact closed-form
    bound sum 2|term|/(T |gap|), so the verdicts check that bound (plus the
    quadrature margin) on the whole grid, that resonant observables are flat
    at quadrature accuracy, and that the worst error decays from the first
    window to the last.
    """
    lam = frame.eigenvalues
    min_gap = minimal_frequency_gap(frame, ((1,),))
    shortest = 5.3 * 2.0 * math.pi / (min_gap if math.isfinite(min_gap) else 1.0)
    windows = cfg.windows or tuple(shortest * 2.0 ** j for j in range(4))
    states = _initial_states(frame, cfg)
    battery = _operator_battery(frame, cfg.tracked_modes)
    runs = {"states": (content_hash([[v.real.tolist(), v.imag.tolist()]
                                     for v in states]), None)}

    rows = []
    worst = np.zeros(len(windows))
    bound_ok, resonant_ok = True, True
    for name, obs, target in battery:
        limit = scalar_average_limit(obs, frame, target=target)
        resonant = len(limit.terms) == len(obs.terms)
        for wi, window in enumerate(windows):
            n_quad = default_quadrature_nodes(frame, window)
            avg = scalar_average(obs, lam, states, window, n_quad, target=target)
            err = float(np.max(np.abs(avg - limit(states))))
            bound = float(np.max(_oscillatory_bound(obs, frame, states, window, target)))
            rows.append([name, float(window), err, bound])
            if err > bound + cfg.quadrature_margin:
                bound_ok = False
            if resonant and err > cfg.quadrature_margin:
                resonant_ok = False
            if not resonant:
                worst[wi] = max(worst[wi], err)

    verdicts = {
        "closed_form_bound": bool(bound_ok),
        "resonant_flat": bool(resonant_ok),
        "error_decays": bool(worst[-1] < worst[0]),
    }
    tables = {
        "operator_error": _table(("observable", "window", "max_error", "bound"), rows),
        "worst_case": _table(("window", "max_nonresonant_error"),
                             [[float(w), float(e)] for w, e in zip(windows, worst)]),
    }
    return StudyReport("operator", cfg.to_document(), tables, verdicts,
                       _provenance(frame, cfg, runs))


# -- stochastic action moments ----------------------------------------------

def study_stochastic_actions(frame, spec, table, noise, cfg):
    """Full-system ensembles along the epsilon ladder against one effective
    ensemble; compares action means and variances at the comparison times.
    The ensembles share member seeding for reproducibility, not variance: the
    full noise enters rotated, so the actions agree in law, not path by path,
    and the bands combine the two standard errors unpaired.

    Verdicts: at the smallest epsilon the mean-action discrepancy sits inside
    combined three-sigma Monte Carlo bands for every tracked mode, and for at
    least three quarters of the tracked modes the discrepancy (averaged over
    the comparison times) shrinks from the largest epsilon to the smallest.
    """
    v0 = _initial_states(frame, cfg)[0]
    base = cfg.solver(scheme="expeuler")
    tracked = min(cfg.tracked_modes, frame.modes)
    runs = {}

    eff = ensemble_effective(v0, ResonantDrift(frame, spec, table), base, noise,
                             cfg.members, cfg.seed)
    runs["effective"] = ensemble_hash(eff), eff
    idx = _compare_indices(eff.taus, cfg)

    rows, var_rows = [], []
    diff_by_eps = {}
    for eps in cfg.epsilons:
        res = ensemble_full(v0, spec, frame, replace(base, epsilon=eps),
                            noise, cfg.members, cfg.seed)
        runs[f"full_eps{eps:g}"] = ensemble_hash(res), res
        diffs = np.abs(res.mean_actions[:, :tracked] - eff.mean_actions[:, :tracked])
        bands = 3.0 * np.sqrt(res.stderr_actions[:, :tracked] ** 2
                              + eff.stderr_actions[:, :tracked] ** 2)
        diff_by_eps[eps] = (diffs[idx], bands[idx])
        for i in idx:
            for k in range(tracked):
                rows.append([float(eps), float(eff.taus[i]), k,
                             float(res.mean_actions[i, k]), float(eff.mean_actions[i, k]),
                             float(diffs[i, k]), float(bands[i, k])])
                var_rows.append([float(eps), float(eff.taus[i]), k,
                                 float(res.var_actions[i, k]), float(eff.var_actions[i, k])])

    smallest, largest = cfg.epsilons[-1], cfg.epsilons[0]
    d_small, b_small = diff_by_eps[smallest]
    within = bool(np.all(d_small <= b_small))
    improved = tracked
    if len(cfg.epsilons) > 1:
        d_large = diff_by_eps[largest][0]
        improved = int(sum(d_small[:, k].mean() < d_large[:, k].mean()
                           for k in range(tracked)))
    verdicts = {
        "bands": within,
        "trend": bool(improved >= math.ceil(0.75 * tracked)),
    }
    tables = {
        "mean_actions": _table(("epsilon", "tau", "k", "mean_full", "mean_eff",
                                "abs_diff", "band_3sigma"), rows),
        "var_actions": _table(("epsilon", "tau", "k", "var_full", "var_eff"), var_rows),
        "trend": _table(("mode", "diff_large_eps", "diff_small_eps", "improved"),
                        [[k, float(diff_by_eps[largest][0][:, k].mean()),
                          float(d_small[:, k].mean()),
                          bool(d_small[:, k].mean() < diff_by_eps[largest][0][:, k].mean())]
                         for k in range(tracked)]),
    }
    extra = {"noise_convention": NOISE_CONVENTION, "members": cfg.members,
             "seed_base": cfg.seed}
    return StudyReport("stochastic", cfg.to_document(), tables, verdicts,
                       _provenance(frame, cfg, runs, extra))


# -- stationary estimates ----------------------------------------------------

def _stationary_battery(frame, tracked):
    """Actions, squared actions, resonant quartic monomials (zero frequency
    sum), split into real series; plus the first index pair a < b whose
    v_a conj(v_b) is nonresonant, for the invariance proxy."""
    battery = [(f"I_{k}", action_observable(k), "re") for k in range(tracked)]
    for k in range(tracked):
        battery.append((f"I_{k}_sq", Observable(((0.25, ((k, 2),), ((k, 2),)),)), "re"))
    if frame.modes > 2:
        battery.append(("quartic_resonant",
                        monomial_observable(1.0, v=(1, 2), vbar=(1, 2)), "re"))
    # cross quartic v1 conj(v2) v3 conj(v4): when resonant, genuinely complex
    cross = monomial_observable(1.0, v=(1, 3), vbar=(2, 4))
    if frame.modes > 4 and cross.detunings(frame)[0] is None:
        battery.append(("quartic_cross_re", cross, "re"))
        battery.append(("quartic_cross_im", cross, "im"))
    pairs = [(a, b) for a in range(frame.modes) for b in range(a + 1, frame.modes)]
    gaps = Observable(tuple((1.0, ((a, 1),), ((b, 1),)) for a, b in pairs)).detunings(frame)
    nonresonant = next((pair for pair, gap in zip(pairs, gaps) if gap is not None),
                       (0, min(1, frame.modes - 1)))
    return battery, nonresonant


def _batch_means(values, taus, burn_in, batches, batch_length):
    """Batch means of a sampled scalar (possibly complex) after burn-in."""
    keep = taus > burn_in + 1e-9
    vals, ts = np.asarray(values)[keep], taus[keep]
    edges = burn_in + batch_length * np.arange(1, batches)
    groups = np.split(vals, np.searchsorted(ts, edges, side="left"))
    if any(len(g) == 0 for g in groups):
        raise ConfigError("stationary sampling too sparse for the batch layout")
    means = np.array([g.mean(axis=0) for g in groups])
    overall = means.mean(axis=0)
    # a real series has zero imaginary variance, so one formula serves both
    se = np.sqrt(means.real.var(ddof=1) + means.imag.var(ddof=1)) / math.sqrt(batches)
    return overall, float(se), means


def _halves_consistent(means):
    """Batch-mean drift test: first and second half agree within 4 sigma.

    The threshold is looser than the usual 3 because the test runs once per
    battery observable per trajectory; 4 sigma keeps the family-wise false
    alarm rate of the stationarity flag around 1e-3.
    """
    half = len(means) // 2
    a, b = means[:half], means[half:]
    gap = abs(a.mean() - b.mean())
    se = math.sqrt((a.real.var(ddof=1) + a.imag.var(ddof=1)) / len(a)
                   + (b.real.var(ddof=1) + b.imag.var(ddof=1)) / len(b))
    return bool(gap <= 4.0 * se + 1e-300)


def study_stationary_measure(frame, spec, table, noise, cfg):
    """Long-trajectory time averages after burn-in, batch means for errors:
    full dynamics per ladder point against the effective flow.

    Verdicts: tracked stationary action estimates at the smallest epsilon
    agree with the effective ones within three combined batch stderr, the
    nonresonant monomial under the effective state is statistically zero
    (rotation-invariance proxy), and the batch-mean drift test detects no
    nonstationarity.  The verdict is labeled conditional: uniqueness and
    mixing of the limit state are hypotheses the run cannot verify.
    """
    v0 = _initial_states(frame, cfg)[0]
    tau_end = cfg.burn_in + cfg.batches * cfg.batch_length
    samples = max(cfg.samples, 16 * cfg.batches + 1)
    base = cfg.solver(scheme="expeuler", tau_end=tau_end, samples=samples)
    tracked = min(cfg.tracked_modes, frame.modes)
    battery, (a, b) = _stationary_battery(frame, tracked)
    runs = {}

    eff_cfg = replace(base, dt=min(5e-3, base.dt * 2))
    eff = integrate_effective(v0, ResonantDrift(frame, spec, table), eff_cfg,
                              noise=noise, seed=cfg.seed + len(cfg.epsilons))
    runs["effective"] = trajectory_hash(eff, eff_cfg), eff

    def estimates(traj):
        out, stationary = {}, True
        for name, obs, kind in battery:
            series = obs(traj.states)
            series = series.real if kind == "re" else series.imag
            mean, se, means = _batch_means(series, traj.taus, cfg.burn_in,
                                           cfg.batches, cfg.batch_length)
            stationary = stationary and _halves_consistent(means)
            out[name] = (float(mean), se)
        return out, stationary

    eff_est, eff_stationary = estimates(eff)

    rows, agree_rows = [], []
    stationary_ok = eff_stationary
    discrepancy = {}
    for i, eps in enumerate(cfg.epsilons):
        full_cfg = replace(base, epsilon=eps)
        full = integrate_full(v0, spec, frame, full_cfg, noise=noise, seed=cfg.seed + i)
        runs[f"full_eps{eps:g}"] = trajectory_hash(full, full_cfg), full
        est, ok = estimates(full)
        stationary_ok = stationary_ok and ok
        total, within_all = 0.0, True
        for name, obs, kind in battery:
            fm, fs = est[name]
            em, es = eff_est[name]
            gap = abs(fm - em)
            band = 3.0 * math.sqrt(fs ** 2 + es ** 2)
            rows.append([float(eps), name, fm, fs, em, es, float(gap), band])
            if name.startswith("I_") and not name.endswith("_sq"):
                total += gap
                within_all = within_all and gap <= band
        discrepancy[eps] = within_all
        agree_rows.append([float(eps), total])

    # rotation-invariance proxy under the effective stationary state
    mono = monomial_observable(1.0, v=(a,), vbar=(b,))
    mmean, mse, mmeans = _batch_means(mono(eff.states), eff.taus, cfg.burn_in,
                                      cfg.batches, cfg.batch_length)
    nonresonant_ok = bool(abs(mmean) <= 3.0 * mse)

    verdicts = {
        "actions_match": bool(discrepancy[cfg.epsilons[-1]]),
        "nonresonant_vanishes": nonresonant_ok,
        "stationary_batches": bool(stationary_ok),
        "label": "conditional",
    }
    tables = {
        "stationary_estimates": _table(
            ("epsilon", "observable", "mean_full", "stderr_full", "mean_eff",
             "stderr_eff", "abs_diff", "band_3sigma"), rows),
        "agreement": _table(("epsilon", "total_action_discrepancy"), agree_rows),
        "invariance_proxy": _table(
            ("monomial", "abs_mean", "stderr", "within_3sigma"),
            [[f"v{a}_vbar{b}", float(abs(mmean)), mse, nonresonant_ok]]),
    }
    extra = {"noise_convention": NOISE_CONVENTION,
             "burn_in": cfg.burn_in, "batches": cfg.batches,
             "conditional_on": ["uniqueness of the limit stationary state",
                                "mixing of the effective dynamics"]}
    return StudyReport("stationary", cfg.to_document(), tables, verdicts,
                       _provenance(frame, cfg, runs, extra))


# -- disparity decay ---------------------------------------------------------

def study_disparity_decay(frame, spec, table, cfg, noise=None):
    """Accumulated gap between the oscillating drift and its resonant average,
    tracked as a running integral per mode, along the epsilon ladder.

    Deterministic verdict: per-mode maxima decrease monotonically along the
    ladder and the smallest epsilon beats the largest by at least a factor
    two.  Stochastic verdict (when noise is given): the ensemble-mean
    disparity decreases the same way.  A step-halving check at one ladder
    point confirms the quantity is an observable of the dynamics rather
    than of the integrator.
    """
    v0 = _initial_states(frame, cfg)[0]
    det_base = cfg.solver(scheme="lawson4")
    sto_base = cfg.solver(scheme="expeuler")
    tracked = min(cfg.tracked_modes, frame.modes)
    drift = ResonantDrift(frame, spec, table)
    runs = {}

    det = np.empty((len(cfg.epsilons), tracked))
    sto = np.empty_like(det) if noise is not None and not noise.is_zero else None
    for i, eps in enumerate(cfg.epsilons):
        det_cfg = replace(det_base, epsilon=eps)
        traj = integrate_full(v0, spec, frame, det_cfg, drift=drift)
        runs[f"det_eps{eps:g}"] = trajectory_hash(traj, det_cfg), traj
        det[i] = traj.disparity_max[:tracked]
        if sto is not None:
            res = ensemble_full(v0, spec, frame, replace(sto_base, epsilon=eps),
                                noise, cfg.members, cfg.seed + 1, drift=drift)
            runs[f"ens_eps{eps:g}"] = ensemble_hash(res), res
            sto[i] = res.disparity_mean[:tracked]

    # integrator independence: halving the step should not move the number;
    # theta_osc halves too so the refinement bites even when the oscillation
    # bound, not dt, sets the step
    mid = len(cfg.epsilons) // 2
    half_cfg = replace(det_base, epsilon=cfg.epsilons[mid],
                              dt=cfg.dt / 2, theta_osc=cfg.theta_osc / 2)
    half = integrate_full(v0, spec, frame, half_cfg, drift=drift)
    runs[f"det_eps{cfg.epsilons[mid]:g}_halfstep"] = trajectory_hash(half, half_cfg), half
    ref = det[mid]
    shift = float(np.max(np.abs(half.disparity_max[:tracked] - ref)
                         / np.maximum(ref, 1e-300)))

    rows = [[float(eps), k, float(det[i, k])] +
            ([float(sto[i, k])] if sto is not None else [])
            for i, eps in enumerate(cfg.epsilons) for k in range(tracked)]
    columns = ("epsilon", "k", "disparity_max") + \
              (("ensemble_mean",) if sto is not None else ())
    verdicts = {
        "monotone": bool(np.all(det[1:] < det[:-1])),
        "factor_two": bool(np.all(det[-1] <= 0.5 * det[0])),
        "step_stable": bool(shift <= 0.05),
    }
    if sto is not None:
        verdicts["ensemble_monotone"] = bool(np.all(sto[1:] < sto[:-1]))
    tables = {
        "disparity": _table(columns, rows),
        "step_check": _table(("epsilon", "dt", "relative_shift"),
                             [[float(cfg.epsilons[mid]), cfg.dt / 2, shift]]),
    }
    extra = {"members": cfg.members if sto is not None else 0}
    return StudyReport("disparity", cfg.to_document(), tables, verdicts,
                       _provenance(frame, cfg, runs, extra))


def run_study(cfg, frame, spec=None, table=None, noise=None):
    """Dispatch on the study id, checking that the needed pieces are present."""
    def need(**pieces):
        missing = [k for k, v in pieces.items() if v is None]
        if missing:
            raise ConfigError(f"study {cfg.study!r} needs {', '.join(missing)}")

    if cfg.study == "converge":
        need(spec=spec, table=table)
        return study_deterministic_convergence(frame, spec, table, cfg)
    if cfg.study == "operator":
        return study_operator_convergence(frame, cfg)
    if cfg.study == "stochastic":
        need(spec=spec, table=table, noise=noise)
        return study_stochastic_actions(frame, spec, table, noise, cfg)
    if cfg.study == "stationary":
        need(spec=spec, table=table, noise=noise)
        return study_stationary_measure(frame, spec, table, noise, cfg)
    need(spec=spec, table=table)
    return study_disparity_decay(frame, spec, table, cfg, noise=noise)
