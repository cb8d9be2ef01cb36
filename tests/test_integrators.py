"""Integrator correctness against closed forms, order checks, noise statistics."""

from dataclasses import replace
import math
import multiprocessing
import os
import threading
import time
import tracemalloc

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from resonlab import integrators
from resonlab.errors import BlowUpError, ConfigError, EnsembleError
from resonlab.fields import ResonantDrift
from resonlab.integrators import (
    EnsembleResult,
    NoiseModel,
    SolverConfig,
    _NoiseStream,
    ensemble_effective,
    ensemble_full,
    integrate_effective,
    integrate_effective_stochastic,
    integrate_full,
    integrate_full_stochastic,
    oscillation_step,
    step_full_deterministic,
)
from resonlab.nonlinearity import NonlinearitySpec
from resonlab.resonance import build_diffusion, build_resonance_table
from resonlab.spectral import (
    Potential,
    TorusGeometry,
    action_distance,
    build_frame,
    sample_ball,
)

TAU = 2 * np.pi
CUBIC = NonlinearitySpec("cubic_focusing", mu=0.3)


def diag_spec(gammas, mu=0.0):
    return NonlinearitySpec("diagonal", mu=mu, gammas=tuple(gammas))


# -- configuration ----------------------------------------------------------

def test_config_validation():
    good = SolverConfig(epsilon=0.1, tau_end=1.0)
    assert SolverConfig.from_document(good.to_document()) == good
    for bad in (dict(epsilon=0), dict(tau_end=-1), dict(dt=0), dict(scheme="rk4"),
                dict(theta_osc=0), dict(samples=1), dict(blow_up_factor=1.0),
                # samples=3.9 used to run 3 samples while the config kept 3.9
                dict(samples=2.5), dict(samples=3.9), dict(samples=True)):
        with pytest.raises(ConfigError):
            SolverConfig(**{"epsilon": 0.1, "tau_end": 1.0, **bad})
    assert type(SolverConfig(epsilon=0.1, tau_end=1.0, samples=np.int64(5)).samples) is int


@pytest.mark.parametrize("name", ["epsilon", "tau_end", "dt"])
def test_config_refuses_non_finite(name):
    # tau_end=inf died in _segment_steps, dt=inf took one step per sample
    # segment, and epsilon=inf ran the full system with no rotation
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ConfigError, match=name):
            SolverConfig.from_document({"epsilon": 0.1, "tau_end": 1.0, name: bad})


def test_oscillation_step_policy(frame_1d_5):
    cfg = SolverConfig(epsilon=0.1, tau_end=1.0, dt=0.05, theta_osc=0.2)
    # lambda_max = 4: refined to 0.2 * 0.1 / 4 = 5e-3
    assert oscillation_step(cfg, frame_1d_5.eigenvalues) == pytest.approx(5e-3)
    wide = replace(cfg, epsilon=100.0)
    assert oscillation_step(wide, frame_1d_5.eigenvalues) == 0.05


def test_step_refuses_oversized(frame_1d_5):
    cfg = SolverConfig(epsilon=0.1, tau_end=1.0, dt=0.05)
    with pytest.raises(ConfigError):
        step_full_deterministic(np.ones(5, complex), 0.0, 0.04, CUBIC, frame_1d_5, cfg)


@pytest.mark.parametrize("scheme", ["lawson4", "expeuler"])
@pytest.mark.parametrize("frame_name", ["frame_1d_9_cos", "frame_2d_9"])
def test_step_probe_is_the_drivers_step(request, frame_name, scheme):
    # the ladder's "step" column times step_full_deterministic, which steps
    # outside the driver; a one-step run of the same width must match it bitwise
    frame = request.getfixturevalue(frame_name)
    cfg = SolverConfig(epsilon=0.3, tau_end=1.0, dt=1.0, scheme=scheme)
    h = oscillation_step(cfg, frame.eigenvalues)
    a = sample_ball(frame, 2.0, 1.0, np.random.default_rng(5))
    probe = step_full_deterministic(a, 0.0, h, CUBIC, frame, cfg)
    run = integrate_full(a, CUBIC, frame, replace(cfg, tau_end=h, samples=2, dt=h))
    assert run.meta["steps"] == 1
    assert np.array_equal(probe, run.final_state())


# -- deterministic closed forms ---------------------------------------------

def test_linear_flow_is_exact(frame_1d_5):
    # zero nonlinearity: the scheme reduces to products of exact exponentials
    spec = diag_spec([0] * 5, mu=0.7)
    a0 = np.array([1.0, 0.5j, -0.25, 1 - 1j, 0.125], dtype=complex)
    cfg = SolverConfig(epsilon=5.0, tau_end=2.0, dt=0.05, samples=5)
    traj = integrate_full(a0, spec, frame_1d_5, cfg)
    for tau, state in zip(traj.taus, traj.states):
        expect = np.exp(-0.7 * frame_1d_5.eigenvalues * tau) * a0
        assert np.allclose(state, expect, rtol=1e-12, atol=0)


def test_diagonal_closed_form_lawson(frame_1d_5):
    gammas = np.array([0.3j, -0.1 + 0.2j, 0.05j, -0.2, 0.1j])
    spec = diag_spec(gammas, mu=0.4)
    a0 = np.full(5, 0.8 + 0.1j)
    cfg = SolverConfig(epsilon=10.0, tau_end=1.0, dt=1e-3, samples=2)
    traj = integrate_full(a0, spec, frame_1d_5, cfg)
    expect = np.exp((-0.4 * frame_1d_5.eigenvalues + gammas) * 1.0) * a0
    assert np.allclose(traj.final_state(), expect, atol=1e-10)


def test_expeuler_is_first_order(frame_1d_5):
    gammas = np.array([-0.3 + 0.8j] * 5)
    spec = diag_spec(gammas, mu=0.2)
    a0 = np.ones(5, dtype=complex)
    exact = np.exp((-0.2 * frame_1d_5.eigenvalues + gammas) * 1.0) * a0

    def err(dt):
        cfg = SolverConfig(epsilon=10.0, tau_end=1.0, dt=dt, scheme="expeuler", samples=2)
        traj = integrate_full(a0, spec, frame_1d_5, cfg)
        return np.max(np.abs(traj.final_state() - exact))

    ratio = err(2e-3) / err(1e-3)
    assert 1.7 < ratio < 2.3


def test_lawson_is_fourth_order(frame_1d_5):
    a0 = sample_ball(frame_1d_5, 2.0, 1.2, np.random.default_rng(31))
    base = dict(epsilon=0.5, tau_end=0.5, theta_osc=100.0, samples=2)
    ref = integrate_full(a0, CUBIC, frame_1d_5,
                         SolverConfig(dt=6.25e-4, **base)).final_state()

    def err(dt):
        traj = integrate_full(a0, CUBIC, frame_1d_5, SolverConfig(dt=dt, **base))
        return np.max(np.abs(traj.final_state() - ref))

    r1, r2 = err(2e-2) / err(1e-2), err(1e-2) / err(5e-3)
    assert 10.0 < r1 < 25.0
    assert 10.0 < r2 < 25.0


def test_single_mode_phase_rotation():
    # one-mode truncation: the resonant drift is i |a|^2 a / (2 pi) exactly,
    # so the phase advances by |a0|^2 tau / (2 pi) at constant modulus
    frame = build_frame(TorusGeometry((TAU,), 16), Potential.zero(), 1)
    table = build_resonance_table(frame)
    spec = NonlinearitySpec("cubic_focusing")
    drift = ResonantDrift(frame, spec, table)
    a0 = np.array([1.2 - 0.4j])
    G = 1.0 / TAU
    assert np.allclose(drift(a0), 1j * G * np.abs(a0) ** 2 * a0, atol=1e-14)

    cfg = SolverConfig(epsilon=1.0, tau_end=2.0, dt=1e-3, samples=3)
    expect = np.exp(1j * G * np.abs(a0) ** 2 * 2.0) * a0
    eff = integrate_effective(a0, drift, cfg)
    assert np.allclose(eff.final_state(), expect, atol=1e-9)
    full = integrate_full(a0, spec, frame, cfg)
    assert np.allclose(full.final_state(), expect, atol=1e-9)


def test_effective_conserves_l2_without_damping(frame_1d_9):
    table = build_resonance_table(frame_1d_9)
    spec = NonlinearitySpec("cubic_focusing")  # mu = 0, Hamiltonian truncation
    a0 = sample_ball(frame_1d_9, 2.0, 1.5, np.random.default_rng(32))
    cfg = SolverConfig(epsilon=1.0, tau_end=1.0, dt=1e-3, samples=6)
    traj = integrate_effective(a0, ResonantDrift(frame_1d_9, spec, table), cfg)
    mass = np.sum(np.abs(traj.states) ** 2, axis=1)
    assert np.allclose(mass, mass[0], rtol=1e-10)


def test_full_approaches_effective_as_epsilon_shrinks(frame_1d_5):
    table = build_resonance_table(frame_1d_5)
    a0 = sample_ball(frame_1d_5, 2.0, 1.0, np.random.default_rng(33))
    cfg = SolverConfig(epsilon=1.0, tau_end=1.0, dt=2e-3, samples=2)
    eff = integrate_effective(a0, ResonantDrift(frame_1d_5, CUBIC, table), cfg)

    def dist(eps):
        traj = integrate_full(a0, CUBIC, frame_1d_5, replace(cfg, epsilon=eps))
        return action_distance(traj.actions()[-1], eff.actions()[-1], 1.0,
                               frame_1d_5.eigenvalues)

    d_big, d_small = dist(0.4), dist(0.05)
    assert d_small < 0.5 * d_big


def test_disparity_shrinks_with_epsilon(frame_1d_5):
    drift = ResonantDrift(frame_1d_5, CUBIC, build_resonance_table(frame_1d_5))
    a0 = sample_ball(frame_1d_5, 2.0, 1.0, np.random.default_rng(34))
    cfg = SolverConfig(epsilon=1.0, tau_end=1.0, dt=2e-3, samples=5)

    def peak(eps):
        traj = integrate_full(a0, CUBIC, frame_1d_5, replace(cfg, epsilon=eps), drift=drift)
        return float(np.max(traj.disparity_max))

    p_big, p_small = peak(0.4), peak(0.1)
    assert p_small < 0.6 * p_big


def test_disparity_tracking_evaluates_once_per_sample_node(frame_1d_5, monkeypatch):
    # a segment's first stage closes the last one's trapezoid at their shared
    # sample node, so only the run's last node takes an extra evaluation
    evals, drifts = [], []
    eval_Y, drift_call = integrators.eval_Y, ResonantDrift.__call__
    monkeypatch.setattr(integrators, "eval_Y",
                        lambda x, t, field: evals.append(t) or eval_Y(x, t, field))
    monkeypatch.setattr(ResonantDrift, "__call__",
                        lambda self, x: drifts.append(x) or drift_call(self, x))
    drift = ResonantDrift(frame_1d_5, CUBIC, build_resonance_table(frame_1d_5))
    a0 = sample_ball(frame_1d_5, 2.0, 0.5, np.random.default_rng(37))
    for scheme, stages in (("lawson4", 4), ("expeuler", 1)):
        del evals[:], drifts[:]
        cfg = SolverConfig(epsilon=0.5, tau_end=0.3, dt=5e-3, scheme=scheme, samples=4)
        traj = integrate_full(a0, CUBIC, frame_1d_5, cfg, drift=drift)
        steps = traj.meta["steps"]
        assert steps == 60
        # one evaluation per stage, plus the closing one at the last sample node
        assert len(evals) == stages * steps + 1 and len(drifts) == steps + 1


def test_disparity_of_a_constant_gap_grows_linearly():
    # g - drift = c at every node, so the trapezoid integral reaches c * tau_end
    # only once the last segment is closed at the last sample node
    c = np.array([[0.5 - 1.0j, 2.0]])
    cfg = SolverConfig(epsilon=1.0, tau_end=0.3, dt=0.01, scheme="expeuler", samples=4)
    run = integrators._drive(np.zeros((1, 2), complex), lambda x, tau: c, np.zeros(2), 0.0,
                             cfg, cfg.dt, drift=np.zeros_like)
    assert run["steps"] == 30
    assert np.allclose(run["disp_max"], 0.3 * np.abs(c), rtol=1e-12, atol=0)


def test_disparity_drift_must_match_the_run(frame_1d_5):
    cfg = SolverConfig(epsilon=0.5, tau_end=0.1)
    a0 = np.ones(5, complex)
    drift = ResonantDrift(frame_1d_5, CUBIC, build_resonance_table(frame_1d_5))
    with pytest.raises(ConfigError, match="spec and frame"):
        integrate_full(a0, NonlinearitySpec("cubic_focusing", mu=0.5), frame_1d_5, cfg,
                       drift=drift)
    geometry = TorusGeometry((TAU,), 32)
    other = build_frame(geometry, Potential.from_cosines({1: 0.1}, dimension=1), 5)
    with pytest.raises(ConfigError, match="spec and frame"):
        integrate_full(a0, CUBIC, other, cfg, drift=drift)
    with pytest.raises(ConfigError, match="spec and frame"):
        ensemble_full(a0, CUBIC, other, cfg, NoiseModel.zero(5), 2, None, drift=drift)
    # the same frame built again is the run's frame
    again = integrate_full(a0, CUBIC, build_frame(geometry, Potential.zero(), 5), cfg,
                           drift=drift)
    assert np.array_equal(again.states,
                          integrate_full(a0, CUBIC, frame_1d_5, cfg, drift=drift).states)


def test_shared_drift_runs_equal_fresh_drift_runs(frame_1d_5):
    # a drift keeps work arrays sized to the widest batch it has seen; one
    # drift used for a 1-row run, a 200-member ensemble and the 1-row run
    # again gives the bits of a fresh drift per run
    table = build_resonance_table(frame_1d_5)
    a0 = sample_ball(frame_1d_5, 2.0, 1.0, np.random.default_rng(38))
    cfg = SolverConfig(epsilon=0.2, tau_end=0.2, dt=5e-3, samples=3)
    sto_cfg = replace(cfg, scheme="expeuler")
    noise = NoiseModel((0.3, 0.3, 0.3, 0.2, 0.2))

    def runs(drift):
        single = integrate_full(a0, CUBIC, frame_1d_5, cfg, drift=drift())
        ens = ensemble_full(a0, CUBIC, frame_1d_5, sto_cfg, noise, 200, 11, drift=drift())
        return single, ens, integrate_full(a0, CUBIC, frame_1d_5, cfg, drift=drift())

    shared = ResonantDrift(frame_1d_5, CUBIC, table)
    single, ens, again = runs(lambda: shared)
    fresh_single, fresh_ens, fresh_again = runs(lambda: ResonantDrift(frame_1d_5, CUBIC, table))
    for one, other in ((single, fresh_single), (again, fresh_again), (again, fresh_single)):
        assert np.array_equal(one.states, other.states)
        assert np.array_equal(one.disparity_max, other.disparity_max)
    assert np.array_equal(ens.mean_actions, fresh_ens.mean_actions)
    assert np.array_equal(ens.disparity_mean, fresh_ens.disparity_mean)


def test_diagonal_spec_needs_one_coefficient_per_mode(frame_1d_5):
    # a 1-coefficient spec must not broadcast over the 5 modes on either side
    spec = diag_spec([0.3j])
    cfg = SolverConfig(epsilon=0.1, tau_end=0.1, dt=0.05)
    a0 = np.ones(5, dtype=complex)
    with pytest.raises(ConfigError):
        ResonantDrift(frame_1d_5, spec)
    with pytest.raises(ConfigError):
        integrate_effective(a0, ResonantDrift(frame_1d_5, spec), cfg)
    with pytest.raises(ConfigError):
        integrate_full(a0, spec, frame_1d_5, cfg)


# -- blow-up handling -------------------------------------------------------

def test_deterministic_blow_up_raises(frame_1d_5):
    spec = diag_spec([2.0] * 5)  # uniform exponential growth
    cfg = SolverConfig(epsilon=1.0, tau_end=3.0, dt=0.01, samples=4)
    with pytest.raises(BlowUpError) as info:
        integrate_full(np.ones(5, complex), spec, frame_1d_5, cfg)
    assert 2.0 < info.value.tau < 3.0
    assert info.value.norm > info.value.bound


# -- stochastic machinery ---------------------------------------------------

def test_noise_model_basics(frame_1d_5):
    model = NoiseModel.from_eigenvalue_power(frame_1d_5.eigenvalues, 2.0)
    assert model.amplitudes == (0.0, 1.0, 1.0, 0.0625, 0.0625)
    assert NoiseModel.zero(4).is_zero and not model.is_zero
    assert NoiseModel.from_document(model.to_document()) == model
    with pytest.raises(ConfigError):
        NoiseModel((-0.1, 1.0))


def test_stochastic_requires_expeuler(frame_1d_5):
    cfg = SolverConfig(epsilon=0.5, tau_end=0.1, scheme="lawson4")
    noise = NoiseModel.zero(5)
    with pytest.raises(ConfigError):
        integrate_full(np.ones(5, complex), CUBIC, frame_1d_5, cfg, noise=noise, seed=1)
    with pytest.raises(ConfigError):
        ensemble_full(np.ones(5, complex), CUBIC, frame_1d_5, cfg, noise, 4, 1)


def test_runs_refuse_states_of_the_wrong_shape(frame_1d_5):
    # a single run takes one (5,) state, an ensemble of 4 members one (5,) or
    # (4, 5) state; a (3, 5) batch or a (4,) vector is refused before any step
    cfg = SolverConfig(epsilon=0.5, tau_end=0.1, dt=5e-3, scheme="expeuler")
    noise = NoiseModel((0.3, 0.3, 0.3, 0.2, 0.2))
    drift = ResonantDrift(frame_1d_5, CUBIC, build_resonance_table(frame_1d_5))
    runs = (lambda a: integrate_full(a, CUBIC, frame_1d_5, cfg),
            lambda a: integrate_effective(a, drift, cfg),
            lambda a: integrate_full(a, CUBIC, frame_1d_5, cfg, noise=noise, seed=1),
            lambda a: integrate_effective(a, drift, cfg, noise=noise, seed=1),
            lambda a: ensemble_full(a, CUBIC, frame_1d_5, cfg, noise, 4, 1),
            lambda a: ensemble_effective(a, drift, cfg, noise, 4, 1))
    for run in runs:
        for a0 in (0.4 * np.ones((3, 5), complex), 0.4 * np.ones(4, complex)):
            with pytest.raises(ConfigError, match="initial state must have shape"):
                run(a0)


def test_injecting_noise_needs_a_seed(frame_1d_5):
    cfg = SolverConfig(epsilon=0.5, tau_end=0.1, dt=5e-3, scheme="expeuler")
    a0 = 0.4 * np.ones(5, dtype=complex)
    b = (0.3, 0.3, 0.3, 0.2, 0.2)
    noise = NoiseModel(b)
    drift = ResonantDrift(frame_1d_5, CUBIC, build_resonance_table(frame_1d_5))
    runs = (lambda: integrate_full(a0, CUBIC, frame_1d_5, cfg, noise=noise, seed=None),
            lambda: integrate_effective(a0, drift, cfg, noise=noise, seed=None),
            lambda: ensemble_full(a0, CUBIC, frame_1d_5, cfg, noise, 4, None),
            lambda: ensemble_effective(a0, drift, cfg, noise, 4, None))
    for run in runs:
        with pytest.raises(ConfigError, match="needs a seed"):
            run()


def test_stochastic_aliases_return_their_survivors_bitwise(frame_1d_5):
    cfg = SolverConfig(epsilon=0.5, tau_end=0.1, dt=5e-3, scheme="expeuler", samples=3)
    a0 = 0.4 * np.ones(5, dtype=complex)
    noise = NoiseModel((0.3, 0.3, 0.3, 0.2, 0.2))
    drift = ResonantDrift(frame_1d_5, CUBIC, build_resonance_table(frame_1d_5))
    pairs = ((integrate_full_stochastic(a0, CUBIC, frame_1d_5, cfg, noise, 3),
              integrate_full(a0, CUBIC, frame_1d_5, cfg, noise=noise, seed=3)),
             (integrate_effective_stochastic(a0, drift, cfg, noise, 3),
              integrate_effective(a0, drift, cfg, noise=noise, seed=3)))
    for alias, survivor in pairs:
        assert np.array_equal(alias.states, survivor.states)
        assert (alias.epsilon, alias.seed, alias.noise_doc, alias.meta) == \
            (survivor.epsilon, survivor.seed, survivor.noise_doc, survivor.meta)


def test_noise_injector_matches_the_two_it_replaced(frame_1d_9_cos):
    # the full system's Psi(b dbeta) rotated into the interaction frame and
    # the effective B dbeta, spelled as the two injectors that preceded
    # _noise_injector spelled them
    frame, eps = frame_1d_9_cos, 0.3
    b = 0.2 * (1.0 + frame.eigenvalues) ** -1.0
    noise = NoiseModel(tuple(b))
    scaled, rotation = b[:, None] * frame.eigenvectors.T, 1j * frame.eigenvalues
    root_T = build_diffusion(frame, b).root.T
    references = (
        (integrators._noise_injector(noise, frame, eps),
         lambda tau, sqrt_h: scaled * (sqrt_h * np.exp((tau / eps) * rotation))),
        (integrators._noise_injector(noise, frame),
         lambda tau, sqrt_h: sqrt_h * root_T))
    rng = np.random.default_rng(11)
    for inject, matrix in references:
        for tau, h, rows in ((0.0, 0.1, 1), (0.37, 2e-3, 7), (5.3, 1e-4, 64), (41.0, 3e-5, 3)):
            normals = (rng.standard_normal((rows, frame.modes))
                       + 1j * rng.standard_normal((rows, frame.modes)))
            got, want = np.empty_like(normals), np.empty_like(normals)
            inject(tau, math.sqrt(h), normals, got)
            np.matmul(normals, matrix(tau, math.sqrt(h)), out=want)
            assert np.array_equal(got, want), (tau, h, rows)
    zero = NoiseModel.zero(frame.modes)
    assert integrators._noise_injector(zero, frame, eps) is None
    assert integrators._noise_injector(zero, frame) is None


def test_seedless_zero_noise_ensembles_report_no_seed(frame_1d_5):
    cfg = SolverConfig(epsilon=0.5, tau_end=0.1, dt=5e-3, scheme="expeuler", samples=3)
    a0 = 0.4 * np.ones(5, dtype=complex)
    drift = ResonantDrift(frame_1d_5, CUBIC, build_resonance_table(frame_1d_5))
    for run in (lambda seed: ensemble_full(a0, CUBIC, frame_1d_5, cfg,
                                           NoiseModel.zero(5), 3, seed),
                lambda seed: ensemble_effective(a0, drift, cfg, NoiseModel.zero(5), 3, seed)):
        seedless, seeded = run(None), run(7)
        assert seedless.seed_base is None and seeded.seed_base == 7
        assert np.array_equal(seedless.mean_actions, seeded.mean_actions)


def test_zero_noise_builds_no_stream(frame_1d_5, monkeypatch):
    built = []

    class Counting(_NoiseStream):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(integrators, "_NoiseStream", Counting)
    cfg = SolverConfig(epsilon=0.5, tau_end=0.1, dt=5e-3, scheme="expeuler", samples=3)
    a0 = 0.4 * np.ones(5, dtype=complex)
    res = ensemble_full(a0, CUBIC, frame_1d_5, cfg, NoiseModel.zero(5), 4, seed_base=7)
    assert built == [] and res.seed_base == 7 and res.meta["steps"] == 20
    ensemble_full(a0, CUBIC, frame_1d_5, cfg, NoiseModel((0.3, 0.3, 0.3, 0.2, 0.2)),
                  4, seed_base=7)
    assert len(built) == 1


def test_noise_amplitude_count_must_match_modes(frame_1d_5):
    cfg = SolverConfig(epsilon=0.5, tau_end=0.1, dt=5e-3, scheme="expeuler")
    a0 = 0.4 * np.ones(5, dtype=complex)
    with pytest.raises(ConfigError, match="3 amplitudes, the frame has 5 modes"):
        ensemble_full(a0, CUBIC, frame_1d_5, cfg, NoiseModel((0.3, 0.3, 0.2)), 4, 1)
    with pytest.raises(ConfigError, match="3 amplitudes"):
        integrate_full(a0, CUBIC, frame_1d_5, cfg, noise=NoiseModel((0.3, 0.3, 0.2)),
                       seed=1)
    drift = ResonantDrift(frame_1d_5, CUBIC, build_resonance_table(frame_1d_5))
    with pytest.raises(ConfigError, match="3 amplitudes, the frame has 5 modes"):
        ensemble_effective(a0, drift, cfg, NoiseModel((0.3, 0.3, 0.2)), 4, 1)
    with pytest.raises(ConfigError, match="3 amplitudes, the frame has 5 modes"):
        integrate_effective(a0, drift, cfg, noise=NoiseModel((0.3, 0.3, 0.2)), seed=1)


def test_zero_noise_reduces_to_deterministic_bitwise(frame_1d_5):
    # epsilons that are not powers of two catch any second spelling of fast time
    a0 = sample_ball(frame_1d_5, 2.0, 1.0, np.random.default_rng(36))
    for eps in (0.5, 0.1, 0.05):
        cfg = SolverConfig(epsilon=eps, tau_end=0.5, dt=5e-3, scheme="expeuler",
                           samples=6)
        det = integrate_full(a0, CUBIC, frame_1d_5, cfg)
        sto = integrate_full(a0, CUBIC, frame_1d_5, cfg, noise=NoiseModel.zero(5),
                             seed=123)
        assert np.array_equal(det.states, sto.states), eps
        ens = ensemble_full(a0, CUBIC, frame_1d_5, cfg, NoiseModel.zero(5),
                            members=1, seed_base=123)
        assert np.array_equal(ens.mean_actions, det.actions()), eps


def test_ensemble_repeatability(frame_1d_5):
    a0 = 0.4 * np.ones(5, dtype=complex)
    noise = NoiseModel((0.3, 0.3, 0.3, 0.2, 0.2))
    cfg = SolverConfig(epsilon=0.5, tau_end=0.3, dt=5e-3, scheme="expeuler", samples=4)
    r1 = ensemble_full(a0, CUBIC, frame_1d_5, cfg, noise, 16, seed_base=900)
    r2 = ensemble_full(a0, CUBIC, frame_1d_5, cfg, noise, 16, seed_base=900)
    assert np.array_equal(r1.mean_actions, r2.mean_actions)
    r3 = ensemble_full(a0, CUBIC, frame_1d_5, cfg, noise, 16, seed_base=901)
    assert not np.array_equal(r1.mean_actions, r3.mean_actions)


def test_members_reproduce_batch(frame_1d_5):
    # Philox streams are keyed per member, so singles at seed_base + i agree
    # with the batch; only BLAS batching may perturb the last bits
    a0 = 0.4 * np.ones(5, dtype=complex)
    noise = NoiseModel((0.3, 0.3, 0.3, 0.2, 0.2))
    cfg = SolverConfig(epsilon=0.5, tau_end=0.3, dt=5e-3, scheme="expeuler", samples=4)
    batch = ensemble_full(a0, CUBIC, frame_1d_5, cfg, noise, 3, seed_base=40)
    singles = [integrate_full(a0, CUBIC, frame_1d_5, cfg, noise=noise, seed=40 + i)
               for i in range(3)]
    # three sample segments of 0.1, each 20 steps of h = dt = 5e-3
    assert batch.meta["steps"] == 60 and batch.meta["h_target"] == 5e-3
    assert all(t.meta["steps"] == 60 for t in singles)
    acts = np.stack([t.actions() for t in singles], axis=1)
    mean = np.sum(acts, axis=1) / 3
    assert np.allclose(mean, batch.mean_actions, atol=1e-12)


def _philox(key):
    return np.random.Generator(np.random.Philox(key=key))


def _philox_state(gen):
    s = gen.bit_generator.state
    return (s["state"]["counter"].tolist(), s["state"]["key"].tolist(),
            s["buffer"].tolist(), s["buffer_pos"], s["has_uint32"], s["uinteger"])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((1, 2, 3, 4, 7, None)), st.sampled_from((1, 3, 64)),
       st.integers(0, 2), st.integers(1, 63), st.integers(1, 6), st.integers(1, 30),
       st.integers(0, 2 ** 32 - 1), st.booleans())
def test_noise_draws_do_not_depend_on_refill_size(per_refill, block, full_blocks, rest,
                                                  modes, steps, seed, fork):
    # per_refill None: the whole run fits one refill; a refill of k steps is
    # drawn as halves of ceil(k / 2) and floor(k / 2) steps, or as one half of
    # one step.  A fill draws `block` members at a time; the member count is no
    # multiple of a block of more than one member, so the last block is a
    # partial one.  The producer draws where fork is available, the caller
    # where it is not, and both give the same normals
    members = full_blocks * block + (1 + rest % (block - 1) if block > 1 else rest)
    budget = 16 * members * modes * (steps if per_refill is None else per_refill)
    ref = np.stack([_philox(seed + i).standard_normal((steps, 2, modes))
                    for i in range(members)], axis=1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrators, "_NOISE_BYTES", budget)
        mp.setattr(integrators, "_NOISE_BLOCK", block)
        if not fork:
            mp.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        batch = _NoiseStream(seed, members, modes, steps)
        # members alone: the first two and the last, which sits in the partial block
        picked = sorted({0, min(1, members - 1), members - 1})
        alone = [_NoiseStream(seed + i, 1, modes, steps) for i in picked]
        try:
            for t in range(steps):
                z = batch.next_step()
                assert z.shape == (members, modes) and z.flags.c_contiguous
                assert np.array_equal(z.real, ref[t, :, 0])
                assert np.array_equal(z.imag, ref[t, :, 1])
                for i, single in zip(picked, alone):
                    assert np.array_equal(single.next_step()[0], z[i])
        finally:
            for stream in (batch, *alone):
                stream.close()
        if not fork:
            assert len(batch._scratch) == min(members, block)


def test_noise_stream_draws_only_the_steps_a_run_takes(frame_1d_5, monkeypatch):
    streams, producers = [], []

    class Recording(_NoiseStream):
        def __init__(self, *args):
            super().__init__(*args)
            streams.append(self)

        def _fork(self):
            super()._fork()
            if self._producer is not None:
                producers.append(self._producer[0])

    monkeypatch.setattr(integrators, "_NoiseStream", Recording)
    noise = NoiseModel((0.3, 0.3, 0.3, 0.2, 0.2))
    cfg = SolverConfig(epsilon=0.5, tau_end=0.3, dt=5e-3, scheme="expeuler", samples=4)
    # the default budget buffers the 60 steps as two halves of 30; a buffer
    # of 7 steps has halves of 4 and 3; one of 16 steps has halves of 8, so
    # the last fill draws only the 4 steps the run still takes
    budgets = ((integrators._NOISE_BYTES, 30), (7 * 16 * 3 * 5, 4), (16 * 16 * 3 * 5, 4))
    for fork in (True, False):
        if not fork:
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        for budget, last in budgets:
            monkeypatch.setattr(integrators, "_NOISE_BYTES", budget)
            run = ensemble_full(0.4 * np.ones(5, complex), CUBIC, frame_1d_5, cfg,
                                noise, 3, seed_base=40)
            stream = streams.pop()
            assert run.meta["steps"] == 60
            fills = [steps for _, steps in stream._fills]
            assert sum(fills) == 60 and fills[-1] == last
            if fork:
                # the producer drew every fill and ended by itself
                assert stream._gens is None and producers.pop().exitcode == 0
                continue
            assert producers == []
            for i, gen in enumerate(stream._gens):
                fresh = _philox(40 + i)
                fresh.standard_normal(60 * 2 * 5)
                assert _philox_state(gen) == _philox_state(fresh)


def test_noise_buffer_stays_within_budget(monkeypatch):
    # 256 steps a refill would buffer 256 * 2000 * 2 * 81 * 8 B = 633 MiB here;
    # tracemalloc does not see the shared mmap buffer, so its size is checked apart
    members, modes = 2000, 81
    step = 16 * members * modes
    stream = _NoiseStream(0, members, modes, 1000)
    tracemalloc.start()
    try:
        for _ in range(4):
            stream.next_step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        stream.close()
    assert peak <= integrators._NOISE_BYTES + step
    assert stream._buffer.nbytes <= integrators._NOISE_BYTES
    # where the caller draws, its scratch holds one block of members, whatever
    # the member count
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    stream = _NoiseStream(0, members, modes, 1000)
    stream.next_step()
    half = len(stream._halves[0])
    assert stream._scratch.shape == (integrators._NOISE_BLOCK, half, 2, modes)
    assert stream._scratch.nbytes <= 16 * integrators._NOISE_BLOCK * half * modes


def test_noise_prefetch_with_one_step_halves(monkeypatch):
    # halves of one step hand the buffer between caller and producer each
    # step; four streams keep four producers running beside the caller
    members, modes, steps, seeds = 8, 4, 40, (11, 22, 33, 44)
    monkeypatch.setattr(integrators, "_NOISE_BYTES", 2 * 16 * members * modes)
    refs = [np.stack([_philox(s + i).standard_normal((steps, 2, modes))
                      for i in range(members)], axis=1) for s in seeds]
    streams = [_NoiseStream(s, members, modes, steps) for s in seeds]
    try:
        for t in range(steps):
            for stream, ref in zip(streams, refs):
                z = stream.next_step()
                assert np.array_equal(z.real, ref[t, :, 0])
                assert np.array_equal(z.imag, ref[t, :, 1])
    finally:
        for stream in streams:
            stream.close()


def test_noise_stream_refills_in_the_caller_without_fork(monkeypatch):
    members, modes, steps = 3, 4, 25
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(integrators, "_NOISE_BYTES", 8 * 16 * members * modes)
    ref = np.stack([_philox(5 + i).standard_normal((steps, 2, modes))
                    for i in range(members)], axis=1)
    stream = _NoiseStream(5, members, modes, steps)
    for t in range(steps):
        z = stream.next_step()
        assert np.array_equal(z.real, ref[t, :, 0])
        assert np.array_equal(z.imag, ref[t, :, 1])
    assert stream._producer is None


class _Boom(RuntimeError):
    pass


def test_field_error_ends_the_noise_producer(frame_1d_5, monkeypatch):
    calls = []
    caller = os.getpid()

    class SlowProducer(_NoiseStream):
        def _draw(self, k):
            if os.getpid() != caller:
                time.sleep(0.2)  # the fill is still running when the field raises
            super()._draw(k)

    def failing(x, t, field):
        calls.append(t)
        if len(calls) == 10:
            raise _Boom
        return np.zeros_like(x)

    # 60 steps in halves of 30: the second half is being drawn at step 10
    monkeypatch.setattr(integrators, "_NoiseStream", SlowProducer)
    monkeypatch.setattr(integrators, "eval_Y", failing)
    cfg = SolverConfig(epsilon=0.5, tau_end=0.3, dt=5e-3, scheme="expeuler", samples=4)
    before = threading.active_count()
    with pytest.raises(_Boom):
        ensemble_full(0.4 * np.ones(5, complex), CUBIC, frame_1d_5, cfg,
                      NoiseModel((0.3,) * 5), 3, seed_base=40)
    assert len(calls) == 10
    assert threading.active_count() == before
    assert multiprocessing.active_children() == []


def test_noise_fill_error_reaches_the_caller(frame_1d_5, monkeypatch):
    caller = os.getpid()

    class FailingProducer(_NoiseStream):
        def _draw(self, k):
            if os.getpid() != caller and k == failing:
                raise _Boom("fill failed")
            super()._draw(k)

        def _receive(self, k):
            if k == failing:
                self._producer[0].join()  # the release, if any, goes to an ended producer
            super()._receive(k)

    # 60 steps in halves of 8: the first fill fails, or the third, which the
    # producer draws once the caller has released the first one's half; the
    # producer has then ended when the caller releases the second one's half
    monkeypatch.setattr(integrators, "_NoiseStream", FailingProducer)
    monkeypatch.setattr(integrators, "_NOISE_BYTES", 16 * 16 * 3 * 5)
    cfg = SolverConfig(epsilon=0.5, tau_end=0.3, dt=5e-3, scheme="expeuler", samples=4)
    before = threading.active_count()
    for failing in (0, 2):
        # the error is pickled across the pipe: its type and message arrive,
        # the object the producer raised cannot
        with pytest.raises(_Boom, match="^fill failed$"):
            ensemble_full(0.4 * np.ones(5, complex), CUBIC, frame_1d_5, cfg,
                          NoiseModel((0.3,) * 5), 3, seed_base=40)
        assert threading.active_count() == before
        assert multiprocessing.active_children() == []


def _ulps(x, y):
    """|x - y| in units of the last place of y."""
    return np.abs(x - y) / np.spacing(np.abs(y))


def test_guard_norm_matches_weighted_sum():
    rng = np.random.default_rng(4)
    for members, modes, s in ((1, 1, 1.0), (7, 5, 0.0), (300, 8, 1.0), (64, 81, 2.5)):
        lam = np.sort(rng.uniform(0.0, 40.0, modes))
        a = (rng.standard_normal((members, modes))
             + 1j * rng.standard_normal((members, modes))) * 10.0 ** rng.uniform(-3, 3)
        weights = integrators._guard_weights(lam, s)
        assert np.array_equal(weights[::2], weights[1::2])
        assert np.array_equal(weights[::2], np.abs(lam) ** s + 1.0)
        direct = np.sqrt(np.sum(weights[::2] * np.abs(a) ** 2, axis=-1))
        norm = integrators._guard_norm(a, weights)
        assert norm.shape == (members,)
        assert np.all(_ulps(norm, direct) <= 4), (members, modes)
        out, work = np.empty(members), np.empty((members, 2 * modes))
        assert integrators._guard_norm(a, weights, out=out, work=work) is out
        assert np.array_equal(out, norm)


def _zero_field(x, tau):
    return np.zeros_like(x)


def test_guard_excludes_non_finite_members():
    # the field kicks members 1-4 to NaN or an infinity at tau = 0.3, and
    # member 5 to a finite state whose norm overflows; it leaves the rest alone,
    # and with mu = 0 nothing else moves them
    lam = np.array([0.0, 1.0, 1.0, 4.0])
    kick = np.zeros((7, 4), dtype=complex)
    kick[1:6, 2] = (np.nan, np.inf, -np.inf, complex(0.0, np.inf), 1e201)

    def field(x, tau):
        return kick if abs(tau - 0.3) < 1e-9 else np.zeros_like(x)

    cfg = SolverConfig(epsilon=1.0, tau_end=0.5, dt=0.1, scheme="expeuler", samples=6)
    a0 = np.full((7, 4), 0.25 + 0.5j)
    with np.errstate(invalid="ignore"):
        run = integrators._drive(a0, field, lam, 0.0, cfg, cfg.dt)
    assert run["dead"].tolist() == [False] + [True] * 5 + [False]
    assert np.allclose(run["death_tau"][1:6], 0.4)
    assert not np.any(np.isfinite(run["death_norm"][1:6]))
    assert run["death_norm"][5] == np.inf
    assert np.all(np.isnan(run["states"][-1, 1:6]))
    assert np.array_equal(run["states"][-1, [0, 6]], a0[[0, 6]])
    # a norm that overflows from the start has an infinite bound, and is still over it
    a0[6, 0] = 1e200
    with np.errstate(over="ignore"):
        run = integrators._drive(a0, _zero_field, lam, 0.0, cfg, cfg.dt)
    assert run["bound"][6] == np.inf
    assert run["dead"].tolist() == [False] * 6 + [True]
    assert np.isclose(run["death_tau"][6], 0.1) and run["death_norm"][6] == np.inf


def test_guard_keeps_a_norm_at_the_bound():
    # one step of h = 1/2 with mu = 0 puts a = k1 / 2 exactly; lambda = 0 and
    # blow_up_norm 1 give weight 1, so the norm is |a|; from a0 = 0 the bound
    # is blow_up_factor * 1 = 4
    cfg = SolverConfig(epsilon=1.0, tau_end=0.5, dt=0.5, scheme="expeuler", samples=2,
                       blow_up_factor=4.0)
    above = np.nextafter(4.0, np.inf)
    k1 = np.array([[8.0], [2.0 * above], [-8.0]])
    run = integrators._drive(np.zeros((3, 1), complex), lambda x, tau: k1,
                             np.array([0.0]), 0.0, cfg, cfg.dt)
    assert np.array_equal(run["bound"], [4.0, 4.0, 4.0])
    assert run["dead"].tolist() == [False, True, False]
    assert run["death_norm"][1] == above
    assert run["states"][-1, 0, 0] == 4.0 and run["states"][-1, 2, 0] == -4.0


def test_guard_reads_real_and_strided_initial_states_alike():
    # the bound is taken from the driver's contiguous complex copy of a0, so a
    # real or a strided a0 gives what its contiguous complex copy gives
    lam = np.array([0.0, 1.0, 1.0, 4.0, 4.0])
    rng = np.random.default_rng(12)
    real = rng.uniform(-1.0, 1.0, (8, 5))
    real[[2, 5]] *= 50.0  # these two leave the ball

    def field(x, tau):
        return x * np.abs(x) ** 2

    cfg = SolverConfig(epsilon=1.0, tau_end=0.2, dt=1e-2, scheme="expeuler", samples=3,
                       blow_up_factor=1.5)
    wide = np.zeros((8, 10), complex)
    wide[:, ::2] = real
    runs = [integrators._drive(a0, field, lam, 0.3, cfg, cfg.dt)
            for a0 in (real.astype(complex), real, wide[:, ::2],
                       np.asfortranarray(real.astype(complex)))]
    first = runs[0]
    assert first["dead"].tolist() == [i in (2, 5) for i in range(8)]
    for run in runs[1:]:
        assert np.array_equal(run["bound"], first["bound"])
        assert np.array_equal(run["dead"], first["dead"])
        assert np.array_equal(run["states"], first["states"], equal_nan=True)


def test_ou_action_statistics(frame_1d_5):
    # gamma = 0: independent complex OU per mode; E I_k has a closed form
    mu, tau_end = 0.5, 1.0
    spec = diag_spec([0] * 5, mu=mu)
    b = np.array([0.5, 0.4, 0.4, 0.3, 0.3])
    v0 = 0.5 * np.ones(5, dtype=complex)
    cfg = SolverConfig(epsilon=1.0, tau_end=tau_end, dt=0.01,
                       scheme="expeuler", samples=3)
    res = ensemble_full(v0, spec, frame_1d_5, cfg, NoiseModel(tuple(b)),
                        members=2000, seed_base=7000)
    lam = frame_1d_5.eigenvalues
    with np.errstate(divide="ignore", invalid="ignore"):
        relax = np.where(lam > 0, (1 - np.exp(-2 * mu * lam * tau_end)) / (2 * mu * lam),
                         tau_end)
    expect = 0.5 * (np.exp(-2 * mu * lam * tau_end) * np.abs(v0) ** 2
                    + 2 * b ** 2 * relax)
    got = res.mean_actions[-1]
    assert np.allclose(got, expect, rtol=0.08)
    assert res.survivors == 2000 and res.excluded == []


def test_effective_ou_matches_diffusion_root(frame_1d_5):
    # same OU statistics through the averaged route: B = diag(b) here
    mu, tau_end = 0.5, 1.0
    spec = diag_spec([0] * 5, mu=mu)
    b = np.array([0.5, 0.4, 0.4, 0.3, 0.3])
    diffusion = build_diffusion(frame_1d_5, b)
    assert np.allclose(diffusion.root, np.diag(b), atol=1e-12)
    cfg = SolverConfig(epsilon=1.0, tau_end=tau_end, dt=0.01,
                       scheme="expeuler", samples=3)
    res = ensemble_effective(0.5 * np.ones(5, complex), ResonantDrift(frame_1d_5, spec), cfg,
                             NoiseModel(tuple(b)), members=2000, seed_base=8000)
    lam = frame_1d_5.eigenvalues
    with np.errstate(divide="ignore", invalid="ignore"):
        relax = np.where(lam > 0, (1 - np.exp(-2 * mu * lam * tau_end)) / (2 * mu * lam),
                         tau_end)
    expect = 0.5 * (np.exp(-2 * mu * lam * tau_end) * 0.25 + 2 * b ** 2 * relax)
    assert np.allclose(res.mean_actions[-1], expect, rtol=0.08)


def test_full_and_effective_singles_share_streams(frame_1d_5):
    # matched seeding: the driving normals coincide run for run; the full
    # system rotates each increment by the interaction phase, which is the
    # identity on the lambda = 0 mode, so that mode agrees pathwise
    spec = diag_spec([0] * 5, mu=0.5)
    b = np.array([0.5, 0.4, 0.4, 0.3, 0.3])
    cfg = SolverConfig(epsilon=1.0, tau_end=0.5, dt=0.01, scheme="expeuler", samples=3)
    full = integrate_full(0.5 * np.ones(5, complex), spec, frame_1d_5, cfg,
                          noise=NoiseModel(tuple(b)), seed=4)
    eff = integrate_effective(0.5 * np.ones(5, complex), ResonantDrift(frame_1d_5, spec),
                              cfg, noise=NoiseModel(tuple(b)), seed=4)
    assert np.array_equal(full.states[:, 0], eff.states[:, 0])
    assert full.noise_doc == eff.noise_doc == NoiseModel(tuple(b)).to_document()
    assert full.meta["steps"] == eff.meta["steps"] == 50
    assert not np.allclose(full.states[:, 1], eff.states[:, 1])


def test_ensemble_excludes_isolated_blowup(frame_1d_5):
    spec = diag_spec([2.0] * 5)
    initial = np.zeros((40, 5), dtype=complex)
    initial[7] = 1.0  # only this member grows; zeros are fixed points
    cfg = SolverConfig(epsilon=1.0, tau_end=3.0, dt=0.01, scheme="expeuler", samples=4)
    res = ensemble_full(initial, spec, frame_1d_5, cfg, NoiseModel.zero(5),
                        members=40, seed_base=1)
    assert res.excluded == [7]
    assert res.survivors == 39
    assert np.all(res.mean_actions == 0)


def test_ensemble_fails_above_exclusion_budget(frame_1d_5):
    spec = diag_spec([2.0] * 5)
    initial = np.zeros((40, 5), dtype=complex)
    initial[[3, 11, 29]] = 1.0  # 7.5% of members blow up
    cfg = SolverConfig(epsilon=1.0, tau_end=3.0, dt=0.01, scheme="expeuler", samples=4)
    with pytest.raises(EnsembleError):
        ensemble_full(initial, spec, frame_1d_5, cfg, NoiseModel.zero(5),
                      members=40, seed_base=1)


def test_ou_zero_mode_grows_linearly(frame_1d_5):
    # lambda = 0 mode: no damping, E I_0 = I_0(0) + b^2 tau exactly in h
    spec = diag_spec([0] * 5, mu=0.5)
    b = np.array([0.4, 0.0, 0.0, 0.0, 0.0])
    cfg = SolverConfig(epsilon=1.0, tau_end=2.0, dt=0.01, scheme="expeuler", samples=5)
    res = ensemble_full(np.zeros(5, complex), spec, frame_1d_5, cfg,
                        NoiseModel(tuple(b)), members=3000, seed_base=5150)
    expect = b[0] ** 2 * res.taus
    assert np.allclose(res.mean_actions[:, 0], expect, rtol=0.08, atol=1e-4)
    assert np.all(res.mean_actions[1:, 1:] == 0)
