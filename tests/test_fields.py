"""Projected nonlinear fields, drift routes, and scalar averaging."""

import dataclasses
import itertools
import tracemalloc

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from resonlab import fields
from resonlab.errors import ConfigError
from resonlab.fields import (
    Field,
    Observable,
    QuadratureDrift,
    ResonantDrift,
    action_observable,
    drift_route_residual,
    eval_P,
    eval_Y,
    monomial_observable,
    scalar_average,
    scalar_average_limit,
)
from resonlab.nonlinearity import (
    CUBIC_TERM,
    MonomialFactor,
    MonomialTerm,
    NonlinearitySpec,
    cubic_damping_terms,
    smoothed_power,
    smoothed_power_coefficients,
)
from resonlab.resonance import build_resonance_table, frequency_rule
from resonlab.spectral import Potential, TorusGeometry, build_frame, sample_ball, sobolev_norm

TAU = 2 * np.pi
CUBIC = NonlinearitySpec("cubic_focusing")


# -- lattice <-> real-basis coefficient maps (test-local oracle plumbing) --

def exp_to_trig(w, reps, vol):
    """Complex-exponential coefficients -> canonical real-basis coefficients."""
    s = np.sqrt(vol / 2.0)
    out = [w.get(tuple(0 for _ in reps[0]), 0.0) * np.sqrt(vol)]
    for m in reps:
        neg = tuple(-x for x in m)
        out.append((w.get(m, 0.0) + w.get(neg, 0.0)) * s)
        out.append(1j * (w.get(m, 0.0) - w.get(neg, 0.0)) * s)
    return np.array(out, dtype=complex)


def trig_to_exp(c, reps, vol):
    s = np.sqrt(vol / 2.0)
    w = {tuple(0 for _ in reps[0]): c[0] / np.sqrt(vol)}
    for i, m in enumerate(reps):
        cc, cs = c[1 + 2 * i], c[2 + 2 * i]
        w[m] = (cc - 1j * cs) / (2 * s)
        w[tuple(-x for x in m)] = (cc + 1j * cs) / (2 * s)
    return w


def cubic_convolution(w, window):
    """Direct sum over k1 - k2 + k3 = k of i w1 conj(w2) w3, window-truncated."""
    out = {}
    for k in window:
        acc = 0.0j
        for k1 in window:
            for k2 in window:
                k3 = tuple(a - c + b for a, c, b in zip(k, k1, k2))
                if k3 in w:
                    acc += 1j * w[k1] * np.conj(w[k2]) * w[k3]
        out[k] = acc
    return out


def test_cubic_matches_convolution_1d(frame_1d_9):
    rng = np.random.default_rng(42)
    window = [(m,) for m in range(-4, 5)]
    reps = [(m,) for m in range(1, 5)]
    w = {m: rng.standard_normal() + 1j * rng.standard_normal() for m in window}
    v = exp_to_trig(w, reps, TAU)  # psi = identity on this frame
    got = trig_to_exp(eval_P(v, Field(CUBIC, frame_1d_9)), reps, TAU)
    oracle = cubic_convolution(w, window)
    # plain exponential coefficients: the product rule is a bare convolution
    for m in window:
        assert got[m] == pytest.approx(oracle[m], abs=1e-11)


def test_cubic_matches_convolution_2d(frame_2d_9):
    rng = np.random.default_rng(43)
    window = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    reps = [(0, 1), (1, 0), (1, -1), (1, 1)]
    vol = TAU * TAU
    w = {m: rng.standard_normal() + 1j * rng.standard_normal() for m in window}
    v = exp_to_trig(w, reps, vol)
    got = trig_to_exp(eval_P(v, Field(CUBIC, frame_2d_9)), reps, vol)
    oracle = cubic_convolution(w, window)
    for m in window:
        assert got[m] == pytest.approx(oracle[m], abs=1e-11)


def test_derivative_fields_match_exponential_oracle(frame_1d_9, frame_2d_9):
    # d_j e^{im.x} = i m_j e^{im.x} on the 2 pi torus, and products of
    # exponential coefficients are bare convolutions
    cases = ((frame_1d_9, 0, [(m,) for m in range(-4, 5)], [(m,) for m in range(1, 5)]),
             (frame_2d_9, 1, [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)],
              [(0, 1), (1, 0), (1, -1), (1, 1)]))
    rng = np.random.default_rng(44)
    for frame, j, window, reps in cases:
        vol = TAU ** frame.dimension
        w = {m: rng.standard_normal() + 1j * rng.standard_normal() for m in window}
        dw = {m: 1j * m[j] * w[m] for m in window}
        product = {k: sum(w[k1] * dw.get(tuple(a - b for a, b in zip(k, k1)), 0.0)
                          for k1 in window)
                   for k in window}
        v = exp_to_trig(w, reps, vol)  # psi = identity on these frames
        d = MonomialFactor(derivative=j)
        for factors, oracle in (((d,), dw), ((MonomialFactor(), d), product)):
            spec = NonlinearitySpec("polynomial", mu=0.1,
                                    terms=(MonomialTerm(1.0, factors),))
            got = trig_to_exp(eval_P(v, Field(spec, frame)), reps, vol)
            for m in window:
                assert got[m] == pytest.approx(oracle[m], abs=1e-11)


def test_eval_p_batched_matches_loop(frame_1d_9):
    rng = np.random.default_rng(3)
    batch = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
    out = eval_P(batch, Field(CUBIC, frame_1d_9))
    for row_in, row_out in zip(batch, out):
        assert np.allclose(eval_P(row_in, Field(CUBIC, frame_1d_9)), row_out, atol=1e-14)


def _grid_major_reference(v, spec, frame, phase=None):
    # the grid-major kernel spelled out on fresh arrays: the batch transposed
    # to (M, rows) and counter-rotated, real GEMMs of its float view by the
    # (P, M) transposes, the pointwise product, one real GEMM by Z, then the
    # rotation and dx on the mode side
    Z, dx = frame.eigenfunction_values, frame.cell_volume
    flat = v.reshape(-1, frame.modes)
    batch = np.ascontiguousarray(flat.T if phase is None else flat.T * np.conj(phase)[:, None])
    u, *gradients = ((np.ascontiguousarray(table.T) @ batch.view(float)).view(complex)
                     for table in (Z, *frame.eigenfunction_gradients))
    w = spec.pointwise(u, gradients)
    if not frame.potential.is_zero:
        w = w + spec.mu * frame.potential_values[:, None] * u
    back = (Z @ w.view(float)).view(complex)
    scale = dx if phase is None else phase[:, None] * dx
    return (back * scale).T.reshape(v.shape)


def _complex_copy_reference(v, spec, frame):
    # the earlier transform: (rows x M) batches times complex copies of the tables
    Z, dx = frame.eigenfunction_values.astype(complex), frame.cell_volume
    u = v @ Z
    gradients = [v @ g.astype(complex) for g in frame.eigenfunction_gradients]
    w = spec.pointwise(u, gradients)
    if not frame.potential.is_zero:
        w = w + spec.mu * frame.potential_values * u
    return (w @ np.ascontiguousarray(Z.T)) * dx


def test_transforms_match_real_table_products_bitwise(frame_2d_9, frame_1d_9_cos):
    # a Field transforms grid-major on the frame's real tables, in work arrays
    # it owns; eval_P and eval_Y must be bit for bit the kernel spelled out on
    # fresh arrays, on an identity and on a dense Psi (V != 0 with mu > 0), for
    # single rows and for batches, cold and warm, for every kind.  The earlier
    # complex-copy transform stays within 1e-14 relative.
    rng = np.random.default_rng(45)
    for frame in (frame_2d_9, frame_1d_9_cos):
        d = MonomialFactor(derivative=frame.dimension - 1)
        terms = (MonomialTerm(0.5 - 1j, (MonomialFactor(), d)),
                 MonomialTerm(-0.3 + 0.2j, (MonomialFactor(conjugate=True), MonomialFactor(),
                                            MonomialFactor(conjugate=True, derivative=0))))
        gammas = tuple(rng.standard_normal(frame.modes) + 1j * rng.standard_normal(frame.modes))
        specs = (NonlinearitySpec("cubic_focusing", mu=0.2),
                 NonlinearitySpec("smoothed_monomial", mu=0.2, gr=0.7, gi=0.3, p=2.0, q=1.5),
                 NonlinearitySpec("diagonal", mu=0.2, gammas=gammas),
                 NonlinearitySpec("polynomial", mu=0.2, terms=terms))
        for spec in specs:
            field = Field(spec, frame)
            for shape in ((frame.modes,), (3, frame.modes), (frame.modes,)):
                v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                phase = np.exp(1j * rng.uniform(-20, 20) * frame.eigenvalues)
                if spec.kind == "diagonal":
                    assert np.array_equal(eval_P(v, field), v * np.array(gammas))
                    assert np.array_equal(eval_P(v, field, phase=phase), v * np.array(gammas))
                    continue
                got = eval_P(v, field)
                assert np.array_equal(got, _grid_major_reference(v, spec, frame))
                assert np.array_equal(eval_P(v, field, phase=phase),
                                      _grid_major_reference(v, spec, frame, phase))
                old = _complex_copy_reference(v, spec, frame)
                assert np.max(np.abs(got - old)) <= 1e-14 * np.max(np.abs(old))


@settings(max_examples=25, deadline=None)
@given(rows=st.integers(1, 64), t=st.floats(-50.0, 50.0), seed=st.integers(0, 2 ** 32 - 1))
def test_rotated_batch_matches_rows_and_conjugated_field(rows, t, seed):
    # eval_Y on a batch is row-by-row eval_Y and phase * P(conj(phase) * a), on
    # the acceptance 9 field -u + z|u|^2 u, whose -u is the diagonal part
    frame = build_frame(TorusGeometry((TAU,), 32), Potential.zero(), 8)
    field = Field(NonlinearitySpec("polynomial", mu=0.3,
                                   terms=cubic_damping_terms(-0.3 - 2.5j)), frame)
    a = random_rows(np.random.default_rng(seed), (rows, frame.modes))
    y = eval_Y(a, t, field)
    scale = np.max(np.abs(y))
    rowwise = np.array([eval_Y(row, t, field) for row in a])
    assert np.max(np.abs(y - rowwise)) <= 1e-14 * scale
    phase = np.exp(1j * t * frame.eigenvalues)
    direct = phase * eval_P(np.conj(phase) * a, field)
    assert np.max(np.abs(y - direct)) <= 1e-14 * scale


def test_linear_monomials_are_the_diagonal_part(frame_1d_9_cos, frame_2d_9):
    # a plain linear term c u beside a grid term goes to the diagonal part,
    # applied as c v in mode space; it must match the term evaluated on the grid
    rng = np.random.default_rng(47)
    linear = MonomialTerm(-0.7 + 0.4j, (MonomialFactor(),))
    cubic = cubic_damping_terms(-0.3 - 2.5j)[1]
    for frame in (frame_1d_9_cos, frame_2d_9):
        v = random_rows(rng, (5, frame.modes))
        Z, dx = frame.eigenfunction_values, frame.cell_volume
        on_grid = (((-0.7 + 0.4j) * (v @ Z)) @ Z.T) * dx
        both = Field(NonlinearitySpec("polynomial", terms=(linear, cubic)), frame)
        diagonal = v * both.diagonal
        assert np.max(np.abs(diagonal - on_grid)) <= 1e-14 * np.max(np.abs(on_grid))
        # the field is the two parts, and the grid part is the other term alone
        alone = Field(NonlinearitySpec("polynomial", terms=(cubic,)), frame)
        assert alone.diagonal is None
        assert np.array_equal(eval_P(v, both), eval_P(v, alone) + diagonal)


def test_warm_batched_field_allocates_less_than_one_grid_array():
    # the 1-D ensemble workload's frame, 1000 rows: one (rows x P) array is 512 KB
    frame = build_frame(TorusGeometry((TAU,), 32), Potential.zero(), 8)
    batch = random_rows(np.random.default_rng(38), (1000, 8))
    for spec in (NonlinearitySpec("polynomial", mu=0.3, terms=cubic_damping_terms(-0.3 - 2.5j)),
                 NonlinearitySpec("cubic_focusing", mu=0.5)):
        field = Field(spec, frame)
        cold = eval_P(batch, field)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            warm = eval_P(batch, field)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert np.array_equal(warm, cold) and not np.shares_memory(warm, cold)
        assert peak < 1000 * 32 * 16


def test_dealiasing_guard():
    frame = build_frame(TorusGeometry((TAU,), 16), Potential.zero(), 9)
    with pytest.raises(ConfigError):
        eval_P(np.ones(9, complex), Field(CUBIC, frame))


def test_mu_zero_drops_potential_term(frame_1d_9_cos):
    # with mu = 0 the projected field is the bare nonlinearity even when V != 0
    rng = np.random.default_rng(4)
    v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    Z = frame_1d_9_cos.eigenfunction_values
    u = v @ Z
    w = 1j * np.abs(u) ** 2 * u
    expect = (w @ Z.T) * frame_1d_9_cos.cell_volume
    assert np.allclose(eval_P(v, Field(CUBIC, frame_1d_9_cos)), expect, atol=1e-13)


# -- smoothed monomial ------------------------------------------------------

def test_smoothed_power_boundary_conditions():
    for p in (0.5, 1.0, 2.0, 3.5):
        a3, a4, a5 = smoothed_power_coefficients(p)
        q = np.polynomial.Polynomial([0, 0, 0, a3, a4, a5])
        assert q(1.0) == pytest.approx(1.0, abs=1e-12)
        assert q.deriv()(1.0) == pytest.approx(p, abs=1e-12)
        assert q.deriv(2)(1.0) == pytest.approx(p * (p - 1), abs=1e-12)
        assert q(0.0) == q.deriv()(0.0) == q.deriv(2)(0.0) == 0.0


def test_smoothed_power_c2_junction():
    h = 1e-5
    for p in (0.5, 2.0):
        for x0 in (1.0,):
            f = lambda x: smoothed_power(x, p)
            d2_left = (f(x0 - h) - 2 * f(x0 - 2 * h) + f(x0 - 3 * h)) / h ** 2
            d2_right = (f(x0 + 3 * h) - 2 * f(x0 + 2 * h) + f(x0 + h)) / h ** 2
            assert d2_left == pytest.approx(d2_right, rel=1e-2, abs=1e-2)
    assert smoothed_power(2.5, 2.0) == 2.5 ** 2
    assert smoothed_power(1.0, 3.0) == pytest.approx(1.0)


def test_smoothed_monomial_pointwise(frame_1d_9):
    spec = NonlinearitySpec("smoothed_monomial", mu=0.1, gr=0.7, gi=0.3, p=2.0, q=1.0)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    Z = frame_1d_9.eigenfunction_values
    u = v @ Z
    direct = (-0.7 * smoothed_power(np.abs(u) ** 2, 2.0)
              - 0.3j * smoothed_power(np.abs(u) ** 2, 1.0)) * u
    expect = (direct @ Z.T) * frame_1d_9.cell_volume
    assert np.allclose(eval_P(v, Field(spec, frame_1d_9)), expect, atol=1e-13)


def test_polynomial_pointwise_matches_term_loop_bitwise():
    # reference: every product array by array, accumulated factor first,
    # summed onto zeros; np.multiply keeps that operand order at every size,
    # where `acc * np.conj(base)` swaps it once numpy elides the temporary
    terms = (*cubic_damping_terms(-0.3 - 2.5j),
             MonomialTerm(0.5 - 1j, (MonomialFactor(conjugate=True),
                                     MonomialFactor(derivative=1))))
    spec = NonlinearitySpec("polynomial", mu=0.3, terms=terms)
    rng = np.random.default_rng(46)
    for shape in ((32,), (1000, 32), (7, 33)):
        u, gx, gy = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                     for _ in range(3))
        expect = np.zeros_like(u)
        for term in terms:
            acc = np.full(shape, term.coefficient, dtype=complex)
            for f in term.factors:
                base = u if f.derivative is None else (gx, gy)[f.derivative]
                acc = np.multiply(acc, np.conj(base) if f.conjugate else base)
            expect += acc
        assert np.array_equal(spec.pointwise(u, (gx, gy)), expect)


def test_cubic_is_its_one_term_polynomial_bitwise(frame_1d_9, frame_2d_9):
    cubic = NonlinearitySpec("cubic_focusing", mu=0.5)
    poly = NonlinearitySpec("polynomial", mu=0.5, terms=(CUBIC_TERM,))
    rng = np.random.default_rng(47)
    for shape in ((32,), (1000, 32), (7, 33)):
        u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert np.array_equal(cubic.pointwise(u, ()), poly.pointwise(u, ()))
    for frame in (frame_1d_9, frame_2d_9):
        v = rng.standard_normal((5, frame.modes)) + 1j * rng.standard_normal((5, frame.modes))
        assert np.array_equal(eval_P(v, Field(cubic, frame)), eval_P(v, Field(poly, frame)))


def test_derivative_axis_must_exist_on_the_frame(frame_1d_9, frame_2d_9):
    # axis 1 on a 1-D frame used to die with IndexError: in Field at the first
    # evaluation, in ResonantDrift at its construction; axis -1 on a 2-D frame
    # ran as axis 1
    def spec(axis):
        term = MonomialTerm(0.4j, (MonomialFactor(), MonomialFactor(conjugate=True),
                                   MonomialFactor(derivative=axis)))
        return NonlinearitySpec("polynomial", mu=0.5, terms=(term,))

    for frame, axis in ((frame_1d_9, 1), (frame_2d_9, -1)):
        table = build_resonance_table(frame)
        for build in (lambda: Field(spec(axis), frame),
                      lambda: ResonantDrift(frame, spec(axis), table)):
            with pytest.raises(ConfigError, match=f"derivative axis {axis} .* dimension "
                                                  f"{frame.dimension}"):
                build()
    v = sample_ball(frame_2d_9, 2.0, 1.0, np.random.default_rng(8))
    drift = ResonantDrift(frame_2d_9, spec(1), build_resonance_table(frame_2d_9))
    assert np.all(np.isfinite(eval_P(v, Field(spec(1), frame_2d_9))))
    assert np.all(np.isfinite(drift(v)))


def test_derivative_terms_require_positive_mu():
    dterm = MonomialTerm(1.0, (MonomialFactor(), MonomialFactor(derivative=0)))
    with pytest.raises(ConfigError):
        NonlinearitySpec("polynomial", mu=0.0, terms=(dterm,))
    NonlinearitySpec("polynomial", mu=0.1, terms=(dterm,))  # fine


def test_mixing_family_signs():
    with pytest.raises(ConfigError):
        cubic_damping_terms(0.1 - 0.2j)
    terms = cubic_damping_terms(-0.3 - 0.4j)
    assert terms[0].coefficient == -1.0
    assert terms[1].degree == 3


# -- diagonal kind and the rotated field -----------------------------------

def test_diagonal_bypasses_grid(frame_1d_5):
    gammas = (0.1j, -0.2, 0.3 + 0.1j, 0, 0.5j)
    spec = NonlinearitySpec("diagonal", mu=0.2, gammas=gammas)
    v = np.arange(1, 6).astype(complex)
    assert np.array_equal(eval_P(v, Field(spec, frame_1d_5)), v * np.array(gammas))
    # rotation conjugation cancels exactly on a diagonal field
    y = eval_Y(v, 17.3, Field(spec, frame_1d_5))
    assert np.allclose(y, v * np.array(gammas), atol=1e-13)


def test_eval_y_is_conjugated_field(frame_1d_9):
    rng = np.random.default_rng(6)
    a = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    t = 0.37
    phase = np.exp(1j * t * frame_1d_9.eigenvalues)
    field = Field(CUBIC, frame_1d_9)
    direct = phase * eval_P(np.conj(phase) * a, field)
    assert np.allclose(eval_Y(a, t, field), direct, atol=1e-14)
    assert np.allclose(eval_Y(a, 0.0, field), eval_P(a, field), atol=1e-14)


# -- drift routes ----------------------------------------------------------

def test_drift_routes_agree_on_resonant_torus(frame_1d_9):
    table = build_resonance_table(frame_1d_9)
    rng = np.random.default_rng(11)
    v = sample_ball(frame_1d_9, 2.0, 1.5, rng)
    window = table.suggested_window()  # 50 full common periods: average is exact
    report = drift_route_residual(v, ResonantDrift(frame_1d_9, CUBIC, table),
                                  QuadratureDrift(frame_1d_9, CUBIC, window), s=1.6)
    assert report["residual"] < 1e-8


def test_drift_residual_decays_off_period():
    frame = build_frame(TorusGeometry((TAU,), 32), Potential.zero(), 9)
    table = build_resonance_table(frame)
    rng = np.random.default_rng(12)
    v = sample_ball(frame, 2.0, 1.5, rng)
    base = 130.0  # incommensurate with the 2 pi period lattice
    analytic = ResonantDrift(frame, CUBIC, table)
    r1, r2 = (drift_route_residual(v, analytic, QuadratureDrift(frame, CUBIC, window),
                                   s=1.6)["residual"] for window in (base, 2 * base))
    assert r2 < r1


def test_drift_commutes_with_rotation(frame_1d_9):
    table = build_resonance_table(frame_1d_9)
    drift = ResonantDrift(frame_1d_9, CUBIC, table)
    rng = np.random.default_rng(13)
    for _ in range(5):
        v = sample_ball(frame_1d_9, 2.0, 1.0, rng)
        t = rng.uniform(-5, 5)
        theta = t * frame_1d_9.eigenvalues
        gap = drift(v * np.exp(1j * theta)) - drift(v) * np.exp(1j * theta)
        assert sobolev_norm(gap, 1.6, frame_1d_9.eigenvalues) < 1e-10


def test_hamiltonian_drift_conserves_l2(frame_1d_9):
    table = build_resonance_table(frame_1d_9)
    drift = ResonantDrift(frame_1d_9, CUBIC, table)
    rng = np.random.default_rng(14)
    v = sample_ball(frame_1d_9, 2.0, 1.8, rng)
    assert abs(np.real(np.vdot(v, drift(v)))) < 1e-12


def test_diagonal_drift_is_field_itself(frame_1d_5):
    spec = NonlinearitySpec("diagonal", gammas=(1j, -0.5, 0.25j, 0.1, 0))
    drift = ResonantDrift(frame_1d_5, spec, table=None)
    v = np.array([1, 2, 3, 4, 5], dtype=complex)
    assert np.array_equal(drift(v), eval_P(v, Field(spec, frame_1d_5)))


def test_derivative_polynomial_routes_agree(frame_1d_9):
    term = MonomialTerm(0.4 - 0.1j, (MonomialFactor(), MonomialFactor(derivative=0)))
    spec = NonlinearitySpec("polynomial", mu=0.3, terms=(term,))
    table = build_resonance_table(frame_1d_9, patterns=((1, 1),))
    v = sample_ball(frame_1d_9, 2.0, 1.0, np.random.default_rng(15))
    window = table.suggested_window()
    report = drift_route_residual(v, ResonantDrift(frame_1d_9, spec, table),
                                  QuadratureDrift(frame_1d_9, spec, window), s=1.0)
    assert report["residual"] < 1e-8


def test_potential_cluster_term_converges(frame_1d_9_cos):
    # with V != 0 and mu > 0 the averaged linear part is the cluster-blocked
    # potential matrix; the quadrature route must approach the analytic one
    spec = NonlinearitySpec("cubic_focusing", mu=0.5)
    table = build_resonance_table(frame_1d_9_cos)
    v = sample_ball(frame_1d_9_cos, 2.0, 1.0, np.random.default_rng(16))
    analytic = ResonantDrift(frame_1d_9_cos, spec, table)
    r1, r2 = (drift_route_residual(v, analytic, QuadratureDrift(frame_1d_9_cos, spec, window),
                                   s=0.0)["residual"] for window in (200.0, 800.0))
    assert r2 < 0.5 * r1


def per_tuple_drift_groups(frame, spec, table):
    """Kept (targets, slots, weights) of each term, one grid sum per tuple.

    The weight of tuple (i, j, ..., l) at target t is dx * sum_x of the slot
    values' product times Z_t, formed row by row with no shared prefixes.
    """
    Z, dx = frame.eigenfunction_values, frame.cell_volume
    groups = []
    for term in spec.polynomial_terms():
        slot_values = [Z if f.derivative is None else frame.eigenfunction_gradients[f.derivative]
                       for f in term.factors]
        targets, rows, weights = [], [], []
        for t in range(frame.modes):
            idx = np.asarray(table.resonances[term.pattern][t],
                             dtype=np.intp).reshape(-1, term.degree)
            prod = slot_values[0][idx[:, 0]]
            for j in range(1, term.degree):
                prod = prod * slot_values[j][idx[:, j]]
            w = dx * (prod @ Z[t])
            keep = np.abs(w) > 1e-14
            targets.append(np.full(int(keep.sum()), t))
            rows.append(idx[keep])
            weights.append(w[keep])
        targets = np.concatenate(targets)
        if targets.size:
            groups.append((targets, np.concatenate(rows).T, np.concatenate(weights)))
    return groups


def merge_swapped(term, targets, slots, weights):
    """Sum per-tuple (targets, slots, weights) over rows that a swap of
    factors with equal `conjugate` and `derivative` maps onto each other.

    Each merged row lists every such class of slots in ascending order; rows
    come sorted by (target, row), the drift's group order.
    """
    kinds = [(f.conjugate, f.derivative) for f in term.factors]
    merged = {}
    for target, row, weight in zip(targets.tolist(), slots.T.tolist(), weights):
        canonical = list(row)
        for kind in set(kinds):
            where = [j for j, other in enumerate(kinds) if other == kind]
            for j, index in zip(where, sorted(row[j] for j in where)):
                canonical[j] = index
        key = (target, *canonical)
        merged[key] = merged.get(key, 0.0) + weight
    keys = sorted(merged)
    return (np.array([k[0] for k in keys]), np.array([k[1:] for k in keys]).T,
            np.array([merged[k] for k in keys]))


def drift_test_terms(frame):
    """A degree-1 term, a cubic, a cubic-pattern term with two derivative
    factors on the last axis and, in 2-D, one with them on different axes."""
    d = MonomialFactor(derivative=frame.dimension - 1)
    terms = (*cubic_damping_terms(-0.3 - 0.9j),
             MonomialTerm(0.4 - 0.1j, (d, MonomialFactor(conjugate=True), d)))
    if frame.dimension == 2:
        terms += (MonomialTerm(0.2 + 0.3j, (MonomialFactor(derivative=0),
                                            MonomialFactor(conjugate=True), d)),)
    return terms


def test_drift_weights_match_per_tuple_oracle(frame_1d_9_cos, frame_2d_9):
    # a degree-1 term, a cubic and derivative factors, on a dense Psi (V != 0,
    # which also adds the mu V u block last) and on a 2-D V = 0 frame; the
    # per-tuple oracle is merged over swapped rows here, in the test
    for frame in (frame_1d_9_cos, frame_2d_9):
        spec = NonlinearitySpec("polynomial", mu=0.3, terms=drift_test_terms(frame))
        table = build_resonance_table(frame, patterns=spec.patterns())
        drift = ResonantDrift(frame, spec, table)
        oracle = per_tuple_drift_groups(frame, spec, table)
        assert len(oracle) == len(spec.terms)
        assert len(drift.groups) == len(oracle) + (0 if frame.potential.is_zero else 1)
        for term, group, per_tuple in zip(spec.terms, drift.groups, oracle):
            targets, slots, weights = merge_swapped(term, *per_tuple)
            assert np.array_equal(group.targets, targets)
            assert np.array_equal(group.slots, slots)
            assert np.allclose(group.coeffs / term.coefficient, weights, rtol=0.0, atol=1e-14)


def per_tuple_R(v, groups):
    """sum over (conjugate, targets, slots, coeffs) groups of each row's own monomial."""
    out = np.zeros(v.shape, dtype=complex)
    for conjugate, targets, slots, coeffs in groups:
        prod = coeffs * np.ones(v.shape[:-1] + (1,))
        for conj, index in zip(conjugate, slots):
            prod = prod * (np.conj(v[..., index]) if conj else v[..., index])
        for t in range(v.shape[-1]):
            out[..., t] += prod[..., targets == t].sum(axis=-1)
    return out


def oracle_R(frame, spec, table, drift):
    """Per-tuple R of the table's rows, plus the drift's own mu V u block."""
    groups = [([f.conjugate for f in term.factors], targets, slots, term.coefficient * weights)
              for term, (targets, slots, weights)
              in zip(spec.polynomial_terms(), per_tuple_drift_groups(frame, spec, table))]
    if not frame.potential.is_zero:
        block = drift.groups[-1]
        groups.append((block.conjugate, block.targets, block.slots, block.coeffs))
    return lambda v: per_tuple_R(v, groups)


def assert_R_matches(drift, oracle, frame, seed):
    rng = np.random.default_rng(seed)
    row = sample_ball(frame, 2.0, 1.0, rng)
    batch = np.array([sample_ball(frame, 2.0, 1.0, rng) for _ in range(6)]).reshape(2, 3, -1)
    for v in (row, batch):
        got, want = drift(v), oracle(v)
        assert got.shape == v.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_merged_drift_matches_per_tuple_sum(frame_1d_9_cos, frame_2d_9):
    for frame in (frame_1d_9_cos, frame_2d_9):
        spec = NonlinearitySpec("polynomial", mu=0.3, terms=drift_test_terms(frame))
        table = build_resonance_table(frame, patterns=spec.patterns())
        drift = ResonantDrift(frame, spec, table)
        assert_R_matches(drift, oracle_R(frame, spec, table, drift), frame, seed=31)
        kept = [targets.size for targets, _, _ in per_tuple_drift_groups(frame, spec, table)]
        sizes = [group.coeffs.size for group in drift.groups]
        assert sizes[1] < kept[1]  # the two plain factors of the cubic merge
        if frame.dimension == 2:
            assert sizes[3] == kept[3]  # d/dx and d/dy factors are not interchangeable


def test_one_orientation_table_sums_exactly_its_rows(frame_1d_9_cos, frame_2d_9):
    # keep one orientation of each swapped pair, (a, b, c) or (c, b, a) by the
    # parity of a + c, so half the kept rows are not in merged (sorted) form
    spec = NonlinearitySpec("cubic_focusing", mu=0.5)
    for frame in (frame_1d_9_cos, frame_2d_9):
        table = build_resonance_table(frame)
        half = {pattern: {t: rows[(rows[:, 0] <= rows[:, 2]) == ((rows[:, 0] + rows[:, 2]) % 2 == 0)]
                          for t, rows in per_target.items()}
                for pattern, per_target in table.resonances.items()}
        half_table = dataclasses.replace(table, resonances=half)
        drift = ResonantDrift(frame, spec, half_table)
        (targets, _, _), = per_tuple_drift_groups(frame, spec, half_table)
        assert drift.groups[0].coeffs.size == targets.size
        assert_R_matches(drift, oracle_R(frame, spec, half_table, drift), frame, seed=32)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(("2d_9", "ensemble_1d", "1d_9_cos")), st.integers(1, 24), st.data())
def test_chunked_drift_matches_one_chunk(frame_2d_9, frame_1d_9_cos, case, batch, data):
    # the 2-D M=9 drift, the ensemble_1d drift and a V != 0 drift (with its
    # mu V cluster group) give the same bits whatever the rows per pass
    spec = NonlinearitySpec("cubic_focusing", mu=0.5)
    build = {"2d_9": lambda: ResonantDrift(frame_2d_9, spec, build_resonance_table(frame_2d_9)),
             "ensemble_1d": ensemble_1d_drift,
             "1d_9_cos": lambda: ResonantDrift(frame_1d_9_cos, spec,
                                               build_resonance_table(frame_1d_9_cos))}[case]
    drift = build()
    rows = data.draw(st.integers(1, batch))
    assert drift._chunk_rows >= batch
    states = 0.5 * random_rows(np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))),
                               (batch, drift.modes))
    whole = drift(states)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields, "_BATCH_BYTES", 16 * rows * drift._width)
        chunked_drift = build()
    assert chunked_drift._chunk_rows == rows
    assert np.array_equal(chunked_drift(states), whole)


def ensemble_1d_drift():
    """The drift of the 1-D ensemble workload: 1-D, grid 32, M=8, damped cubic."""
    frame = build_frame(TorusGeometry((TAU,), 32), Potential.zero(), 8)
    spec = NonlinearitySpec("polynomial", mu=0.3, terms=cubic_damping_terms(-0.3 - 2.5j))
    return ResonantDrift(frame, spec, build_resonance_table(frame, patterns=((1,), (1, -1, 1))))


def random_rows(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_warm_batched_drift_allocates_less_than_one_work_array():
    drift = ensemble_1d_drift()
    width = max(group.coeffs.size for group in drift.groups)
    assert width == 70
    batch = random_rows(np.random.default_rng(35), (1000, 8))
    drift(batch)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        drift(batch)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1000 * width * 16


def test_drift_calls_do_not_alias():
    drift = ensemble_1d_drift()
    rng = np.random.default_rng(36)
    v1, v2 = random_rows(rng, (50, 8)), random_rows(rng, (50, 8))
    r1 = drift(v1)
    kept = r1.copy()
    r2 = drift(v2)
    assert np.array_equal(r1, kept)
    assert not np.shares_memory(r1, r2)


def test_drift_input_layouts_match_row_by_row(frame_2d_9, monkeypatch):
    spec = NonlinearitySpec("cubic_focusing", mu=0.5)
    table = build_resonance_table(frame_2d_9)
    rng = np.random.default_rng(37)
    batch = np.array([sample_ball(frame_2d_9, 2.0, 1.0, rng) for _ in range(6)])
    read_only = batch.copy()
    read_only.flags.writeable = False
    inputs = (np.asfortranarray(batch), read_only, batch.reshape(2, 3, -1), batch[4])
    whole = ResonantDrift(frame_2d_9, spec, table)
    monkeypatch.setattr(fields, "_BATCH_BYTES", 16 * 4 * whole.groups[0].coeffs.size)
    chunked = ResonantDrift(frame_2d_9, spec, table)
    assert whole._chunk_rows >= len(batch) > chunked._chunk_rows == 4
    for drift in (whole, chunked):
        for v in inputs:
            got = drift(v)
            flat = v.reshape(-1, v.shape[-1])
            want = np.stack([drift(row) for row in flat]).reshape(v.shape)
            assert got.shape == v.shape
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_batched_drift_memory_is_bounded():
    # 1000 rows at 2-D M=49: one unchunked product array alone would be 190 MB
    frame = build_frame(TorusGeometry((TAU, TAU), 32), Potential.zero(), 49)
    drift = ResonantDrift(frame, NonlinearitySpec("cubic_focusing", mu=0.5),
                          build_resonance_table(frame))
    rng = np.random.default_rng(34)
    batch = rng.standard_normal((1000, 49)) + 1j * rng.standard_normal((1000, 49))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = drift(batch)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert out.shape == batch.shape
    assert peak < 64 * 2**20


# -- momentum mask ----------------------------------------------------------

def keep_every_row(keys, rows, target):
    return np.ones(len(rows), dtype=bool)


def assert_groups_bitwise_equal(drift, other):
    assert len(drift.groups) == len(other.groups)
    for group, twin in zip(drift.groups, other.groups):
        for name in ("slots", "targets", "coeffs"):
            a, b = getattr(group, name), getattr(twin, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def momentum_cases(frame_1d_9, frame_2d_9, frame_2d_25):
    frame_2d_49 = build_frame(TorusGeometry((TAU, TAU), 32), Potential.zero(), 49)
    return [(frame, NonlinearitySpec("polynomial", mu=0.3, terms=drift_test_terms(frame)))
            for frame in (frame_1d_9, frame_2d_9)] + [
        (frame, NonlinearitySpec("cubic_focusing", mu=0.5)) for frame in (frame_2d_25, frame_2d_49)]


def test_momentum_mask_drops_only_vanishing_rows(frame_1d_9, frame_2d_9, frame_2d_25):
    # each row the mask drops, merged as the drift merges rows, weighs under
    # the drift's 1e-14 cut: derivative factors (1-D and 2-D) and plain cubics
    dropped_2d = 0
    for frame, spec in momentum_cases(frame_1d_9, frame_2d_9, frame_2d_25):
        table = build_resonance_table(frame, patterns=spec.patterns())
        Z, dx = frame.eigenfunction_values, frame.cell_volume
        for term in spec.polynomial_terms():
            keys = fields._wave_keys(frame, term.degree)
            assert keys is not None
            dropped = {t: rows[~fields._momentum_consistent(keys, rows, t)]
                       for t, rows in table.resonances[term.pattern].items()}
            targets, rows, _ = fields._merged_rows(dropped, term.factors, frame.modes)
            slot_values = [Z if f.derivative is None else frame.eigenfunction_gradients[f.derivative]
                           for f in term.factors]
            for t in range(frame.modes):
                weights = dx * fields._grid_integrals(slot_values, rows[targets == t], Z[t])
                assert np.all(np.abs(weights) < 1e-14)
            dropped_2d += (frame.dimension == 2) * targets.size
    assert dropped_2d > 0


def test_momentum_mask_keeps_the_drift_bitwise(frame_1d_9, frame_2d_9, frame_2d_25, monkeypatch):
    for frame, spec in momentum_cases(frame_1d_9, frame_2d_9, frame_2d_25):
        table = build_resonance_table(frame, patterns=spec.patterns())
        masked = ResonantDrift(frame, spec, table)
        with monkeypatch.context() as patched:
            patched.setattr(fields, "_momentum_consistent", keep_every_row)
            unmasked = ResonantDrift(frame, spec, table)
        assert_groups_bitwise_equal(masked, unmasked)


def test_momentum_mask_needs_single_trig_eigenfunctions(frame_1d_9_cos, monkeypatch):
    # V != 0 mixes trig functions in each eigenfunction: no wave vector, no mask
    assert fields._wave_keys(frame_1d_9_cos, 3) is None

    def refuse(keys, rows, target):
        raise AssertionError("momentum mask applied to a mixing frame")

    monkeypatch.setattr(fields, "_momentum_consistent", refuse)
    spec = NonlinearitySpec("polynomial", mu=0.3, terms=drift_test_terms(frame_1d_9_cos))
    ResonantDrift(frame_1d_9_cos, spec, build_resonance_table(frame_1d_9_cos, spec.patterns()))


def test_target_masked_to_no_rows_matches_an_empty_target(frame_2d_25):
    # target 5 keeps only its momentum-inconsistent rows: the mask empties it,
    # and the drift is the one of a table listing no rows for it at all
    spec = NonlinearitySpec("cubic_focusing", mu=0.5)
    table = build_resonance_table(frame_2d_25)
    per_target = table.resonances[(1, -1, 1)]
    keys = fields._wave_keys(frame_2d_25, 3)
    target = 5
    rows = per_target[target]
    inconsistent = rows[~fields._momentum_consistent(keys, rows, target)]
    assert len(inconsistent) > 0
    planted, empty = ({**per_target, target: kept} for kept in (inconsistent, rows[:0]))
    drift, twin = (ResonantDrift(frame_2d_25, spec,
                                 dataclasses.replace(table, resonances={(1, -1, 1): res}))
                   for res in (planted, empty))
    assert target not in drift.groups[0].targets
    assert_groups_bitwise_equal(drift, twin)
    v = sample_ball(frame_2d_25, 2.0, 1.0, np.random.default_rng(34))
    out = drift(v)
    assert out[target] == 0 and np.array_equal(out, twin(v))


def test_drift_refuses_table_of_another_potential(frame_1d_9, frame_1d_9_cos):
    # same mode count, other eigenvalues: the resonances would be wrong
    flat_table = build_resonance_table(frame_1d_9)
    with pytest.raises(ConfigError):
        ResonantDrift(frame_1d_9_cos, CUBIC, flat_table)


def test_drift_refuses_table_of_another_mode_count(frame_1d_9):
    frame_11 = build_frame(TorusGeometry((TAU,), 32), Potential.zero(), 11)
    with pytest.raises(ConfigError, match="11 modes"):
        ResonantDrift(frame_11, CUBIC, build_resonance_table(frame_1d_9))


def test_analytic_route_needs_polynomial(frame_1d_9):
    spec = NonlinearitySpec("smoothed_monomial", gr=1.0, p=2.0)
    with pytest.raises(ConfigError):
        ResonantDrift(frame_1d_9, spec, build_resonance_table(frame_1d_9))


def test_quadrature_drift_batch(frame_1d_5):
    table = build_resonance_table(frame_1d_5)
    drift = QuadratureDrift(frame_1d_5, CUBIC, 40.0, 801)
    rng = np.random.default_rng(17)
    batch = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    out = drift(batch)
    for row_in, row_out in zip(batch, out):
        assert np.allclose(drift(row_in), row_out, atol=1e-14)
    del table
    # scalar averages take the same batched phase average
    lam = frame_1d_5.eigenvalues
    obs = Observable(((1.0, ((1, 1),), ((3, 1),)), (0.5, ((2, 2),), ())))
    for target in (None, 1):
        averages = scalar_average(obs, lam, batch, 40.0, 801, target=target)
        assert averages.shape == (3,)
        for row_in, average in zip(batch, averages):
            single = scalar_average(obs, lam, row_in, 40.0, 801, target=target)
            assert isinstance(single, complex)
            assert abs(single - average) <= 1e-14


@pytest.mark.parametrize("dimension, modes, grid",
                         [(1, 9, 32), (1, 33, 128), (2, 49, 32), (2, 81, 32)])
def test_resonant_drift_matches_one_period_quadrature(dimension, modes, grid):
    # On a V = 0 torus of side 2 pi the frequencies are integers, so the rotated
    # cubic field is a trigonometric polynomial in t of period 2 pi and degree
    # at most 2 max lambda.  The trapezoid rule over one period is then exact
    # (Trefethen & Weideman, SIAM Review 56, 2014): an oracle that reads no
    # resonance table, so enumeration, selection and weights are checked together.
    frame = build_frame(TorusGeometry((TAU,) * dimension, grid), Potential.zero(), modes)
    rng = np.random.default_rng(modes)
    batch = np.stack([sample_ball(frame, 2.0, 1.0, rng) for _ in range(4)])
    exact = ResonantDrift(frame, CUBIC, build_resonance_table(frame))(batch)
    nodes = 4 * int(frequency_rule(frame, mode="exact")[0].max()) + 2
    oracle = QuadratureDrift(frame, CUBIC, TAU, nodes)(batch)
    assert np.linalg.norm(exact - oracle) <= 1e-12 * np.linalg.norm(exact)


def test_quadrature_refuses_nodes_over_budget(frame_1d_5):
    with pytest.raises(ConfigError, match="1000001 quadrature nodes"):
        QuadratureDrift(frame_1d_5, CUBIC, 40.0, 10 ** 6 + 1)
    with pytest.raises(ConfigError, match="1000001 quadrature nodes"):
        scalar_average(action_observable(0), frame_1d_5.eigenvalues, np.ones(5), 40.0,
                       10 ** 6 + 1)


# -- scalar averaging ------------------------------------------------------

def test_linear_observable_average(frame_1d_5):
    lam = frame_1d_5.eigenvalues
    coeffs = np.array([0.3, 1.0, -2.0, 0.7, 0.2], dtype=complex)
    obs = Observable(tuple((c, ((k, 1),), ()) for k, c in enumerate(coeffs)))
    limit = scalar_average_limit(obs, frame_1d_5, target=1)
    rng = np.random.default_rng(18)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    # the limit keeps exactly the equal-frequency modes of the target
    assert limit(v) == pytest.approx(coeffs[1] * v[1] + coeffs[2] * v[2])
    # at whole common periods the finite average is already exact
    got = scalar_average(obs, lam, v, 50 * TAU, 20001, target=1)
    assert got == pytest.approx(complex(limit(v)), abs=1e-10)


def test_scalar_average_decay_off_resonance(frame_1d_5):
    lam = frame_1d_5.eigenvalues
    obs = monomial_observable(1.0, v=[3])  # lambda = 4 against target lambda = 1
    v = np.ones(5, dtype=complex)
    vals = [abs(scalar_average(obs, lam, v, T, 4001, target=1)) for T in (10.0, 40.0, 160.0)]
    assert vals[2] < vals[1] < vals[0]
    assert vals[2] < 2.0 / (3.0 * 160.0) + 1e-6  # 2 / (T |gap|)


def test_bracket_average_commutes_with_rotation(frame_1d_5):
    lam = frame_1d_5.eigenvalues
    obs = Observable(((1.0, ((1, 1),), ((2, 1),)), (0.5, ((3, 1),), ((3, 1),))))
    rng = np.random.default_rng(19)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    t0 = 0.77
    shifted = v * np.exp(1j * t0 * lam)
    a1 = scalar_average(obs, lam, shifted, 50 * TAU, 20001)
    a2 = scalar_average(obs, lam, v, 50 * TAU, 20001)
    # the resonant part is rotation invariant: v_1 conj(v_2) has equal frequencies
    assert a1 == pytest.approx(a2, abs=1e-10)


def test_action_observable(frame_1d_5):
    v = np.array([1 + 1j, 2.0, 0, 3j, 1], dtype=complex)
    assert action_observable(0)(v) == pytest.approx(1.0)
    assert action_observable(3)(v) == pytest.approx(4.5)


def test_resonant_quartic_average_matches_exact_limit(frame_1d_5):
    lam = frame_1d_5.eigenvalues
    # v_1 conj(v_2) v_3 conj(v_4): frequencies 1 - 1 + 4 - 4 = 0, resonant
    obs = monomial_observable(1.0, v=[1, 3], vbar=[2, 4])
    v = np.random.default_rng(20).standard_normal(5) + 1j * np.random.default_rng(21).standard_normal(5)
    got = scalar_average(obs, lam, v, 50 * TAU, 20001)
    assert got == pytest.approx(complex(obs(v)), abs=1e-10)
