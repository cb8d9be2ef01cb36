"""Spectral frame construction, grid tables, norms, and serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resonlab import spectral
from resonlab.errors import ConfigError, ValidationError
from resonlab.fields import Field, eval_P
from resonlab.integrators import Trajectory
from resonlab.nonlinearity import MonomialFactor, MonomialTerm, NonlinearitySpec
from resonlab.spectral import (
    Potential,
    SpectralFrame,
    TorusGeometry,
    action_distance,
    build_frame,
    sample_ball,
    sobolev_norm,
    trig_basis,
)

TAU = 2 * np.pi


# -- independent oracles ---------------------------------------------------

def dense_oracle_1d(radius, potential_coeffs):
    """Eigenvalues of -d2/dx2 + V on span{e^{imx}, |m| <= radius}, L = 2 pi.

    Assembled in the complex exponential basis, independently of the package's
    real-basis quadrature route.
    """
    ms = np.arange(-radius, radius + 1)
    H = np.diag(ms.astype(float) ** 2).astype(complex)
    for i, mi in enumerate(ms):
        for j, mj in enumerate(ms):
            H[i, j] += potential_coeffs.get(mi - mj, 0.0)
    return np.linalg.eigvalsh(H)


def lattice_spectrum_2d(radius):
    """Sorted |k|^2 over the window |k_i| <= radius (square torus, V = 0)."""
    vals = []
    for k1 in range(-radius, radius + 1):
        for k2 in range(-radius, radius + 1):
            vals.append(k1 * k1 + k2 * k2)
    return np.sort(np.array(vals, dtype=float))


def quadrature_inner_product(f, g, geometry):
    """Trapezoid (= rectangle, periodic) inner product on the frame grid."""
    return np.sum(f * np.conj(g)) * geometry.cell_volume


# -- construction ----------------------------------------------------------

def test_flat_1d_spectrum_and_identity_frame(frame_1d_5):
    assert np.allclose(frame_1d_5.eigenvalues, [0, 1, 1, 4, 4], atol=1e-12)
    # deterministic degeneracy handling reproduces the trig basis itself
    assert np.allclose(frame_1d_5.eigenvectors, np.eye(5), atol=1e-12)


def test_flat_2d_spectrum(frame_2d_9, frame_2d_25):
    assert np.allclose(frame_2d_9.eigenvalues, [0, 1, 1, 1, 1, 2, 2, 2, 2], atol=1e-12)
    assert np.allclose(frame_2d_25.eigenvalues, lattice_spectrum_2d(2), atol=1e-12)


def test_cosine_potential_matches_dense_oracle(frame_1d_9_cos):
    oracle = dense_oracle_1d(4, {1: 0.1, -1: 0.1})
    assert np.allclose(frame_1d_9_cos.eigenvalues, oracle, atol=1e-10)


def test_eigenvalue_perturbation_first_order():
    # nondegenerate ground mode: first-order shift is the mean of V, here zero,
    # so the total shift is second order in the potential amplitude
    delta = 0.2  # sup norm of V = 0.1 * 2 cos(x)
    pot = Potential.from_cosines({1: 0.1}, dimension=1)
    frame = build_frame(TorusGeometry((TAU,), 32), pot, 9)
    flat = build_frame(TorusGeometry((TAU,), 32), Potential.zero(), 9)
    shift = frame.eigenvalues[0] - flat.eigenvalues[0]
    assert abs(shift) <= 2.0 * delta ** 2
    # and the shift is real: second-order theory predicts a negative value
    assert shift < 0


def test_double_truncation_stability():
    # interior eigenvalues barely move when the window doubles
    pot = Potential.from_cosines({1: 0.1}, dimension=1)
    small = build_frame(TorusGeometry((TAU,), 64), pot, 9)
    large = build_frame(TorusGeometry((TAU,), 64), pot, 17)
    assert np.allclose(small.eigenvalues[:5], large.eigenvalues[:5], atol=1e-6)


def test_orthonormal_rows_and_residual(frame_1d_9_cos):
    gram = frame_1d_9_cos.eigenvectors @ frame_1d_9_cos.eigenvectors.T
    assert np.max(np.abs(gram - np.eye(9))) < 1e-10
    # validate() already enforces the eigenpair residual; rerun it explicitly
    frame_1d_9_cos.validate()


def test_degenerate_pair_split_by_potential():
    pot = Potential.from_cosines({2: 0.05}, dimension=1)
    frame = build_frame(TorusGeometry((TAU,), 32), pot, 5)
    # cos(2x) couples e^{ix} and e^{-ix} at first order: the lambda = 1 pair splits
    split = frame.eigenvalues[2] - frame.eigenvalues[1]
    assert split > 1e-3


def test_basis_ordering_canonical():
    assert trig_basis(1, 5) == [("const", (0,)), ("cos", (1,)), ("sin", (1,)),
                                ("cos", (2,)), ("sin", (2,))]
    labels = trig_basis(2, 9)
    reps = [m for kind, m in labels if kind == "cos"]
    assert reps == [(0, 1), (1, 0), (1, -1), (1, 1)]


def test_even_mode_count_truncates_canonically():
    frame = build_frame(TorusGeometry((TAU,), 32), Potential.zero(), 8)
    assert np.allclose(frame.eigenvalues, [0, 1, 1, 4, 4, 9, 9, 16], atol=1e-12)


def test_rejects_bad_geometry():
    with pytest.raises(ConfigError):
        TorusGeometry((TAU,), 7)  # odd grid
    for bad in (16.9, True):  # 16.9 used to build a 16-point grid
        with pytest.raises(ConfigError, match="^grid_points must be an integer"):
            TorusGeometry((TAU,), bad)
    with pytest.raises(ConfigError):
        TorusGeometry((-1.0,), 16)
    with pytest.raises(ConfigError):
        TorusGeometry((TAU, TAU, TAU), 16)  # d = 3 unsupported
    # "x" used to be read as the one-letter list ["x"], and both escaped as ValueError
    for bad, match in (("x", r"^geometry\.lengths must be a list, got 'x'"),
                       (["x"], r"^geometry\.lengths\[0\] must be a real number, got 'x'")):
        with pytest.raises(ConfigError, match=match):
            TorusGeometry(bad, 16)
        doc = {"dimension": 1, "lengths": bad, "grid_points": 16}
        with pytest.raises(ConfigError, match="^frame.geometry.lengths"):
            TorusGeometry.from_document(doc)


def test_numpy_integer_sizes_build_the_int_frame():
    # TorusGeometry used to refuse np.int64(16) while build_frame took np.int64(5)
    frame = build_frame(TorusGeometry((TAU,), np.int64(16)), Potential.zero(), np.int64(5))
    assert type(frame.geometry.grid_points) is int
    want = build_frame(TorusGeometry((TAU,), 16), Potential.zero(), 5)
    assert frame.content_hash() == want.content_hash()


def test_fractional_modes_and_potential_indices_are_refused():
    # each used to be truncated to an integer, building another problem
    for make, name in ((lambda: build_frame(TorusGeometry((TAU,), 16), Potential.zero(), 5.7),
                        "modes"),
                       (lambda: Potential.from_cosines({(1.5,): 0.1}), "potential index"),
                       (lambda: Potential((((1.5,), 0.1), ((-1.5,), 0.1))), "potential index")):
        with pytest.raises(ConfigError, match=f"^{name} must be an integer"):
            make()


def test_potential_refuses_indices_of_another_dimension():
    with pytest.raises(ConfigError, match=r"^cosine index \(1, 0\) does not match dimension 1$"):
        Potential.from_cosines({(1, 0): 0.1}, dimension=1)
    planar = Potential.from_cosines({(1, 0): 0.1}, dimension=2)
    with pytest.raises(ConfigError, match=r"^potential index \(-1, 0\) does not match "
                                          r"dimension 1$"):
        planar.values_on(TorusGeometry((TAU,), 16))


def test_rejects_undersized_grid():
    with pytest.raises(ConfigError):
        build_frame(TorusGeometry((TAU,), 8), Potential.zero(), 9)


def test_rejects_non_hermitian_potential():
    with pytest.raises(ConfigError):
        Potential((((1,), 0.1 + 0.0j),))  # missing mirror coefficient


# -- grid tables -----------------------------------------------------------

def test_round_trip_on_span(frame_1d_9_cos):
    rng = np.random.default_rng(7)
    v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    Z = frame_1d_9_cos.eigenfunction_values
    u = v @ Z
    back = (u @ Z.T) * frame_1d_9_cos.cell_volume
    assert np.max(np.abs(back - v)) < 1e-12


def test_coefficients_match_quadrature_oracle(frame_1d_9_cos):
    rng = np.random.default_rng(11)
    v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    Z = frame_1d_9_cos.eigenfunction_values
    u = v @ Z
    for k in range(9):
        ip = quadrature_inner_product(u, Z[k], frame_1d_9_cos.geometry)
        assert abs(ip - v[k]) < 1e-12


def test_cached_frame_tables_are_read_only(frame_1d_9_cos):
    # fields, drift assembly and the potential block share these arrays
    frame = frame_1d_9_cos
    tables = [frame.eigenfunction_values, *frame.eigenfunction_gradients, frame.potential_values]
    for table in tables:
        with pytest.raises(ValueError):
            table[0] += 1.0


def test_field_grid_tables_are_the_frames(frame_1d_9_cos, frame_2d_9):
    # a Field multiplies by transposed views of the frame's tables, not copies
    spec = NonlinearitySpec("polynomial", mu=0.5, terms=(
        MonomialTerm(1.0, (MonomialFactor(), MonomialFactor(derivative=0))),))
    for frame in (frame_1d_9_cos, frame_2d_9):
        field = Field(spec, frame)
        assert np.shares_memory(field.Z, frame.eigenfunction_values)
        assert len(field.gradients_T) == frame.dimension
        for table, gradient in zip(field.gradients_T, frame.eigenfunction_gradients):
            assert np.shares_memory(table, gradient) and not table.flags.writeable


def test_parseval_on_grid(frame_2d_9):
    rng = np.random.default_rng(3)
    v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    u = v @ frame_2d_9.eigenfunction_values
    l2 = np.sum(np.abs(u) ** 2) * frame_2d_9.cell_volume
    assert abs(l2 - np.sum(np.abs(v) ** 2)) < 1e-12


# -- norms, actions, phases ------------------------------------------------

complex_vectors = st.integers(0, 2 ** 32 - 1).map(
    lambda seed: (lambda rng: rng.standard_normal(9) + 1j * rng.standard_normal(9))(
        np.random.default_rng(seed)))


def test_single_mode_norm(frame_1d_9):
    v = np.zeros(9, complex)
    v[0] = 1.0
    assert sobolev_norm(v, 2.0, frame_1d_9.eigenvalues) == pytest.approx(1.0)
    v2 = np.zeros(9, complex)
    v2[3] = 1.0  # lambda = 4
    assert sobolev_norm(v2, 2.0, frame_1d_9.eigenvalues) == pytest.approx(np.sqrt(17.0))


def test_norm_rejects_negative_s(frame_1d_9):
    with pytest.raises(ConfigError):
        sobolev_norm(np.ones(9, complex), -1.0, frame_1d_9.eigenvalues)


def test_norm_rejects_nan(frame_1d_9):
    v = np.ones(9, complex)
    v[2] = np.nan
    with pytest.raises(ValidationError):
        sobolev_norm(v, 1.0, frame_1d_9.eigenvalues)


@settings(max_examples=50, deadline=None)
@given(complex_vectors, st.integers(0, 2 ** 32 - 1))
def test_phase_shift_is_isometry_and_additive(v, seed):
    rng = np.random.default_rng(seed)
    theta1 = rng.uniform(-10, 10, 9)
    theta2 = rng.uniform(-10, 10, 9)
    lam = np.array([0., 1, 1, 4, 4, 9, 9, 16, 16])
    for s in (0.0, 1.0, 2.0):
        assert sobolev_norm(v * np.exp(1j * theta1), s, lam) == pytest.approx(
            sobolev_norm(v, s, lam), rel=1e-12)
    composed = v * np.exp(1j * theta1) * np.exp(1j * theta2)
    direct = v * np.exp(1j * (theta1 + theta2))
    assert np.max(np.abs(composed - direct)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(complex_vectors)
def test_action_norm_identity(v):
    lam = np.array([0., 1, 1, 4, 4, 9, 9, 16, 16])
    for s in (0.0, 1.6, 2.0):
        lhs = sobolev_norm(v, s, lam) ** 2
        rhs = action_distance(0.5 * np.abs(v) ** 2, np.zeros(9), s, lam)
        assert lhs == pytest.approx(rhs, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(complex_vectors, st.integers(0, 2 ** 32 - 1))
def test_actions_invariant_under_phase(v, seed):
    theta = np.random.default_rng(seed).uniform(-20, 20, 9)
    actions = Trajectory(np.zeros(2), np.stack([v * np.exp(1j * theta), v]), "lawson4").actions()
    assert np.max(np.abs(actions[0] - actions[1])) < 1e-12


def test_actions_nonnegative(frame_1d_9):
    rng = np.random.default_rng(5)
    v = sample_ball(frame_1d_9, 2.0, 1.0, rng)
    assert np.all(0.5 * np.abs(v) ** 2 >= 0)
    assert sobolev_norm(v, 2.0, frame_1d_9.eigenvalues) == pytest.approx(1.0)


# -- serialization ---------------------------------------------------------

def test_frame_document_round_trip(frame_1d_9_cos, tmp_path):
    doc = frame_1d_9_cos.to_document()
    text = json.dumps(doc)
    rebuilt = SpectralFrame.from_document(json.loads(text))
    assert np.array_equal(rebuilt.eigenvalues, frame_1d_9_cos.eigenvalues)
    assert np.array_equal(rebuilt.eigenvectors, frame_1d_9_cos.eigenvectors)
    assert rebuilt.content_hash() == frame_1d_9_cos.content_hash()


def test_operator_assembled_once_per_frame(monkeypatch):
    calls = []
    assemble = spectral.assemble_operator
    monkeypatch.setattr(spectral, "assemble_operator",
                        lambda *args: calls.append(args) or assemble(*args))
    pot = Potential.from_cosines({(1, 0): 0.1, (0, 1): 0.05}, dimension=2)
    frame = build_frame(TorusGeometry((TAU, TAU), 16), pot, 9)
    # one assembly to diagonalize, one by the frame to check its eigenpairs
    assert len(calls) == 2
    # a frame read from a document is checked against an operator it assembles
    rebuilt = SpectralFrame.from_document(json.loads(json.dumps(frame.to_document())))
    assert len(calls) == 3
    assert rebuilt.content_hash() == frame.content_hash()


def test_content_hash_taken_once_per_frame(monkeypatch):
    from resonlab import io
    calls = []
    content_hash = io.content_hash
    monkeypatch.setattr(io, "content_hash",
                        lambda doc: calls.append(doc["schema"]) or content_hash(doc))
    lam, psi = np.array([0.0, 1.0, 1.0, 4.0, 4.0]), np.eye(5)
    frame = SpectralFrame(TorusGeometry((TAU,), 32), Potential.zero(),
                          trig_basis(1, 5), lam, psi)
    digests = {frame.content_hash() for _ in range(3)}
    rebuilt = SpectralFrame.from_document(frame.to_document())
    digests |= {rebuilt.content_hash() for _ in range(3)}
    assert len(digests) == 1 and calls == ["resonlab-frame-v1"] * 2
    # the frame holds read-only copies: the caller's arrays stay its own
    assert lam.flags.writeable and psi.flags.writeable
    assert not (frame.eigenvalues.flags.writeable or frame.eigenvectors.flags.writeable)
    lam[0] = psi[0, 0] = 7.0
    assert frame.eigenvalues[0] == 0.0 and frame.eigenvectors[0, 0] == 1.0


def test_grid_pass_shared_by_build_frame(monkeypatch):
    calls = []
    grid_pass = spectral._basis_on_grid
    monkeypatch.setattr(spectral, "_basis_on_grid",
                        lambda *args: calls.append(args) or grid_pass(*args))
    pot = Potential.from_cosines({(1, 0): 0.1, (0, 1): 0.05}, dimension=2)
    frame = build_frame(TorusGeometry((TAU, TAU), 16), pot, 9)
    v = np.linspace(0.1, 0.9, 9) + 0.2j
    spec = NonlinearitySpec("cubic_focusing", mu=0.3)
    eval_P(v, Field(spec, frame))
    # one pass per operator assembly (build_frame's and the frame's check)
    # and one for the tables
    assert len(calls) == 3
    # a frame read from a document makes the same passes for its check and
    # its tables; both frames give the same tables bit for bit
    rebuilt = SpectralFrame.from_document(json.loads(json.dumps(frame.to_document())))
    assert np.array_equal(eval_P(v, Field(spec, rebuilt)), eval_P(v, Field(spec, frame)))
    assert len(calls) == 5
    assert np.array_equal(rebuilt.eigenfunction_values, frame.eigenfunction_values)
    for mine, theirs in zip(rebuilt.eigenfunction_gradients, frame.eigenfunction_gradients):
        assert np.array_equal(mine, theirs)


def test_frame_document_rejects_tampering(frame_1d_5):
    # a wrong eigenvalue breaks the eigenpair residual; NaN compares False
    # against every tolerance, so it needs its own finiteness check
    for key, row, col, value in (("lambda", 0, None, 0.5),
                                 ("lambda", 2, None, float("nan")),
                                 ("psi", 1, 1, float("nan"))):
        doc = frame_1d_5.to_document()
        if col is None:
            doc[key][row] = value
        else:
            doc[key][row][col] = value
        with pytest.raises(ValidationError):
            SpectralFrame.from_document(doc)
