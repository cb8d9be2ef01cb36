"""Spectral frame of the Schroedinger operator -Laplace + V on a rectangular torus.

The frame fixes, once per configuration, the ordered eigenvalues of the operator
restricted to a finite trigonometric Galerkin space, together with the real matrix
whose rows expand each eigenfunction in that trigonometric basis.  Everything
downstream (resonance bookkeeping, nonlinear fields, integrators) works in the
coordinates this frame defines.
"""

from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np

from .errors import (ConfigError, ValidationError, check_int, check_keys, check_list, check_real,
                     check_reals)
from .resonance import check_ascending, eigenvalue_clusters

TWO_PI = 2.0 * math.pi

# Relative tolerance under which adjacent eigenvalues are treated as one
# degenerate cluster during frame construction.
DEGENERACY_RTOL = 1e-9

# Acceptance bounds for the constructed frame.
ORTHONORMALITY_TOL = 1e-10
RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class TorusGeometry:
    """Rectangular torus with side lengths and a uniform tensor grid (points per axis)."""

    lengths: tuple
    grid_points: int

    def __post_init__(self):
        lengths = check_reals(self.lengths, "geometry.lengths")
        object.__setattr__(self, "lengths", lengths)
        if len(lengths) not in (1, 2):
            raise ConfigError(f"dimension must be 1 or 2, got {len(lengths)}")
        if any(not (x > 0.0) for x in lengths):
            raise ConfigError(f"side lengths must be positive, got {lengths}")
        n = check_int(self.grid_points, "grid_points", 4)
        if n % 2:
            raise ConfigError(f"grid_points must be even, got {n}")
        object.__setattr__(self, "grid_points", n)

    @property
    def dimension(self):
        return len(self.lengths)

    @property
    def volume(self):
        return math.prod(self.lengths)

    def axes(self):
        """Per-axis grid coordinates j*L/N, j = 0..N-1."""
        return [np.arange(self.grid_points) * (L / self.grid_points) for L in self.lengths]

    def grid(self):
        """Flattened mesh, shape (dimension, grid_points**dimension), C order."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.ravel() for m in mesh])

    @property
    def cell_volume(self):
        return self.volume / self.grid_points ** self.dimension

    def to_document(self):
        return {"dimension": self.dimension, "lengths": list(self.lengths),
                "grid_points": self.grid_points}

    @staticmethod
    def from_document(doc):
        keys = ("dimension", "lengths", "grid_points")
        check_keys("frame.geometry", doc, keys, required=keys)
        lengths = check_reals(doc["lengths"], "frame.geometry.lengths")
        return TorusGeometry(lengths, doc["grid_points"])


@dataclass(frozen=True)
class Potential:
    """Real potential given by finitely many plane-wave coefficients.

    Coefficients are stored as a sorted tuple of (lattice index, complex value)
    pairs and must satisfy the Hermitian symmetry coeff(-m) = conj(coeff(m)),
    so the potential is real valued.
    """

    coefficients: tuple = ()

    def __post_init__(self):
        items = [(_lattice_index(m), complex(c)) for m, c in self.coefficients]
        items.sort(key=lambda mc: mc[0])
        table = dict(items)
        if len(table) != len(items):
            raise ConfigError("duplicate potential coefficient index")
        for m, c in table.items():
            neg = tuple(-x for x in m)
            mirror = table.get(neg)
            if mirror is None or abs(mirror - c.conjugate()) > 1e-14 * max(1.0, abs(c)):
                raise ConfigError(f"potential is not Hermitian at index {m}")
        object.__setattr__(self, "coefficients", tuple(items))

    @staticmethod
    def zero():
        return Potential(())

    @staticmethod
    def from_cosines(terms, dimension=1):
        """Build from {m: amplitude} with V = sum 2*amplitude*cos(2 pi m.x/L)."""
        coeffs = []
        for m, amp in terms.items():
            m = _lattice_index(m)
            if len(m) != dimension:
                raise ConfigError(f"cosine index {m} does not match dimension {dimension}")
            coeffs.append((m, complex(amp)))
            coeffs.append((tuple(-x for x in m), complex(amp).conjugate()))
        return Potential(tuple(coeffs))

    @property
    def is_zero(self):
        return all(abs(c) == 0.0 for _, c in self.coefficients)

    def window_radius(self):
        """Largest per-axis lattice index carrying a coefficient."""
        if not self.coefficients:
            return 0
        return max(max(abs(x) for x in m) for m, _ in self.coefficients)

    def values_on(self, geometry):
        """Evaluate on the flattened grid of `geometry`; checks realness."""
        pts = geometry.grid()
        out = np.zeros(pts.shape[1], dtype=complex)
        for m, c in self.coefficients:
            if len(m) != geometry.dimension:
                raise ConfigError(f"potential index {m} does not match dimension {geometry.dimension}")
            phase = np.zeros(pts.shape[1])
            for i, (mi, L) in enumerate(zip(m, geometry.lengths)):
                phase += (TWO_PI * mi / L) * pts[i]
            out += c * np.exp(1j * phase)
        scale = max(1.0, float(np.max(np.abs(out))) if out.size else 1.0)
        if float(np.max(np.abs(out.imag))) > 1e-12 * scale:
            raise ValidationError("potential evaluation is not real; coefficients inconsistent")
        return out.real

    def to_document(self):
        return [{"m": list(m), "re": c.real, "im": c.imag} for m, c in self.coefficients]

    @staticmethod
    def from_document(doc):
        coefficients = []
        for where, entry in check_list(doc, "frame.potential"):
            check_keys(where, entry, ("m", "re", "im"), required=("m", "re", "im"))
            coefficients.append((entry["m"], complex(check_real(entry["re"], f"{where}.re"),
                                                     check_real(entry["im"], f"{where}.im"))))
        return Potential(tuple(coefficients))


def trig_basis(dimension, count):
    """First `count` real trigonometric basis labels in the canonical ordering.

    Ordering: the constant first, then for each representative lattice index m
    (one of each {m, -m} pair) a cos/sin block.  Representatives are sorted by
    (max_i |m_i|, sum m_i^2, m lexicographic), so full symmetric windows
    |m_i| <= K are filled before anything outside them.
    """
    count = check_int(count, "modes", 1)
    labels = [("const", (0,) * dimension)]
    shell = 0
    while len(labels) < count:
        shell += 1
        reps = []
        if dimension == 1:
            reps.append((shell,))
        else:
            for m1 in range(-shell, shell + 1):
                for m2 in range(-shell, shell + 1):
                    if max(abs(m1), abs(m2)) != shell:
                        continue
                    if (m1, m2) < (0, 0) or (m1, m2) == (0, 0):
                        continue
                    if m1 > 0 or (m1 == 0 and m2 > 0):
                        reps.append((m1, m2))
        reps.sort(key=lambda m: (sum(x * x for x in m), m))
        for m in reps:
            labels.append(("cos", m))
            labels.append(("sin", m))
    return labels[:count]


def mode_vector(state):
    """Coerce an array-like of mode coefficients to a complex ndarray."""
    return np.asarray(state, dtype=complex)


class SpectralFrame:
    """Eigenvalues and eigenfunctions of -Laplace + V on the Galerkin space.

    eigenvalues   -- ascending, length M
    eigenvectors  -- real (M, M) matrix, row k expands eigenfunction k in the
                     canonical trigonometric basis (rows orthonormal)
    window_radius -- largest per-axis lattice index of the basis

    The constructor checks the eigenpairs against an operator it assembles
    itself, for a built frame and for one read from a document alike.
    """

    def __init__(self, geometry, potential, basis, eigenvalues, eigenvectors):
        self.geometry = geometry
        self.potential = potential
        self.basis = tuple(basis)
        # read-only copies: the content hash is taken once, and the caller's
        # arrays stay writable
        self.eigenvalues = _read_only(np.array(eigenvalues, dtype=float))
        self.eigenvectors = _read_only(np.array(eigenvectors, dtype=float))
        self._content_hash = None
        self.validate()
        self.window_radius = _window_radius(self.basis)

    @property
    def modes(self):
        return len(self.basis)

    @property
    def dimension(self):
        return self.geometry.dimension

    def validate(self):
        M = self.modes
        if self.eigenvalues.shape != (M,) or self.eigenvectors.shape != (M, M):
            raise ValidationError("frame arrays do not match the basis size")
        if not (np.isfinite(self.eigenvalues).all() and np.isfinite(self.eigenvectors).all()):
            raise ValidationError("frame eigenpairs are not finite")
        check_ascending(self.eigenvalues)
        gram = self.eigenvectors @ self.eigenvectors.T
        if float(np.max(np.abs(gram - np.eye(M)))) > ORTHONORMALITY_TOL:
            raise ValidationError("eigenvector rows are not orthonormal to tolerance")
        H = assemble_operator(self.geometry, self.potential, self.basis)
        resid = H @ self.eigenvectors.T - self.eigenvectors.T * self.eigenvalues[None, :]
        bound = RESIDUAL_TOL * np.maximum(1.0, np.abs(self.eigenvalues))
        worst = np.sqrt(np.sum(resid ** 2, axis=0))
        if np.any(worst > bound):
            raise ValidationError(f"eigenpair residual {worst.max():.3e} exceeds tolerance")

    # -- grid tables ------------------------------------------------------

    # Every cached table is read-only: the fields, the drift assembly and the
    # potential block share them.

    @cached_property
    def _grid_tables(self):
        """Eigenfunction values and gradients from one pass over the grid."""
        E, grads = _basis_on_grid(self.geometry, self.basis)
        return (_read_only(self.eigenvectors @ E),
                [_read_only(self.eigenvectors @ g) for g in grads])

    @property
    def eigenfunction_values(self):
        """(M, P) real matrix Z = Psi E of eigenfunctions on the flattened grid."""
        return self._grid_tables[0]

    @property
    def eigenfunction_gradients(self):
        """List (per axis) of (M, P) matrices of eigenfunction derivatives."""
        return self._grid_tables[1]

    @cached_property
    def potential_values(self):
        return _read_only(self.potential.values_on(self.geometry))

    @property
    def cell_volume(self):
        return self.geometry.cell_volume

    # -- serialization ----------------------------------------------------

    def to_document(self):
        return {
            "schema": "resonlab-frame-v1",
            "geometry": self.geometry.to_document(),
            "potential": self.potential.to_document(),
            "modes": self.modes,
            "basis": [[kind, list(m)] for kind, m in self.basis],
            "lambda": self.eigenvalues.tolist(),
            "psi": [row.tolist() for row in self.eigenvectors],
        }

    def content_hash(self):
        if self._content_hash is None:
            from .io import content_hash  # io is only needed once a frame is hashed
            self._content_hash = content_hash(self.to_document())
        return self._content_hash

    @staticmethod
    def from_document(doc):
        keys = ("schema", "geometry", "potential", "modes", "basis", "lambda", "psi")
        check_keys("frame", doc, keys, required=keys)
        if doc["schema"] != "resonlab-frame-v1":
            raise ConfigError(f"unknown frame schema {doc['schema']!r}")
        geometry = TorusGeometry.from_document(doc["geometry"])
        potential = Potential.from_document(doc["potential"])
        try:
            basis = tuple((kind, tuple(m)) for kind, m in doc["basis"])
        except (TypeError, ValueError) as exc:  # not pairs of a kind and a list
            raise ConfigError("frame.basis must be a list of [kind, lattice index] pairs") from exc
        expected = tuple(trig_basis(geometry.dimension, doc["modes"]))
        if basis != expected:
            raise ValidationError("frame file basis ordering does not match the canonical ordering")
        arrays = {}
        for key in ("lambda", "psi"):
            try:
                arrays[key] = np.array(doc[key], dtype=float)
            except (TypeError, ValueError) as exc:  # a ragged nest, or not numbers
                raise ConfigError(f"frame.{key} must be a rectangular array of numbers") from exc
        return SpectralFrame(geometry, potential, basis, arrays["lambda"], arrays["psi"])


def _lattice_index(m):
    """A lattice index, given as a sequence of integers or as one integer, as a tuple."""
    return tuple(check_int(x, "potential index")
                 for x in (m if isinstance(m, (tuple, list)) else (m,)))


def _read_only(array):
    array.flags.writeable = False
    return array


def _window_radius(basis):
    """Largest per-axis lattice index used by a basis."""
    return max(max(abs(x) for x in m) for _, m in basis)


def _basis_on_grid(geometry, basis):
    """Values and per-axis derivatives of the basis functions on the grid."""
    pts = geometry.grid()
    vol = geometry.volume
    M, P = len(basis), pts.shape[1]
    values = np.empty((M, P))
    grads = [np.zeros((M, P)) for _ in range(geometry.dimension)]
    c_norm = 1.0 / math.sqrt(vol)
    t_norm = math.sqrt(2.0 / vol)
    for row, (kind, m) in enumerate(basis):
        if kind == "const":
            values[row] = c_norm
            continue
        kappa = [TWO_PI * mi / L for mi, L in zip(m, geometry.lengths)]
        phase = np.zeros(P)
        for i, ki in enumerate(kappa):
            phase += ki * pts[i]
        if kind == "cos":
            values[row] = t_norm * np.cos(phase)
            for i, ki in enumerate(kappa):
                grads[i][row] = -ki * t_norm * np.sin(phase)
        elif kind == "sin":
            values[row] = t_norm * np.sin(phase)
            for i, ki in enumerate(kappa):
                grads[i][row] = ki * t_norm * np.cos(phase)
        else:
            raise ConfigError(f"unknown basis kind {kind!r}")
    return values, grads


def assemble_operator(geometry, potential, basis):
    """Real symmetric Galerkin matrix of -Laplace + V in the trigonometric basis.

    The quadrature is exact as long as the grid resolves all products of two
    basis functions with the potential, which build_frame checks up front.
    build_frame diagonalizes it, and every SpectralFrame checks its eigenpairs on it.
    """
    scales = [(TWO_PI / L) ** 2 for L in geometry.lengths]  # -Laplace is diagonal
    H = np.diag([sum(s * (mi * mi) for s, mi in zip(scales, m)) for _, m in basis])
    if not potential.is_zero:
        E, _ = _basis_on_grid(geometry, basis)
        Vg = potential.values_on(geometry) * geometry.cell_volume
        H = H + (E * Vg) @ E.T
        H = 0.5 * (H + H.T)
    return H


def build_frame(geometry, potential, modes):
    """Diagonalize -Laplace + V on the first `modes` trigonometric basis functions.

    Degenerate eigenspaces are given a deterministic orthonormal basis by
    Gram-Schmidt against the trigonometric basis ordering, and every
    eigenvector is sign-fixed so its first largest-magnitude coefficient is
    positive.  For V = 0 the eigenfunctions then coincide exactly with the
    trigonometric basis itself.  The frame checks them on an operator it assembles.
    """
    basis = trig_basis(geometry.dimension, modes)
    need = 2 * _window_radius(basis) + potential.window_radius()
    if geometry.grid_points <= need:
        raise ConfigError(
            f"grid_points={geometry.grid_points} too small for exact assembly; "
            f"need more than {need} points per axis")
    H = assemble_operator(geometry, potential, basis)
    lam, vecs = np.linalg.eigh(H)  # ascending; columns are eigenvectors
    vecs = _align_degenerate_clusters(lam, vecs)
    psi = _fix_signs(vecs.T)
    return SpectralFrame(geometry, potential, basis, lam, psi)


def _align_degenerate_clusters(lam, vecs):
    vecs = vecs.copy()
    for cluster in eigenvalue_clusters(lam, eta=DEGENERACY_RTOL):
        if len(cluster) < 2:
            continue
        U = vecs[:, cluster]
        accepted = []
        for l in range(U.shape[0]):
            w = U @ U[l, :]  # projection of the l-th trig unit vector onto the eigenspace
            for q in accepted:
                w = w - (q @ w) * q
            n = np.linalg.norm(w)
            if n > 1e-6:
                accepted.append(w / n)
            if len(accepted) == len(cluster):
                break
        if len(accepted) != len(cluster):
            raise ValidationError("failed to align a degenerate eigenspace deterministically")
        vecs[:, cluster] = np.column_stack(accepted)
    return vecs


def _fix_signs(psi):
    psi = psi.copy()
    for row in psi:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    return psi


# -- norms and sampling --------------------------------------------------

def sobolev_norm(state, s, eigenvalues):
    """Weighted l2 norm with weights |lambda_k|^s + 1 (so s=0 weighs every mode by 2)."""
    if not (s >= 0):
        raise ConfigError(f"Sobolev exponent must be >= 0, got {s}")
    v = mode_vector(state)
    if np.any(~np.isfinite(v)):
        raise ValidationError("non-finite coefficient in norm evaluation")
    w = np.abs(np.asarray(eigenvalues, dtype=float)) ** s + 1.0
    return np.sqrt(np.sum(w * np.abs(v) ** 2, axis=-1))


def action_distance(actions_a, actions_b, s, eigenvalues):
    """Weighted l1 distance sum_k 2(|lambda_k|^s + 1)|I_k - I'_k|.

    With actions_b = 0 this is the squared Sobolev norm of the underlying state.
    """
    if not (s >= 0):
        raise ConfigError(f"Sobolev exponent must be >= 0, got {s}")
    w = 2.0 * (np.abs(np.asarray(eigenvalues, dtype=float)) ** s + 1.0)
    diff = np.abs(np.asarray(actions_a, dtype=float) - np.asarray(actions_b, dtype=float))
    return np.sum(w * diff, axis=-1)


def sample_ball(frame, s, radius, rng):
    """Random smooth coefficient vector with Sobolev norm exactly `radius`.

    Coefficients decay like (1 + lambda)^{-(s+1)/2} before normalization, so the
    draws stay comfortably inside every norm of order <= s + 1.
    """
    decay = (1.0 + frame.eigenvalues) ** (-(s + 1.0) / 2.0)
    raw = (rng.standard_normal(frame.modes) + 1j * rng.standard_normal(frame.modes)) * decay
    norm = sobolev_norm(raw, s, frame.eigenvalues)
    return raw * (radius / norm)
