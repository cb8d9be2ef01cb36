"""Vector fields in mode coordinates: the projected nonlinearity, its rotated
version, the resonant-averaged drift (two independent routes), and scalar
averaging of observables.

The projected field is P(v) = Psi(mu V u + P(grad u, u)) with u synthesized
from v; the mu V u term belongs here because the dissipative part of the flow
keeps only the exact diagonal -mu lambda_k.  A Field splits P into a diagonal
part and a grid part transformed grid-major on real tables; Y rotates on the
mode side.  The averaged drift R keeps exactly the resonant monomials of P; the
quadrature route approximates the same object by a finite-window time average
and is kept strictly independent as an oracle.  One trapezoid loop,
_phase_average, takes every finite-window average.
"""

from dataclasses import dataclass, replace
import math

import numpy as np

from .errors import ConfigError
from .nonlinearity import MonomialFactor
from .resonance import eigenvalue_clusters, frequency_rule
from .spectral import mode_vector, sobolev_norm

_CHUNK = 4096  # rows of f per quadrature block; fixed so sums are reproducible
_NODE_BUDGET = 10 ** 6  # most quadrature nodes one finite-window average may take
# Rows per pass of batched R: one (rows x widest group's monomials) complex array
# fits this budget.  A ResonantDrift keeps two such work arrays, sized to the
# largest batch it has been called on, and reuses them on every call.
_BATCH_BYTES = 1 << 23


def check_spec_on_frame(spec, frame):
    """A polynomial kind's derivative axes exist on the frame, and its products
    are dealiased: N_g >= 2 * degree * window radius."""
    if not spec.is_polynomial:
        return
    for axis in {f.derivative for t in spec.polynomial_terms() for f in t.factors} - {None}:
        if not 0 <= axis < frame.dimension:
            raise ConfigError(f"derivative axis {axis} does not exist on a frame of "
                              f"dimension {frame.dimension}")
    need = 2 * spec.degree * frame.window_radius
    if frame.geometry.grid_points < need:
        raise ConfigError(
            f"grid_points={frame.geometry.grid_points} under-resolves degree-{spec.degree} "
            f"products on window radius {frame.window_radius}; need at least {need} per axis")


def _diagonal_gammas(spec, frame):
    """Per-mode coefficients of a diagonal spec, checked against the frame."""
    gammas = np.asarray(spec.gammas, dtype=complex)
    if gammas.shape != (frame.modes,):
        raise ConfigError(f"diagonal kind needs {frame.modes} coefficients, "
                          f"got {gammas.size}")
    return gammas


class Field:
    """The projected field P of one (spec, frame), evaluated through eval_P: a
    diagonal part c v in mode space (the diagonal kind's gammas, or the summed c
    of a polynomial's plain linear terms c u beside other terms) plus a grid
    part, transformed grid-major by real GEMMs on .T views of the frame's tables.
    Its work arrays fit the largest batch seen, so one Field serves one caller."""

    def __init__(self, spec, frame):
        self.rotation = 1j * frame.eigenvalues  # the phase of time t is e^{rotation t}
        self.diagonal = self.Z = None
        if spec.kind == "diagonal":
            self.diagonal = _diagonal_gammas(spec, frame)
            return
        check_spec_on_frame(spec, frame)
        linear = [t for t in spec.terms if t.factors == (MonomialFactor(),)]
        rest = tuple(t for t in spec.terms if t not in linear)
        self.pointwise = (replace(spec, terms=rest) if linear and rest else spec).pointwise
        if linear and rest:
            self.diagonal = np.full(frame.modes, sum(t.coefficient for t in linear))
        self.potential = (spec.mu * frame.potential_values[:, None]
                          if spec.mu > 0.0 and not frame.potential.is_zero else None)
        self.Z, self.dx = frame.eigenfunction_values, frame.cell_volume
        self.gradients_T = ([g.T for g in frame.eigenfunction_gradients]
                            if spec.uses_derivatives() else [])
        self.ones = np.ones((frame.modes, 1))
        self._work, self._rows = np.empty(0, dtype=complex), 0

    def work(self, rows):
        """Views, kept for the last row count, of the (M, rows) batch and result
        and the (P, rows) grid values, gradients and pointwise work arrays."""
        if rows != self._rows:
            modes, points = self.Z.shape
            size = ((4 + len(self.gradients_T)) * points + 2 * modes) * rows
            if self._work.size < size:
                self._work = np.empty(size, dtype=complex)
            batch, back = self._work[:2 * modes * rows].reshape(2, modes, rows)
            grid = self._work[2 * modes * rows:size].reshape(-1, points, rows)
            self._views = (batch, grid[:-3].view(float), grid[0], grid[1:-3], grid[-3:], back)
            self._rows = rows
        return self._views


def eval_P(state, field, frame=None, phase=None):
    """Projected perturbing field P(v) of an (..., M) batch, as a fresh array;
    eval_P(state, spec, frame) builds a one-off Field.  Given the (M,) phases
    e^{i lambda t}, the rotated field phase * P(conj(phase) * v): the grid part
    rotates its transposed batch and result; the diagonal part commutes."""
    field = field if frame is None else Field(field, frame)
    v = mode_vector(state)
    if field.Z is None:
        return v * field.diagonal
    flat = v.reshape(-1, v.shape[-1])
    batch, grid_f, u, gradients, work, back = field.work(flat.shape[0])
    phase = field.ones if phase is None else phase[:, None]
    np.multiply(flat.T, np.conj(phase), out=batch)
    for table, values in zip((field.Z.T, *field.gradients_T), grid_f):
        np.matmul(table, batch.view(float), out=values)
    w = field.pointwise(u, gradients, work)
    if field.potential is not None:
        np.add(w, np.multiply(field.potential, u, out=work[1]), out=w)
    np.matmul(field.Z, w.view(float), out=back.view(float))
    out = np.empty(v.shape, dtype=complex)
    np.multiply(back, phase * field.dx, out=out.reshape(flat.shape).T)
    if field.diagonal is not None:
        out += v * field.diagonal
    return out


def eval_Y(state, t, field):
    """Rotated field Y(a, t): conjugation of P by the linear phase flow at time t."""
    return eval_P(state, field, phase=np.exp(t * field.rotation))


# -- analytic (resonant-sum) drift route -----------------------------------

def _take(x, idx, buf):
    """x[:, idx] for a (rows, m) array x, written into the front of the flat buffer buf."""
    return x.take(idx, axis=-1, mode="clip",
                  out=buf[:x.shape[0] * idx.size].reshape(x.shape[0], idx.size))


@dataclass
class _MonomialGroup:
    conjugate: np.ndarray   # (degree,) bool, one per slot
    slots: np.ndarray       # (degree, n) mode indices
    targets: np.ndarray     # (n,) sorted ascending
    coeffs: np.ndarray      # (n,) complex
    seg_starts: np.ndarray
    seg_targets: object     # (segments,) target of each segment; a full slice when all M
    prefixes: np.ndarray    # (degree - 1, p) distinct index columns of all slots but the last
    prefix_ids: np.ndarray  # (n,) each monomial's column in prefixes

    def _factor(self, v, j, idx, buf):
        factor = _take(v, idx, buf)
        return np.conj(factor, out=factor) if self.conjugate[j] else factor

    def accumulate(self, v, out, work):
        """Add this group's monomials at the (rows, M) batch v into out.

        work is a pair of flat complex buffers of at least rows x monomials
        each.  The prefix product is formed in the first and gathered into the
        second before the first takes the last factor, so each monomial is
        rounded as (coeffs * last factor) * prefix product.
        """
        terms_buf, gather_buf = work
        if len(self.prefixes):
            prod = self._factor(v, 0, self.prefixes[0], terms_buf)
            for j in range(1, len(self.prefixes)):
                prod *= self._factor(v, j, self.prefixes[j], gather_buf)
            gathered = _take(prod, self.prefix_ids, gather_buf)
        terms = self._factor(v, -1, self.slots[-1], terms_buf)
        np.multiply(self.coeffs, terms, out=terms)
        if len(self.prefixes):
            terms *= gathered
        out[..., self.seg_targets] += np.add.reduceat(terms, self.seg_starts, axis=-1)


def _check_table_frame(table, frame):
    """Refuse a resonance table whose eigenvalues are not the frame's."""
    lam = np.asarray(table.eigenvalues, dtype=float)
    if lam.shape != (frame.modes,):
        raise ConfigError(f"resonance table lists {lam.size} eigenvalues, "
                          f"the frame has {frame.modes} modes")
    # the eigenvalue lists themselves are compared, so in float mode
    _, tol, _ = frequency_rule(frame, table.eta, "float")
    gap = float(np.max(np.abs(lam - frame.eigenvalues)))
    if not gap <= tol:
        raise ConfigError(f"resonance table eigenvalues differ from the frame's by {gap:.3e} "
                          f"(tolerance {tol:.3e}); the table was built for another frame")


def _merged_rows(per_target, factors, modes):
    """(targets, rows, multiplicity): a pattern's rows merged over swaps of factors with equal
    `conjugate` and `derivative`, sorted by (target, row) through one mixed-radix key."""
    rows = np.concatenate([per_target[t] for t in range(modes)])
    kinds = [(f.conjugate, f.derivative) for f in factors]
    for kind in dict.fromkeys(kinds):
        cls = [j for j, other in enumerate(kinds) if other == kind]
        for _ in cls[1:]:
            for a, b in zip(cls, cls[1:]):
                rows[:, a], rows[:, b] = (np.minimum(rows[:, a], rows[:, b]),
                                          np.maximum(rows[:, a], rows[:, b]))
    targets = np.repeat(np.arange(modes), [per_target[t].shape[0] for t in range(modes)])
    dims = (modes,) * (len(factors) + 1)
    keys, mult = np.unique(np.ravel_multi_index((targets, *rows.T), dims), return_counts=True)
    targets, *columns = np.unravel_index(keys, dims)
    return targets, np.stack(columns, axis=1), mult


def _wave_keys(frame, degree):
    """One int64 per mode that adds as the mode's wave vector m does, or None.

    Keys exist when every row of Psi has exactly one nonzero entry, so that
    each eigenfunction is one trigonometric basis function (cos or sin of
    m.x, or the constant for m = 0) whose derivatives carry the same +-m, and
    when the grid resolves every signed sum of degree + 1 such vectors.  The
    grid integral of degree factors against a target then vanishes, but for
    rounding, unless some signed sum of the factors' m is +-(the target's m).
    """
    nonzero = frame.eigenvectors != 0
    if np.any(np.count_nonzero(nonzero, axis=1) != 1):
        return None
    if frame.geometry.grid_points <= (degree + 1) * frame.window_radius:
        return None
    m = np.array([frame.basis[j][1] for j in np.argmax(nonzero, axis=1)], dtype=np.int64)
    return m @ (np.int64(1) << 32) ** np.arange(m.shape[1], dtype=np.int64)


def _momentum_consistent(keys, rows, target):
    """(n,) bool: the rows whose wave keys sum, under some choice of signs, to
    +-(the target's key)."""
    sums = keys[rows[:, :1]]
    for j in range(1, rows.shape[1]):
        key = keys[rows[:, j:j + 1]]
        sums = np.concatenate([sums + key, sums - key], axis=1)
    return np.any(np.abs(sums) == abs(keys[target]), axis=1)


def _grid_integrals(slot_values, idx, z):
    """sum_x prod_j slot_values[j][idx[n, j], x] * z[x] for every tuple row n.

    Rows sharing all slots but the last share one prefix product; one GEMM of
    the distinct prefix products against slot_values[-1] * z gives every sum,
    gathered at (prefix, last index).  Rows come lexicographically sorted, so
    equal prefixes are adjacent and a prefix starts where a row's differs
    from the row before.
    """
    prefix = idx[:, :-1]
    starts = np.ones(idx.shape[0], dtype=bool)
    starts[1:] = (prefix[1:] != prefix[:-1]).any(axis=1)
    # the first factor starts the product (1 * x is x), so no array of ones is filled
    factors = (values[prefix[starts, j]] for j, values in enumerate(slot_values[:-1]))
    products = next(factors, None)
    if products is None:  # a degree-1 term: every row shares the empty prefix
        products = np.ones((int(np.count_nonzero(starts)), z.size))
    for factor in factors:
        products *= factor
    gram = products @ (slot_values[-1] * z).T
    return gram[np.cumsum(starts) - 1, idx[:, -1]]


class ResonantDrift:
    """Analytic effective drift: the resonant monomials of P with exact tensors.

    Monomial coefficients are product integrals of eigenfunctions (and their
    derivatives, for derivative factors) computed by exact grid quadrature; the
    resonance table decides which index tuples survive the averaging.

    A call on a batch computes in two work arrays the drift owns, each at most
    (rows per pass x widest group's monomials) as _BATCH_BYTES allows, so one
    ResonantDrift serves one caller at a time.  Every call returns a fresh array.
    """

    def __init__(self, frame, spec, table=None):
        self.frame = frame
        self.spec = spec
        self.modes = frame.modes
        self.groups = []
        if table is not None:
            _check_table_frame(table, frame)
        # the partition the averaging keeps, for the mu V u block and the noise
        self.clusters = eigenvalue_clusters(frame) if table is None else table.clusters
        if spec.kind == "diagonal":
            self.gammas = _diagonal_gammas(spec, frame)
            return
        if not spec.is_polynomial:
            raise ConfigError("analytic drift route needs a polynomial nonlinearity")
        if table is None:
            raise ConfigError("analytic drift route needs a resonance table")
        check_spec_on_frame(spec, frame)
        self.gammas = None
        dx = frame.cell_volume
        Z = frame.eigenfunction_values
        for term in spec.polynomial_terms():
            pattern = term.pattern
            if pattern not in table.resonances:
                raise ConfigError(f"resonance table lacks pattern {pattern}")
            slot_values = [Z if f.derivative is None else frame.eigenfunction_gradients[f.derivative]
                           for f in term.factors]
            per_target = table.resonances[pattern]
            keys = _wave_keys(frame, term.degree)
            if keys is not None:  # rows that cannot conserve momentum weigh nothing
                per_target = {t: rows[_momentum_consistent(keys, rows, t)]
                              for t, rows in per_target.items()}
            targets, rows, mult = _merged_rows(per_target, term.factors, self.modes)
            bounds = np.searchsorted(targets, np.arange(self.modes + 1))
            weights = dx * np.concatenate([
                _grid_integrals(slot_values, rows[bounds[t]:bounds[t + 1]], Z[t])
                for t in range(self.modes)])
            keep = np.abs(weights) > 1e-14
            self._add_group([f.conjugate for f in term.factors], rows[keep], targets[keep],
                            term.coefficient * mult[keep] * weights[keep])
        # the mu V u part averages to its equal-frequency (cluster) block
        if spec.mu > 0.0 and not frame.potential.is_zero:
            W = spec.mu * ((Z * (frame.potential_values * dx)) @ Z.T)
            same = np.zeros(W.shape, dtype=bool)
            for cluster in self.clusters:
                same[np.ix_(cluster, cluster)] = True
            k, kp = np.nonzero(same & (np.abs(W) > 1e-14))
            self._add_group([False], kp[:, None], k, W[k, kp].astype(complex))
        self._width = max((group.coeffs.size for group in self.groups), default=1)
        self._chunk_rows = max(1, _BATCH_BYTES // (16 * self._width))
        self._work = (np.empty(0, dtype=complex),) * 2

    def _add_group(self, conjugate, rows, targets, coeffs):
        """Append one group of (n, degree) index rows whose targets ascend."""
        if targets.size:
            seg_starts = np.flatnonzero(np.r_[True, np.diff(targets) > 0])
            prefix = rows[:, :-1].T
            keys = (np.ravel_multi_index(prefix, (self.modes,) * len(prefix)) if len(prefix)
                    else np.zeros(targets.size, dtype=np.intp))
            _, first, prefix_ids = np.unique(keys, return_index=True, return_inverse=True)
            self.groups.append(_MonomialGroup(
                conjugate=np.asarray(conjugate, dtype=bool), slots=np.ascontiguousarray(rows.T),
                targets=targets, coeffs=coeffs,
                seg_starts=seg_starts,
                seg_targets=slice(None) if seg_starts.size == self.modes else targets[seg_starts],
                prefixes=prefix[:, first], prefix_ids=prefix_ids))

    def __call__(self, state):
        v = mode_vector(state)
        if self.gammas is not None:
            return v * self.gammas
        out = np.zeros(v.shape, dtype=complex)
        flat_v, flat_out = v.reshape(-1, self.modes), out.reshape(-1, self.modes)
        size = min(flat_v.shape[0], self._chunk_rows) * self._width
        if self._work[0].size < size:
            self._work = (np.empty(size, dtype=complex), np.empty(size, dtype=complex))
        for start in range(0, flat_v.shape[0], self._chunk_rows):
            rows = slice(start, start + self._chunk_rows)
            for group in self.groups:
                group.accumulate(flat_v[rows], flat_out[rows], self._work)
        return out


def _node_count(window, n):
    """n as an int, once the trapezoid rule on [0, window] with n nodes can run."""
    if not (window > 0) or not 2 <= n <= _NODE_BUDGET:
        raise ConfigError(f"{n} quadrature nodes over window {window:.4g}: need a positive "
                          f"window and 2 to {_NODE_BUDGET} nodes")
    return int(n)


def _phase_average(f, state, lam, out_freqs, window, n):
    """(1/T) int_0^T e^{i out_freqs t} f(e^{-i lam t} v) dt, T = window, for each v of a
    (..., M) batch by the n-node trapezoid rule; f maps (rows, M) to (rows, *out_freqs.shape).
    Nodes go in blocks of at most _CHUNK rows of f (one node when the batch is wider)."""
    v = mode_vector(state)
    flat = v.reshape(-1, v.shape[-1])
    freqs = np.asarray(out_freqs, dtype=float)
    n = _node_count(window, n)
    ts = np.linspace(0.0, window, n)
    weights = np.full(n, window / (n - 1))
    weights[[0, -1]] *= 0.5
    weights /= window
    out = np.zeros(flat.shape[0] * freqs.size, dtype=complex)
    step = max(1, _CHUNK // flat.shape[0])
    for start in range(0, n, step):
        t = ts[start:start + step, None]
        rotated = np.conj(np.exp(1j * (t * lam)))[:, None] * flat
        values = f(rotated.reshape(-1, flat.shape[1]))
        phases = np.exp(1j * (t * freqs)).reshape(t.size, 1, *freqs.shape)
        # values stays named, so numpy cannot elide this into values * phases
        # on large blocks: one operand order, and one rounding, at every size
        block = phases * values.reshape(t.size, flat.shape[0], *freqs.shape)
        out += weights[start:start + step] @ block.reshape(t.size, -1)
    return out.reshape(v.shape[:-1] + freqs.shape)


class QuadratureDrift:
    """Numerical effective drift: the trapezoid phase average of P.

    Independent of the analytic route on purpose; the two are compared as a
    correctness oracle for resonance enumeration and tensor assembly.
    """

    def __init__(self, frame, spec, window, n_quad=None):
        self.frame = frame
        self.spec = spec
        self.clusters = eigenvalue_clusters(frame)  # the effective noise's partition
        self.field = Field(spec, frame)
        self.window = float(window)
        if n_quad is None and self.window > 0:
            n_quad = default_quadrature_nodes(frame, self.window)
        self.n_quad = _node_count(self.window, n_quad)

    def __call__(self, state):
        lam = self.frame.eigenvalues
        return _phase_average(lambda x: eval_P(x, self.field), state, lam, lam,
                              self.window, self.n_quad)


def default_quadrature_nodes(frame, window):
    """Node count resolving every pairwise combination frequency about 4 times over."""
    span = max(1.0, 2.0 * float(frame.eigenvalues[-1]))
    return int(math.ceil(4.0 * window * span / (2.0 * math.pi))) + 1


def drift_route_residual(state, analytic, numerical, s=0.0):
    """Two built drift routes of one frame (the analytic ResonantDrift and the
    numerical QuadratureDrift) at state, and their Sobolev-s gap; reported by studies."""
    a, n = analytic(state), numerical(state)
    gap = sobolev_norm(a - n, s, analytic.frame.eigenvalues)
    return {"analytic": a, "numerical": n, "residual": float(gap)}


# -- scalar observables and their averages ---------------------------------

@dataclass(frozen=True)
class Observable:
    """Polynomial in (v, conj v): tuple of (coeff, v_powers, vbar_powers) terms.

    Powers are tuples of (mode index, exponent) pairs.
    """

    terms: tuple

    def __post_init__(self):
        cleaned = []
        for coeff, vpow, cpow in self.terms:
            cleaned.append((complex(coeff),
                            tuple((int(k), int(p)) for k, p in vpow),
                            tuple((int(k), int(p)) for k, p in cpow)))
        object.__setattr__(self, "terms", tuple(cleaned))

    def __call__(self, state):
        v = mode_vector(state)
        out = np.zeros(v.shape[:-1], dtype=complex)
        for coeff, vpow, cpow in self.terms:
            acc = np.full(v.shape[:-1], coeff, dtype=complex)
            for k, p in vpow:
                acc = acc * v[..., k] ** p
            for k, p in cpow:
                acc = acc * np.conj(v[..., k]) ** p
            out += acc
        return out

    def detunings(self, frame, target=None):
        """Per term, None when it is resonant against mode `target` (against
        zero when target is None), else its frequency gap, decided by
        frequency_rule(frame) as the resonance tables decide it."""
        values, tol, unit = frequency_rule(frame)
        shift = values[int(target)] if target is not None else 0
        gaps = [shift - (sum(p * values[k] for k, p in vpow) - sum(p * values[k] for k, p in cpow))
                for _, vpow, cpow in self.terms]
        return [None if abs(gap) <= tol else float(gap * unit) for gap in gaps]


def action_observable(k):
    """I_k as an observable: |v_k|^2 / 2."""
    return Observable(((0.5, ((k, 1),), ((k, 1),)),))


def monomial_observable(coeff, v=(), vbar=()):
    from collections import Counter
    return Observable(((coeff, tuple(Counter(v).items()), tuple(Counter(vbar).items())),))


def scalar_average(observable, frequencies, state, window, n_quad, target=None):
    """Finite-window average (1/T) int_0^T e^{i w_target t} f(rotate(-Wt) v) dt
    of each state of a (..., M) batch; one state gives a complex.

    target None drops the oscillating prefactor (the bracket average that
    commutes with the rotation flow).
    """
    freqs = np.asarray(frequencies, dtype=float)
    shift = freqs[int(target)] if target is not None else 0.0
    return _phase_average(observable, state, freqs, shift, window, n_quad)[()]


def scalar_average_limit(observable, frame, target=None):
    """Infinite-window limit of scalar_average: keep only resonant terms."""
    gaps = observable.detunings(frame, target)
    return Observable(tuple(term for term, gap in zip(observable.terms, gaps) if gap is None))
