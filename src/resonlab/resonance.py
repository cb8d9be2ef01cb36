"""Resonance bookkeeping: the equal-frequency rule, eigenvalue clusters,
resonant index sets, noise blocks.

frequency_rule is the one place that decides whether two frequencies are
equal: on square tori with V = 0 it compares scaled integer frequencies
exactly, otherwise eigenvalues within a relative tolerance eta.  Clusters,
enumerated resonances, gaps and the noise blocks all take it from there.
"""

from dataclasses import dataclass
import itertools
import math

import numpy as np

from .errors import (ConfigError, UnsupportedModeError, ValidationError, check_int,
                     check_keys, check_list, check_real)

DEFAULT_ETA = 1e-8
TABLE_SCHEMA = "resonlab-resonance-v1"
TABLE_MODES = ("exact", "float")  # the arithmetic a table was built with
TWO_PI = 2.0 * math.pi


def check_ascending(eigenvalues):
    """The eigenvalue list as a float vector, refused unless nonempty and ascending."""
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise ConfigError("eigenvalue list must be a nonempty vector")
    if np.any(np.diff(lam) < -1e-12 * np.maximum(1.0, np.abs(lam[:-1]))):
        raise ValidationError("eigenvalue list must be ascending")
    return lam


def _integer_frequencies(frame):
    """Scaled integer eigenvalues for the completely resonant case, else None.

    Available when the torus is square (all sides equal) and the potential
    vanishes; then lambda_k = (2 pi / L)^2 * |m_k|^2 and the integer part is
    recovered exactly.
    """
    geo = frame.geometry
    if not frame.potential.is_zero:
        return None
    if any(L != geo.lengths[0] for L in geo.lengths):
        return None
    scale = (TWO_PI / geo.lengths[0]) ** 2
    scaled = frame.eigenvalues / scale
    ints = np.rint(scaled).astype(np.int64)
    if np.max(np.abs(scaled - ints)) > 1e-9:
        return None
    return ints


def frequency_rule(frame, eta=DEFAULT_ETA, mode="auto"):
    """The equal-frequency rule of a frame, as (values, tol, unit).

    Signed sums of values are equal frequencies when they differ by at most
    tol, and unit turns their difference into a frequency.  mode "exact"
    compares the scaled integer frequencies of a square torus with V = 0,
    (integers, 0, lambda_max / int_max), and refuses other frames; "float"
    compares eigenvalues, (lambda, eta * max(1, max |lambda|), 1); "auto" is
    exact where it can be.  An ascending eigenvalue list in place of a frame
    has no exact mode.
    """
    if mode not in ("auto", "exact", "float"):
        raise ConfigError(f"unknown resonance mode {mode!r}")
    if not eta >= 0:
        raise ConfigError(f"resonance tolerance eta must be nonnegative, got {eta}")
    is_frame = hasattr(frame, "geometry")
    lam = check_ascending(frame.eigenvalues if is_frame else frame)
    ints = _integer_frequencies(frame) if is_frame and mode != "float" else None
    if ints is not None:
        return ints, 0, (float(lam[-1] / ints[-1]) if ints[-1] != 0 else 1.0)
    if mode == "exact":
        raise UnsupportedModeError("exact arithmetic needs a square torus with V = 0")
    return lam, eta * max(1.0, float(np.max(np.abs(lam)))), 1.0


def eigenvalue_clusters(frame, eta=DEFAULT_ETA, mode="auto"):
    """Partition mode indices into clusters of equal frequency: runs of adjacent
    values of frequency_rule(frame, eta, mode) within its tol (transitive
    closure along the sorted list)."""
    values, tol, _ = frequency_rule(frame, eta, mode)
    cuts = np.flatnonzero(np.abs(np.diff(values)) > tol) + 1
    return [c.tolist() for c in np.split(np.arange(values.size), cuts)]


# -- frequency enumeration (general frame) ---------------------------------

class SortedSums:
    """One pattern's signed sums S[i1,...,iD] = sum_j pattern_j * values[i_j] over
    all index tuples, flattened in C order and sorted once.

    Every target then reads its resonant band, and the nearest sums outside
    it, by binary search: the sums passing |S - v| <= tol are contiguous in
    sorted order, because rounded subtraction is monotone.
    """

    def __init__(self, values, pattern):
        D = len(pattern)
        S = np.zeros((1,) * D)
        for j, sign in enumerate(pattern):
            shape = [1] * D
            shape[j] = values.size
            S = S + sign * values.reshape(shape)
        self.shape = S.shape
        self.order = np.argsort(S, axis=None)
        self.sums = S.ravel()[self.order]

    def band(self, v, tol):
        """Sorted positions [a, b) of the sums with |S - v| <= tol.

        Two searches find a band widened past any rounding of v -+ tol; the
        test itself runs on those candidates only.  Every sum below a has a
        rounded S - v < -tol, every sum from b on one > tol.
        """
        pad = tol + 1e-12 * (abs(v) + tol)
        lo = int(np.searchsorted(self.sums, v - pad, side="left"))
        hi = int(np.searchsorted(self.sums, v + pad, side="right"))
        dev = self.sums[lo:hi] - v
        return (lo + int(np.count_nonzero(dev < -tol)),
                hi - int(np.count_nonzero(dev > tol)))

    def rows(self, a, b):
        """Index tuples of sorted positions [a, b) as a read-only (n, D) intp
        array in lexicographic order."""
        flat = np.sort(self.order[a:b])
        rows = np.stack(np.unravel_index(flat, self.shape), axis=1)
        rows.flags.writeable = False
        return rows

    def gap(self, v, tol):
        """Smallest |S - v| over the sums with |S - v| > tol, or inf."""
        a, b = self.band(v, tol)
        near = [abs(self.sums[i] - v) for i in (a - 1, b) if 0 <= i < self.sums.size]
        return float(min(near)) if near else math.inf


def enumerate_frequency_resonances(frame, pattern, target, eta=DEFAULT_ETA, mode="auto",
                                   sums=None):
    """Mode-index tuples whose signed frequency sum matches mode `target`.

    pattern is a tuple of +-1 signs, one per monomial slot (+1 for a plain
    factor, -1 for a conjugated one); frequencies are compared by
    frequency_rule(frame, eta, mode).  Returns a read-only (n, len(pattern))
    intp array, one tuple per row, in lexicographic order.  sums is the
    pattern's SortedSums under the same rule, built here when None.
    """
    values, tol, _ = frequency_rule(frame, eta, mode)
    if not pattern or any(s not in (-1, 1) for s in pattern):
        raise ConfigError(f"pattern must be nonempty +-1 signs, got {pattern!r}")
    if not 0 <= target < values.size:
        raise ConfigError(f"target index {target} out of range")
    if sums is None:
        sums = SortedSums(values, pattern)
    return sums.rows(*sums.band(values[target], tol))


def minimal_frequency_gap(frame, patterns, eta=DEFAULT_ETA, mode="auto", sums=None):
    """Smallest nonresonant |deviation| over all targets and slot tuples.

    This is the spectral gap that controls how slowly oscillatory means decay,
    so averaging windows are sized against it.  Returns inf when every
    combination is resonant.  sums maps a pattern to its SortedSums under the
    same rule; they are built here when None.
    """
    values, tol, unit = frequency_rule(frame, eta, mode)
    best = math.inf
    for pattern in patterns:
        sorted_sums = sums[pattern] if sums is not None else SortedSums(values, pattern)
        for t in values:
            best = min(best, sorted_sums.gap(t, tol) * unit)
    return best


@dataclass
class ResonanceTable:
    """Resonant structure of one eigenvalue list under declared sign patterns."""

    eigenvalues: np.ndarray
    eta: float
    mode: str  # one of TABLE_MODES
    clusters: list
    resonances: dict  # pattern tuple -> {target index -> (n, len(pattern)) intp array}
    gamma_min: float
    frame_hash: str | None = None

    def suggested_window(self, periods=50.0):
        """Averaging window covering `periods` slow beats of the smallest gap."""
        if not math.isfinite(self.gamma_min):
            return periods * TWO_PI
        return periods * TWO_PI / self.gamma_min

    def to_document(self):
        entries = []
        for pattern in sorted(self.resonances):
            for target in sorted(self.resonances[pattern]):
                entries.append({
                    "pattern": list(pattern),
                    "target": target,
                    "tuples": self.resonances[pattern][target],
                })
        doc = {
            "schema": TABLE_SCHEMA,
            "lambda": np.asarray(self.eigenvalues).tolist(),
            "eta_res": self.eta,
            "mode": self.mode,
            "gamma_min": self.gamma_min if math.isfinite(self.gamma_min) else None,
            "clusters": [list(c) for c in self.clusters],
            "resonances": entries,
        }
        if self.frame_hash is not None:
            doc["frame_sha256"] = self.frame_hash
        return doc

    def content_hash(self):
        from .io import content_hash  # io imports this module for TABLE_SCHEMA
        return content_hash(self.to_document())

    @staticmethod
    def from_document(doc):
        keys = ("schema", "lambda", "eta_res", "mode", "gamma_min", "clusters", "resonances")
        entry_keys = ("pattern", "target", "tuples")
        check_keys("table", doc, keys + ("frame_sha256",), required=keys)
        if doc["schema"] != TABLE_SCHEMA:
            raise ConfigError(f"unknown resonance schema {doc['schema']!r}")
        if doc["mode"] not in TABLE_MODES:
            raise ConfigError(f"table.mode must be one of {TABLE_MODES}, got {doc['mode']!r}")
        eigenvalues = np.array(doc["lambda"], dtype=float)
        modes = eigenvalues.size
        clusters = [[check_int(k, "table cluster index") for _, k in check_list(c, place)]
                    for place, c in check_list(doc["clusters"], "table.clusters")]
        if sorted(itertools.chain.from_iterable(clusters)) != list(range(modes)):
            raise ConfigError(f"table clusters must partition the modes 0..{modes - 1}")
        resonances = {}
        for where, entry in check_list(doc["resonances"], "table.resonances"):
            check_keys(where, entry, entry_keys, required=entry_keys)
            pattern = entry["pattern"]
            if (not isinstance(pattern, list) or not pattern
                    or any(type(s) is not int or s not in (-1, 1) for s in pattern)):
                raise ConfigError(f"{where}.pattern must be a nonempty list "
                                  f"of +-1 signs, got {pattern!r}")
            pattern = tuple(pattern)
            per_target = resonances.setdefault(pattern, {})
            target = entry["target"]
            if type(target) is not int or target not in range(modes) or target in per_target:
                raise ConfigError(f"resonance table pattern {pattern} lists target "
                                  f"{target!r}, not an integer in 0..{modes - 1}, "
                                  f"or twice")
            per_target[target] = _index_rows(entry["tuples"], pattern, target, modes)
        for pattern, per_target in resonances.items():
            missing = sorted(set(range(modes)) - set(per_target))
            if missing:
                raise ConfigError(f"resonance table pattern {pattern} lacks "
                                  f"target(s) {missing}")
        gamma = doc["gamma_min"]
        return ResonanceTable(
            eigenvalues=eigenvalues,
            eta=check_real(doc["eta_res"], "table.eta_res"),
            mode=doc["mode"],
            clusters=clusters,
            resonances=resonances,
            gamma_min=math.inf if gamma is None else check_real(gamma, "table.gamma_min"),
            frame_hash=doc.get("frame_sha256"),
        )


def _index_rows(tuples, pattern, target, modes):
    """A document's tuples, a list of rows or an integer array, as a read-only
    (n, len(pattern)) intp array.

    Refuses rows of another width and indices that are not integers in
    0..modes-1 (a boolean or a float is not one), naming the pattern and the
    target.
    """
    where = f"resonance table pattern {pattern}, target {target}"
    bad_index = ConfigError(f"{where}: indices must be integers in 0..{modes - 1}")
    width = len(pattern)
    rows = tuples
    if not isinstance(rows, np.ndarray):
        try:
            widths = np.fromiter(map(len, tuples), dtype=np.intp, count=len(tuples))
            flat = list(itertools.chain.from_iterable(tuples))
        except TypeError as exc:
            raise ConfigError(f"{where}: tuples must be lists of mode indices") from exc
        if np.any(widths != width):
            raise ConfigError(f"{where}: every row must hold {width} indices")
        if not all(type(i) is int and abs(i) < 2 ** 63 for i in flat):
            raise bad_index
        rows = np.array(flat, dtype=np.intp).reshape(widths.size, width)
    if rows.ndim != 2 or rows.shape[1] != width:
        raise ConfigError(f"{where}: every row must hold {width} indices")
    if rows.dtype.kind not in "iu" or not np.all((rows >= 0) & (rows < modes)):
        raise bad_index
    if rows.dtype != np.intp or rows.flags.writeable:
        rows = rows.astype(np.intp)
        rows.flags.writeable = False
    return rows


def build_resonance_table(frame, patterns=((1, -1, 1),), eta=DEFAULT_ETA, mode="auto"):
    """Enumerate clusters and resonant tuples of a frame for the given patterns.

    Frequencies are compared by frequency_rule(frame, eta, mode).
    """
    patterns = tuple(tuple(check_int(s, "pattern sign") for _, s in check_list(p, where))
                     for where, p in check_list(patterns, "patterns"))
    values, _, _ = frequency_rule(frame, eta, mode)
    mode = "exact" if values.dtype.kind == "i" else "float"  # exact values are integers
    lam = frame.eigenvalues
    sums = {pattern: SortedSums(values, pattern) for pattern in patterns}
    # called once per target through the module name, so that a caller's
    # wrapper around enumerate_frequency_resonances sees every call
    resonances = {pattern: {target: enumerate_frequency_resonances(frame, pattern, target,
                                                                   eta, mode, sums[pattern])
                            for target in range(lam.size)}
                  for pattern in patterns}
    return ResonanceTable(
        eigenvalues=lam.copy(),
        eta=eta,
        mode=mode,
        clusters=eigenvalue_clusters(frame, eta, mode),
        resonances=resonances,
        gamma_min=minimal_frequency_gap(frame, patterns, eta, mode, sums),
        frame_hash=frame.content_hash(),
    )


# -- diffusion blocks ------------------------------------------------------

@dataclass
class DiffusionSpec:
    """Effective noise covariance A and its principal square root B."""

    matrix: np.ndarray
    root: np.ndarray

    def validate(self):
        A, B, tol = self.matrix, self.root, 1e-10
        if np.max(np.abs(B @ B - A)) > tol:
            raise ValidationError("principal root check B @ B = A failed")
        if np.max(np.abs(B - B.T)) > tol:
            raise ValidationError("principal root is not symmetric")
        w = np.linalg.eigvalsh(B)
        if w.min() < -tol:
            raise ValidationError("principal root is not positive semidefinite")


def build_diffusion(frame, amplitudes, clusters):
    """Covariance of the effective noise and its blockwise principal root.

    A_kr = sum_l b_l^2 psi_kl psi_rl on the given clusters (the drift's partition),
    zero across clusters.  The square root is taken per cluster via symmetric
    eigendecomposition with tiny negative eigenvalues (>= -1e-12) clamped.
    """
    b = np.asarray(amplitudes, dtype=float)
    if b.shape != (frame.modes,):
        raise ConfigError(f"need {frame.modes} noise amplitudes, got shape {b.shape}")
    if np.any(b < 0):
        raise ConfigError("noise amplitudes must be nonnegative")
    full = (frame.eigenvectors * b ** 2) @ frame.eigenvectors.T
    A = np.zeros_like(full)
    B = np.zeros_like(full)
    for cluster in clusters:
        idx = np.ix_(cluster, cluster)
        block = full[idx]
        A[idx] = block
        w, U = np.linalg.eigh(0.5 * (block + block.T))
        if w.min() < -1e-12:
            raise ValidationError(f"diffusion block has negative eigenvalue {w.min():.3e}")
        B[idx] = (U * np.sqrt(np.clip(w, 0.0, None))) @ U.T
    spec = DiffusionSpec(matrix=A, root=B)
    spec.validate()
    return spec
