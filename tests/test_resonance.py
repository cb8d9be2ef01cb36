"""Cluster detection, resonance enumeration, and effective noise blocks."""

import copy
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resonlab.errors import ConfigError, UnsupportedModeError, ValidationError
from resonlab.io import canonical_bytes
from resonlab.resonance import (
    ResonanceTable,
    build_diffusion,
    build_resonance_table,
    eigenvalue_clusters,
    enumerate_frequency_resonances,
    frequency_rule,
    minimal_frequency_gap,
)
from resonlab.spectral import Potential, SpectralFrame, TorusGeometry, build_frame, trig_basis

TAU = 2 * np.pi


# -- oracles ---------------------------------------------------------------

def brute_force_frequency(lam, pattern, target, eta):
    out = []
    scale = max(1.0, max(abs(x) for x in lam))
    for tup in itertools.product(range(len(lam)), repeat=len(pattern)):
        s = sum(sign * lam[i] for sign, i in zip(pattern, tup))
        if abs(s - lam[target]) <= eta * scale:
            out.append(tup)
    return out


# -- clusters --------------------------------------------------------------

def test_exact_clusters(frame_1d_5):
    ints, tol, unit = frequency_rule(frame_1d_5)
    assert ints.tolist() == [0, 1, 1, 4, 4] and tol == 0 and unit == 1.0
    assert eigenvalue_clusters(frame_1d_5, mode="exact") == [[0], [1, 2], [3, 4]]


def test_near_degenerate_merging():
    lam = np.array([1.0, 1.0 + 1e-12, 2.0])
    assert eigenvalue_clusters(lam, eta=1e-8) == [[0, 1], [2]]
    assert eigenvalue_clusters(lam, eta=1e-14) == [[0], [1], [2]]


@pytest.mark.parametrize("name", ["frame_1d_5", "frame_1d_9", "frame_1d_9_cos",
                                  "frame_2d_9", "frame_2d_25", None])
def test_clusters_are_linear_resonances(name, request):
    # j shares target t's cluster exactly when (j,) is a pattern-(1,) resonance
    # of t.  None plants 1 and 1 + 1e-6 on a spectrum reaching 1000: they are
    # one frequency within DEFAULT_ETA * max(1, max |lambda|) = 1e-5, though a
    # per-eigenvalue tolerance 1e-8 * |lambda_k| would keep them apart.
    if name is None:
        lam = np.array([0.0, 1.0, 1.0 + 1e-6, 4.0, 1000.0])
        cases = [(eigenvalue_clusters(lam),
                  {t: enumerate_frequency_resonances(lam, (1,), t) for t in range(lam.size)})]
        assert cases[0][0] == [[0], [1, 2], [3], [4]]
    else:
        frame = request.getfixturevalue(name)
        cases = []
        for mode in ("float", "exact"):
            if mode == "exact" and not frame.potential.is_zero:
                continue
            table = build_resonance_table(frame, patterns=((1,),), mode=mode)
            cases.append((table.clusters, table.resonances[(1,)]))
    for clusters, linear in cases:
        assert sorted(t for cluster in clusters for t in cluster) == list(range(len(linear)))
        for cluster in clusters:
            for t in cluster:
                assert [j for (j,) in linear[t].tolist()] == cluster


def test_clusters_reject_unsorted():
    with pytest.raises(ValidationError):
        eigenvalue_clusters(np.array([1.0, 0.5]))


def test_integer_fast_path_requires_square_flat_torus(frame_1d_9_cos):
    rect = build_frame(TorusGeometry((TAU, TAU / 2), 16), Potential.zero(), 9)
    for frame in (frame_1d_9_cos, rect):
        values, tol, unit = frequency_rule(frame)
        assert values is frame.eigenvalues and tol > 0 and unit == 1.0
        with pytest.raises(UnsupportedModeError):
            frequency_rule(frame, mode="exact")


# -- frequency enumeration -------------------------------------------------

def _as_lists(resonances):
    return {p: {t: rows.tolist() for t, rows in per.items()} for p, per in resonances.items()}


def test_frequency_enumeration_matches_brute_force(frame_1d_5):
    lam = frame_1d_5.eigenvalues
    cases = [(lam, pattern, target) for pattern in [(1,), (1, -1, 1), (1, 1, -1)]
             for target in range(5)]
    cases.append((np.array([1.0, 3.0]), (1, 1), 0))  # no hit: shape (0, 2)
    for lam, pattern, target in cases:
        got = enumerate_frequency_resonances(lam, pattern, target)
        expected = brute_force_frequency(list(lam), pattern, target, 1e-8)
        assert got.dtype == np.intp and got.shape == (len(expected), len(pattern))
        assert not got.flags.writeable
        assert got.tolist() == [list(t) for t in expected]


def test_linear_pattern_recovers_clusters(frame_1d_9):
    lam = frame_1d_9.eigenvalues
    got = enumerate_frequency_resonances(lam, (1,), 1)
    assert got.tolist() == [[1], [2]]  # the lambda = 1 pair


def test_exact_and_float_agree_on_square_torus(frame_1d_9, frame_2d_25):
    wide = build_frame(TorusGeometry((2 * TAU,), 32), Potential.zero(), 9)
    for frame, gap in ((frame_1d_9, 1.0), (frame_2d_25, 1.0), (wide, 0.25)):
        exact = build_resonance_table(frame, mode="exact")
        fl = build_resonance_table(frame, mode="float")
        assert exact.mode == "exact" and fl.mode == "float"
        assert _as_lists(exact.resonances) == _as_lists(fl.resonances)
        assert exact.clusters == fl.clusters
        assert exact.gamma_min == fl.gamma_min == gap


def test_exact_mode_refuses_generic_frame(frame_1d_9_cos):
    with pytest.raises(UnsupportedModeError):
        build_resonance_table(frame_1d_9_cos, mode="exact")


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_eta_monotonicity(seed):
    rng = np.random.default_rng(seed)
    lam = np.sort(rng.uniform(0, 10, 6))
    small = set(map(tuple, enumerate_frequency_resonances(lam, (1, -1, 1), 2,
                                                          eta=1e-10).tolist()))
    large = set(map(tuple, enumerate_frequency_resonances(lam, (1, -1, 1), 2,
                                                          eta=1e-2).tolist()))
    assert small <= large


def test_minimal_gap_integer_case(frame_1d_9):
    gap = minimal_frequency_gap(frame_1d_9, [(1, -1, 1)], mode="exact")
    assert gap == 1.0


def test_minimal_gap_scales_with_torus_size():
    frame = build_frame(TorusGeometry((2 * TAU,), 32), Potential.zero(), 5)
    assert frequency_rule(frame, mode="exact")[0].tolist() == [0, 1, 1, 4, 4]
    gap = minimal_frequency_gap(frame, [(1, -1, 1)], mode="exact")
    assert gap == pytest.approx(0.25, rel=1e-12)  # (2 pi / L)^2 = 1/4


def test_table_round_trip(frame_1d_5):
    table = build_resonance_table(frame_1d_5, patterns=((1, -1, 1), (1,)))
    doc = table.to_document()
    rebuilt = ResonanceTable.from_document(doc)
    assert _as_lists(rebuilt.resonances) == _as_lists(table.resonances)
    for per_target in rebuilt.resonances.values():
        for rows in per_target.values():
            assert rows.dtype == np.intp and not rows.flags.writeable
    assert rebuilt.content_hash() == table.content_hash()
    assert rebuilt.gamma_min == table.gamma_min


def test_table_document_refuses_malformed_tuples(frame_1d_9):
    doc = build_resonance_table(frame_1d_9).to_document()
    assert [e["target"] for e in doc["resonances"]] == list(range(9))

    def tamper(edit):
        bad = json.loads(canonical_bytes(doc))
        edit(bad["resonances"])
        return bad

    def set_first_row(entries, row):
        entries[3]["tuples"][0] = row

    cases = {
        "negative index": (lambda e: set_first_row(e, [3, -1, 3]), "target 3"),
        "index past the last mode": (lambda e: set_first_row(e, [3, 9, 3]), "target 3"),
        "short row": (lambda e: set_first_row(e, [3, 3]), "target 3"),
        "all rows too wide": (lambda e: e[3].update(tuples=[r + [0] for r in e[3]["tuples"]]),
                              "target 3"),
        "fractional index": (lambda e: set_first_row(e, [3, 1.5, 1]), "target 3"),
        "row that is no list": (lambda e: set_first_row(e, None), "target 3"),
        "missing target": (lambda e: e.pop(3), r"target\(s\) \[3\]"),
        "duplicate target": (lambda e: e.append(copy.deepcopy(e[3])), "target 3"),
        "target out of range": (lambda e: e[3].update(target=9), "target 9"),
        "boolean index": (lambda e: set_first_row(e, [3, True, 3]), "target 3"),
        "integral float index": (lambda e: set_first_row(e, [3, 2.0, 2]), "target 3"),
        "boolean target": (lambda e: e[3].update(target=True), "target True"),
        "integral float target": (lambda e: e[3].update(target=3.0), r"target 3\.0"),
    }
    for name, (edit, where) in cases.items():
        with pytest.raises(ConfigError, match=rf"pattern \(1, -1, 1\).*{where}"):
            ResonanceTable.from_document(tamper(edit))
            pytest.fail(name)


def test_suggested_window(frame_1d_5):
    table = build_resonance_table(frame_1d_5)
    assert table.suggested_window() == pytest.approx(50 * TAU)


# -- diffusion -------------------------------------------------------------

def test_diffusion_identity_frame(frame_1d_5):
    b = np.array([1.0, 0.5, 0.5, 0.25, 0.2])
    spec = build_diffusion(frame_1d_5, b)
    # psi = identity: the covariance is diagonal even inside clusters
    assert np.allclose(spec.matrix, np.diag(b ** 2), atol=1e-14)
    assert np.allclose(spec.root, np.diag(b), atol=1e-14)


def test_diffusion_mixed_cluster():
    # rotate the degenerate lambda = 1 pair: a valid frame with mixing rows
    geometry = TorusGeometry((TAU,), 32)
    basis = trig_basis(1, 5)
    c, s = np.cos(0.7), np.sin(0.7)
    psi = np.eye(5)
    psi[1:3, 1:3] = [[c, s], [-s, c]]
    lam = np.array([0.0, 1.0, 1.0, 4.0, 4.0])
    frame = SpectralFrame(geometry, Potential.zero(), basis, lam, psi)
    b = np.array([0.3, 0.8, 0.2, 0.1, 0.1])
    spec = build_diffusion(frame, b)
    idx = np.ix_([1, 2], [1, 2])
    block = (psi[1:3] * b ** 2) @ psi[1:3].T
    assert np.allclose(spec.matrix[idx], block, atol=1e-14)
    assert not np.allclose(spec.matrix[1, 2], 0.0)
    assert np.max(np.abs(spec.root @ spec.root - spec.matrix)) < 1e-10
    # cross-cluster entries vanish even though psi mixes only inside the pair
    assert spec.matrix[0, 1] == 0.0 and spec.matrix[3, 1] == 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_principal_root_properties(seed):
    rng = np.random.default_rng(seed)
    frame_psi = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    geometry = TorusGeometry((TAU, TAU), 16)
    # freestanding PSD block check: root of masked covariance is symmetric PSD
    b = rng.uniform(0, 1, 4)
    A = (frame_psi * b ** 2) @ frame_psi.T
    w, U = np.linalg.eigh(0.5 * (A + A.T))
    B = (U * np.sqrt(np.clip(w, 0, None))) @ U.T
    assert np.max(np.abs(B @ B - A)) < 1e-12
    assert np.min(np.linalg.eigvalsh(B)) > -1e-12


def test_diffusion_rejects_bad_amplitudes(frame_1d_5):
    with pytest.raises(ConfigError):
        build_diffusion(frame_1d_5, np.array([1.0, -0.5, 0.5, 0.25, 0.2]))
    with pytest.raises(ConfigError):
        build_diffusion(frame_1d_5, np.ones(4))
