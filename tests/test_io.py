"""Serialization round trips and artifact hygiene."""

import hashlib
import json
import os
from pathlib import Path
import re
import subprocess
import sys
import tracemalloc

from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
import numpy as np
import pytest

from resonlab.errors import ConfigError, StaleArtifactError
from resonlab.integrators import (
    NoiseModel,
    SolverConfig,
    ensemble_full,
    integrate_full,
)
from resonlab.io import (
    canonical_bytes,
    content_hash,
    file_hash,
    load_ensemble_csv,
    load_trajectory,
    read_json,
    save_ensemble_csv,
    save_trajectory,
    write_json,
)
from resonlab.nonlinearity import NonlinearitySpec
from resonlab.resonance import TABLE_SCHEMA, ResonanceTable, build_resonance_table
from resonlab.spectral import Potential, TorusGeometry, build_frame, sample_ball

CUBIC = NonlinearitySpec("cubic_focusing", mu=0.3)


def test_trajectory_round_trip(tmp_path, frame_1d_5):
    a0 = sample_ball(frame_1d_5, 2.0, 1.0, np.random.default_rng(60))
    cfg = SolverConfig(epsilon=0.5, tau_end=0.5, dt=5e-3, samples=6)
    traj = integrate_full(a0, CUBIC, frame_1d_5, cfg)
    path = tmp_path / "run.jsonl"
    save_trajectory(path, traj, config=cfg)
    back = load_trajectory(path)
    assert np.array_equal(back.taus, traj.taus)
    assert np.array_equal(back.states, traj.states)  # repr round trip is exact
    assert back.epsilon == 0.5 and back.frame_hash == frame_1d_5.content_hash()
    assert back.meta["config"]["dt"] == 5e-3
    assert back.seed is None


def test_batch_trajectory_round_trip(tmp_path, frame_1d_5):
    # a batch run's file records the frame's mode count, not the member count,
    # and nests one list per member in each sample record
    rng = np.random.default_rng(61)
    batch = np.array([sample_ball(frame_1d_5, 2.0, 1.0, rng) for _ in range(3)])
    cfg = SolverConfig(epsilon=0.5, tau_end=0.5, dt=5e-3, samples=6)
    traj = integrate_full(batch, CUBIC, frame_1d_5, cfg)
    path = tmp_path / "batch.jsonl"
    save_trajectory(path, traj, config=cfg)
    header, first = (json.loads(line) for line in path.read_text().splitlines()[:2])
    assert header["modes"] == 5
    assert np.shape(first["re"]) == np.shape(first["actions"]) == (3, 5)
    back = load_trajectory(path)
    assert back.states.shape == (6, 3, 5)
    assert np.array_equal(back.states, traj.states)
    assert np.array_equal(back.actions(), traj.actions())


def test_stochastic_trajectory_keeps_noise_header(tmp_path, frame_1d_5):
    cfg = SolverConfig(epsilon=0.5, tau_end=0.2, dt=5e-3, scheme="expeuler", samples=3)
    noise = NoiseModel((0.2, 0.2, 0.2, 0.1, 0.1))
    traj = integrate_full(0.3 * np.ones(5, complex), CUBIC, frame_1d_5, cfg,
                          noise=noise, seed=9)
    path = tmp_path / "sde.jsonl"
    save_trajectory(path, traj, config=cfg)
    back = load_trajectory(path)
    assert back.seed == 9
    assert back.noise_doc["amplitudes"] == list(noise.amplitudes)
    assert "2 tau" in back.noise_doc["convention"]
    assert np.array_equal(back.states, traj.states)


def test_trajectory_schema_guard(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"schema": "other-v9"}\n')
    with pytest.raises(ConfigError):
        load_trajectory(path)


def test_ensemble_csv_round_trip(tmp_path, frame_1d_5):
    cfg = SolverConfig(epsilon=0.5, tau_end=0.3, dt=5e-3, scheme="expeuler", samples=4)
    res = ensemble_full(0.4 * np.ones(5, complex), CUBIC, frame_1d_5, cfg,
                        NoiseModel((0.3, 0.3, 0.3, 0.2, 0.2)), 8, seed_base=11)
    path = tmp_path / "ens.csv"
    save_ensemble_csv(path, res)
    taus, mean, var, stderr = load_ensemble_csv(path)
    assert np.array_equal(taus, res.taus)
    assert np.array_equal(mean, res.mean_actions)
    assert np.array_equal(var, res.var_actions)
    assert np.array_equal(stderr, res.stderr_actions)


def test_ensemble_csv_without_rows_is_refused(tmp_path):
    path = tmp_path / "ens.csv"
    path.write_text("tau,k,mean_I,var_I,stderr_I\n")
    with pytest.raises(ConfigError, match="no rows"):
        load_ensemble_csv(path)
    path.write_text("")
    with pytest.raises(ConfigError, match="header"):
        load_ensemble_csv(path)


def test_json_and_hash_helpers(tmp_path):
    doc = {"b": [1.0, 2.5e-17], "a": "x"}
    assert canonical_bytes(doc) == b'{"b":[1.0,2.5e-17],"a":"x"}'
    assert len(content_hash(doc)) == 64
    path = tmp_path / "doc.json"
    digest = write_json(path, doc)
    assert path.read_bytes() == canonical_bytes(doc) + b"\n"
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert read_json(path) == doc
    assert file_hash(path) == file_hash(path)


def test_write_json_refused_document_writes_nothing(tmp_path):
    fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
    write_json(kept, {"a": 1})
    before = kept.read_bytes()
    for path in (fresh, kept):
        with pytest.raises(ValueError):
            write_json(path, {"a": [1.0, 2.0], "b": float("nan")})
    assert not fresh.exists()
    assert kept.read_bytes() == before


def test_stale_artifact_guard(tmp_path, frame_1d_5, frame_1d_9):
    path = tmp_path / "frame.json"
    write_json(path, frame_1d_5.to_document())
    read_json(path, sha256=frame_1d_5.content_hash())
    read_json(path)  # unpinned references pass
    with pytest.raises(StaleArtifactError):
        read_json(path, sha256=frame_1d_9.content_hash())


# -- resonance-table rows ----------------------------------------------------

def _list_bytes(obj):
    return json.dumps(obj, separators=(",", ":")).encode()


def _as_lists(obj):
    """A document with every array as the lists json.loads would give."""
    if isinstance(obj, dict):
        return {k: _as_lists(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_as_lists(v) for v in obj]
    return obj.tolist() if isinstance(obj, np.ndarray) else obj


def _pinned(path, raw):
    """Write `raw` to `path`; return read_json's document pinned by its bytes."""
    path.write_bytes(raw)
    return read_json(path, sha256=hashlib.sha256(raw.removesuffix(b"\n")).hexdigest())


# indices at the 9/10, 99/100 and 10**5 digit boundaries, and between them
_INDICES = st.one_of(st.sampled_from([0, 1, 9, 10, 99, 100, 99_999, 100_000]),
                     st.integers(0, 10 ** 6))


@settings(max_examples=60, deadline=None)
@given(arrays(np.intp, st.tuples(st.integers(0, 12), st.integers(1, 5)),
              elements=_INDICES))
@example(np.zeros((0, 1), np.intp))
@example(np.array([[9], [10], [99], [100], [99_999], [100_000]]))
def test_index_rows_codec_matches_list_encoding(tmp_path_factory, rows):
    assert canonical_bytes(rows) == _list_bytes(rows.tolist())
    doc = {"schema": TABLE_SCHEMA,
           "resonances": [{"pattern": [1] * rows.shape[1], "target": 0, "tuples": rows}]}
    path = tmp_path_factory.mktemp("rows") / "table.json"
    write_json(path, doc)
    back = read_json(path, sha256=content_hash(doc))["resonances"][0]["tuples"]
    if rows.size:
        assert isinstance(back, np.ndarray) and back.dtype == np.intp
        assert not back.flags.writeable and np.array_equal(back, rows)
    else:
        assert back == []  # as json.loads gives it; from_document knows the width


def test_canonical_bytes_writes_any_integer_rows():
    cases = [np.array([[-5, 0, 3], [-(2 ** 63), 2 ** 63 - 1, -10]]),
             np.array([[-128, 127, 0]], np.int8),
             np.array([[2 ** 64 - 1, 0]], np.uint64),
             np.zeros((3, 0), np.intp)]
    for rows in cases:
        assert canonical_bytes({"rows": rows}) == _list_bytes({"rows": rows.tolist()})
    # a document string that spells the writer's placeholder changes nothing
    doc = {"s": "\0resonlab-rows\0", "rows": cases[0]}
    assert canonical_bytes(doc) == _list_bytes(_as_lists(doc))
    with pytest.raises(TypeError):
        canonical_bytes({"rows": np.array([[0.5]])})


def test_noncanonical_table_payloads_read_as_json_loads(tmp_path, frame_1d_9):
    table = build_resonance_table(frame_1d_9)
    canonical = canonical_bytes(table.to_document()) + b"\n"
    rows = table.resonances[(1, -1, 1)][3].tolist()
    payload = _list_bytes(rows)
    assert payload.startswith(b"[[0,0,3],")

    def edit(new_payload):
        return canonical.replace(payload, new_payload, 1)

    variants = {
        "canonical": canonical,
        "indented": json.dumps(json.loads(canonical), indent=2).encode(),
        "float": edit(b"[[0.0,0,3]," + payload[9:]),
        "integral float": edit(b"[[0,0,3.0]," + payload[9:]),
        "bool": edit(b"[[false,0,3]," + payload[9:]),
        "whitespace": edit(json.dumps(rows).encode()),
        "leading zero": edit(b"[[00,0,3]," + payload[9:]),
        "ragged": edit(b"[[0,0]," + payload[9:]),
        "empty index": edit(b"[[0,,3]," + payload[9:]),
        "nested": edit(b"[[[0],0,3]," + payload[9:]),
        "negative": edit(b"[[-0,0,3]," + payload[9:]),
        "past int64": edit(b"[[0,0,30000000000000000000]," + payload[9:]),
        "constant elsewhere": canonical.replace(b'"gamma_min":1.0', b'"gamma_min":Infinity'),
    }
    for name, raw in variants.items():
        assert name == "canonical" or raw != canonical, name
        path = tmp_path / f"{name}.json"
        try:
            expected = json.loads(raw)
        except ValueError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                _pinned(path, raw)
            continue
        got = _pinned(path, raw)
        assert _as_lists(got) == expected, name
        as_array = isinstance(got["resonances"][3]["tuples"], np.ndarray)
        assert as_array == (name == "canonical"), name
        outcomes = []
        for doc in (got, expected):
            try:
                outcomes.append(_as_lists(ResonanceTable.from_document(doc).resonances))
            except ConfigError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], name


@pytest.fixture(scope="module")
def table_2d_49(tmp_path_factory):
    """The 2-D M=49 resonance table (298,113 rows) and its file."""
    frame = build_frame(TorusGeometry((2 * np.pi, 2 * np.pi), 32), Potential.zero(), 49)
    table = build_resonance_table(frame)
    path = tmp_path_factory.mktemp("table49") / "table.json"
    return table, path, write_json(path, table.to_document())


def test_2d_table_file_is_the_list_encoding(table_2d_49):
    table, path, digest = table_2d_49
    assert sum(len(r) for r in table.resonances[(1, -1, 1)].values()) == 298_113
    raw = path.read_bytes()
    assert raw == _list_bytes(_as_lists(table.to_document())) + b"\n"
    assert digest == hashlib.sha256(raw).hexdigest()
    assert table.content_hash() == hashlib.sha256(raw[:-1]).hexdigest()


def test_2d_table_load_stays_in_arrays(table_2d_49):
    # as lists, the rows alone took 34.5 MiB in from_document; as arrays the
    # file bytes (3.1 MB) and the intp rows (7.2 MB) are most of the peak
    table, path, _ = table_2d_49
    tracemalloc.start()
    try:
        loaded = ResonanceTable.from_document(read_json(path, sha256=table.content_hash()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, f"loading the table peaked at {peak / 2 ** 20:.1f} MiB"
    for target, rows in table.resonances[(1, -1, 1)].items():
        assert np.array_equal(loaded.resonances[(1, -1, 1)][target], rows)


def test_importing_io_leaves_integrators_unloaded():
    # tables and frames are written and read without the solver modules, which
    # io imports only inside the trajectory helpers
    code = ("import sys, resonlab.io; "
            "print(sorted(m for m in sys.modules if m.startswith('resonlab.')))")
    root = Path(__file__).resolve().parent.parent
    result = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH="src"), timeout=120)
    assert result.returncode == 0, result.stderr
    loaded = result.stdout.strip()
    assert "resonlab.integrators" not in loaded and "resonlab.fields" not in loaded, loaded
