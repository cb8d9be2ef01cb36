"""Serialization round trips and artifact hygiene."""

import hashlib

import numpy as np
import pytest

from resonlab.errors import ConfigError, StaleArtifactError
from resonlab.integrators import (
    NoiseModel,
    SolverConfig,
    ensemble_full,
    integrate_full,
    integrate_full_stochastic,
)
from resonlab.io import (
    RunManifest,
    canonical_bytes,
    content_hash,
    file_hash,
    load_ensemble_csv,
    load_trajectory,
    read_json,
    save_ensemble_csv,
    save_trajectory,
    write_json,
    write_manifest,
)
from resonlab.nonlinearity import NonlinearitySpec
from resonlab.spectral import sample_ball

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


def test_stochastic_trajectory_keeps_noise_header(tmp_path, frame_1d_5):
    cfg = SolverConfig(epsilon=0.5, tau_end=0.2, dt=5e-3, scheme="expeuler", samples=3)
    noise = NoiseModel((0.2, 0.2, 0.2, 0.1, 0.1))
    traj = integrate_full_stochastic(0.3 * np.ones(5, complex), CUBIC, frame_1d_5,
                                     cfg, noise, seed=9)
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


def test_manifest_document(tmp_path):
    man = RunManifest(command="basis", config_path="../cfg.json", config={"k": 1},
                      version="0.1.0",
                      timestamp="2026-01-01T00:00:00Z", seed=7,
                      outputs={"b.json": "ff", "a.json": "aa"})
    path = write_manifest(tmp_path, man)
    doc = read_json(path)
    assert doc["schema"] == "resonlab-manifest-v2"
    assert list(doc["outputs"]) == ["a.json", "b.json"]  # sorted for stability
    assert doc["seed"] == 7 and doc["command"] == "basis"


def test_stale_artifact_guard(tmp_path, frame_1d_5, frame_1d_9):
    path = tmp_path / "frame.json"
    write_json(path, frame_1d_5.to_document())
    read_json(path, sha256=frame_1d_5.content_hash())
    read_json(path)  # unpinned references pass
    with pytest.raises(StaleArtifactError):
        read_json(path, sha256=frame_1d_9.content_hash())
