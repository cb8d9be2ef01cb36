"""Artifact serialization: canonical JSON, trajectory JSON-lines, CSV tables.

All hashes are sha256.  Two kinds appear: content hashes of canonical JSON
documents (stable across reformatting, used to link artifacts together) and
raw file hashes (used by manifests to pin output bytes).  A JSON artifact is
its document's canonical bytes plus a newline, so the two hashes of one
artifact differ only by that newline.  Floats are written
through Python's shortest round-trip repr, so reading a file back reproduces
the exact binary values.
"""

import csv
from dataclasses import dataclass, field
import hashlib
import json
import os

import numpy as np

from .errors import ConfigError, StaleArtifactError
from .integrators import NOISE_CONVENTION, Trajectory

TRAJECTORY_SCHEMA = "resonlab-trajectory-v1"
REPORT_SCHEMA = "resonlab-report-v1"
MANIFEST_SCHEMA = "resonlab-manifest-v2"


def canonical_bytes(doc):
    """Compact single-line JSON; key order is the document's construction order."""
    return json.dumps(doc, separators=(",", ":"), allow_nan=False).encode()


def content_hash(doc):
    return hashlib.sha256(canonical_bytes(doc)).hexdigest()


def file_hash(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_json(path, doc):
    """One line of canonical bytes: the file's sha256 without its final
    newline is content_hash(doc).  A refused document writes nothing."""
    data = canonical_bytes(doc) + b"\n"
    with open(path, "wb") as fh:
        fh.write(data)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# -- trajectories -----------------------------------------------------------

def _trajectory_lines(trajectory, config=None):
    header = {
        "schema": TRAJECTORY_SCHEMA,
        "modes": int(trajectory.states.shape[1]),
        "scheme": trajectory.scheme,
        "epsilon": trajectory.epsilon,
        "seed": trajectory.seed,
        "frame_sha256": trajectory.frame_hash,
        "noise": trajectory.noise_doc,
        "noise_convention": NOISE_CONVENTION,
        "config": None if config is None else config.to_document(),
    }
    yield json.dumps(header, separators=(",", ":"), allow_nan=False) + "\n"
    acts = trajectory.actions()
    for i, tau in enumerate(trajectory.taus):
        row = {
            "tau": float(tau),
            "re": trajectory.states[i].real.tolist(),
            "im": trajectory.states[i].imag.tolist(),
            "actions": acts[i].tolist(),
        }
        yield json.dumps(row, separators=(",", ":"), allow_nan=False) + "\n"


def save_trajectory(path, trajectory, config=None):
    """JSON-lines: a header record, then one record per sample."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_trajectory_lines(trajectory, config))


def trajectory_hash(trajectory, config=None):
    """sha256 of the exact bytes save_trajectory would emit."""
    digest = hashlib.sha256()
    for line in _trajectory_lines(trajectory, config):
        digest.update(line.encode("utf-8"))
    return digest.hexdigest()


def load_trajectory(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        if header.get("schema") != TRAJECTORY_SCHEMA:
            raise ConfigError(f"unknown trajectory schema {header.get('schema')!r}")
        taus, states = [], []
        for line in fh:
            row = json.loads(line)
            taus.append(row["tau"])
            states.append(np.array(row["re"]) + 1j * np.array(row["im"]))
    return Trajectory(
        taus=np.array(taus), states=np.array(states), scheme=header["scheme"],
        epsilon=header["epsilon"], seed=header["seed"],
        frame_hash=header["frame_sha256"], noise_doc=header["noise"],
        meta={"config": header.get("config")})


# -- ensemble summaries -----------------------------------------------------

_ENSEMBLE_COLUMNS = ("tau", "k", "mean_I", "var_I", "stderr_I")


def _ensemble_lines(result):
    yield ",".join(_ENSEMBLE_COLUMNS) + "\n"
    modes = result.mean_actions.shape[1]
    for i, tau in enumerate(result.taus):
        for k in range(modes):
            yield ",".join([repr(float(tau)), str(k),
                            repr(float(result.mean_actions[i, k])),
                            repr(float(result.var_actions[i, k])),
                            repr(float(result.stderr_actions[i, k]))]) + "\n"


def save_ensemble_csv(path, result):
    """Long-format table: one row per (sample time, mode)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_ensemble_lines(result))


def ensemble_hash(result):
    """sha256 of the exact bytes save_ensemble_csv would emit."""
    digest = hashlib.sha256()
    for line in _ensemble_lines(result):
        digest.update(line.encode("utf-8"))
    return digest.hexdigest()


def load_ensemble_csv(path):
    """Back to arrays: taus (S,), mean/var/stderr (S, modes)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        head = next(reader)
        if tuple(head) != _ENSEMBLE_COLUMNS:
            raise ConfigError(f"unexpected ensemble CSV header {head}")
        rows = [(float(r[0]), int(r[1]), float(r[2]), float(r[3]), float(r[4]))
                for r in reader]
    taus = sorted({r[0] for r in rows})
    modes = 1 + max(r[1] for r in rows)
    index = {t: i for i, t in enumerate(taus)}
    mean = np.zeros((len(taus), modes))
    var = np.zeros_like(mean)
    stderr = np.zeros_like(mean)
    for tau, k, m, v, s in rows:
        i = index[tau]
        mean[i, k], var[i, k], stderr[i, k] = m, v, s
    return np.array(taus), mean, var, stderr


# -- study reports ----------------------------------------------------------

def save_table_csv(path, columns, rows):
    """Generic companion table; rows are sequences aligned with `columns`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([repr(float(x)) if isinstance(x, float) else x for x in row])


def write_report(out_dir, report):
    """Report JSON plus one CSV per table; returns {filename: file hash}."""
    os.makedirs(out_dir, exist_ok=True)
    doc = report.to_document()
    files = {}
    report_path = os.path.join(out_dir, "report.json")
    write_json(report_path, doc)
    files["report.json"] = file_hash(report_path)
    for name, table in report.tables.items():
        csv_name = f"{name}.csv"
        csv_path = os.path.join(out_dir, csv_name)
        save_table_csv(csv_path, table["columns"], table["rows"])
        files[csv_name] = file_hash(csv_path)
    return files


# -- manifests --------------------------------------------------------------

@dataclass
class RunManifest:
    """Provenance of one CLI invocation; exactly one per output directory."""

    command: str
    config_path: str | None  # relative to the output directory
    config: dict | None
    version: str
    timestamp: str
    seed: int | None = None
    outputs: dict = field(default_factory=dict)  # filename -> sha256 of bytes

    def to_document(self):
        return {
            "schema": MANIFEST_SCHEMA,
            "command": self.command,
            "config_path": self.config_path,
            "config": self.config,
            "version": self.version,
            "timestamp": self.timestamp,
            "seed": self.seed,
            "outputs": dict(sorted(self.outputs.items())),
        }


def write_manifest(out_dir, manifest):
    path = os.path.join(out_dir, "manifest.json")
    write_json(path, manifest.to_document())
    return path


def check_frame_reference(frame, expected_hash, what="frame"):
    """Refuse to consume an artifact whose content hash drifted."""
    if expected_hash is not None and frame.content_hash() != expected_hash:
        raise StaleArtifactError(
            f"{what} hash {frame.content_hash()[:12]}... does not match the "
            f"referenced {expected_hash[:12]}...; rebuild the artifact")
