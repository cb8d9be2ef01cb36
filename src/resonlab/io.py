"""Artifact bytes and their sha256: canonical JSON, trajectory JSON-lines,
CSV tables and plain text.

One loop turns an artifact's byte chunks into a sha256 and, given a path,
writes them: every writer returns the digest of what it wrote, and
`content_hash`, `trajectory_hash` and `ensemble_hash` are the same loop with
no path.  A JSON artifact is its document's canonical bytes plus a newline,
so the file without that newline hashes to the content hash that links
artifacts together; `read_json(path, sha256)` checks such a pin.  Floats are
written through Python's shortest round-trip repr, so reading a file back
reproduces the exact binary values.

A resonance table's index rows never become Python lists: canonical_bytes
writes a 2-D integer array as the JSON list of its rows with numpy, and the
pinned read of a table parses each "tuples" payload with numpy into a
read-only intp array.  That writer is the one definition of a canonical row
payload: the read keeps the array only when the writer gives the payload's
bytes back from it, and any other spelling is parsed by json.
"""

import contextlib
import csv
import hashlib
from io import StringIO
import json
import os
import warnings

import numpy as np

from .errors import ConfigError, StaleArtifactError
from .resonance import TABLE_SCHEMA

TRAJECTORY_SCHEMA = "resonlab-trajectory-v1"


def _digest(chunks, path=None):
    """sha256 of the concatenated byte `chunks`, written to `path` if given."""
    digest = hashlib.sha256()
    with open(path, "wb") if path is not None else contextlib.nullcontext() as fh:
        for chunk in chunks:
            digest.update(chunk)
            if fh is not None:
                fh.write(chunk)
    return digest.hexdigest()


def _dumps(doc, default):
    return json.dumps(doc, separators=(",", ":"), allow_nan=False,
                      default=default).encode()


_ROWS_MARK = "\0resonlab-rows\0"
_ROWS_TOKEN = json.dumps(_ROWS_MARK).encode()


def canonical_bytes(doc):
    """Compact single-line JSON; key order is the document's construction order.

    A 2-D integer ndarray is written as the list of its rows, the bytes its
    `.tolist()` would give.
    """
    arrays = []

    def mark(obj):
        if isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype.kind in "iu":
            arrays.append(obj)
            return _ROWS_MARK
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")

    text = _dumps(doc, mark)
    if not arrays:
        return text
    pieces = text.split(_ROWS_TOKEN)
    if len(pieces) != len(arrays) + 1:  # a string of the document spells the mark
        return _dumps(doc, lambda obj: mark(obj) and obj.tolist())
    out = [pieces[0]]
    for rows, piece in zip(arrays, pieces[1:]):
        out += (_rows_bytes(rows), piece)
    return b"".join(out)


def _rows_bytes(rows):
    """json.dumps(rows.tolist()) of a 2-D integer array.  Nonnegative rows are
    formatted by numpy: every number gets a fixed count of digit bytes and a
    separator byte, and the unused (zero) bytes are dropped at the end."""
    if rows.size == 0 or rows.min() < 0:
        return json.dumps(rows.tolist(), separators=(",", ":")).encode()
    (n, w), top = rows.shape, int(rows.max())
    digits = len(str(top))
    mag = rows.astype(np.min_scalar_type(top))
    cells = np.zeros((n, w, digits + 1), np.uint8)
    for k in range(digits - 1, -1, -1):  # the last digit is written even for a zero
        cells[..., k] = np.where((mag > 0) | (k == digits - 1), mag % 10 + ord("0"), 0)
        mag = mag // 10
    cells[..., -1] = ord(",")
    cells[:, -1, -1] = ord("]")
    line = np.empty((n, w * (digits + 1) + 2), np.uint8)
    line[:, 0], line[:, -1] = ord("["), ord(",")
    line[:, 1:-1] = cells.reshape(n, -1)
    return b"[" + line[line != 0][:-1].tobytes() + b"]"


def content_hash(doc):
    return _digest((canonical_bytes(doc),))


def file_hash(path):
    """sha256 of a file's bytes as they are on disk."""
    with open(path, "rb") as fh:
        return _digest(iter(lambda: fh.read(1 << 20), b""))


def write_json(path, doc):
    """One line of canonical bytes; returns the file's sha256.  The bytes
    without the final newline hash to content_hash(doc).  A refused document
    writes nothing."""
    return _digest((canonical_bytes(doc), b"\n"), path)


def write_text(path, text):
    """UTF-8 text as given; returns the file's sha256."""
    return _digest((text.encode(),), path)


def read_json(path, sha256=None):
    """The document in a JSON file, read once.  With a `sha256` pin, the
    bytes without the final newline, or else the parsed document's content
    hash, must match it; StaleArtifactError otherwise.  A pinned resonance
    table comes back with its canonical "tuples" payloads as read-only intp
    arrays."""
    with open(path, "rb") as fh:
        data = fh.read()
    doc = json.loads(data) if sha256 is None else _loads(data)
    if sha256 is not None and _digest((data.removesuffix(b"\n"),)) != sha256:
        actual = content_hash(doc)
        if actual != sha256:
            raise StaleArtifactError(
                f"hash {actual[:12]}... of {path} does not match the referenced "
                f"{sha256[:12]}...; rebuild the artifact")
    return doc


_TABLE_HEAD = b'{"schema":' + json.dumps(TABLE_SCHEMA).encode() + b","
_TUPLES_KEY = b'"tuples":[['
_BRACKETS_TO_SPACES = bytes.maketrans(b"[]", b"  ")


def _loads(data):
    """json.loads(data), except that in a canonical resonance table every
    canonical "tuples" payload is parsed by numpy (`_parse_rows`).

    Each such payload is cut out and replaced by the token NaN, which the
    parse turns back into its array.  The cut is a whole JSON value: the key
    before it ends with an unescaped quote, so the colon and the payload stand
    outside any string.  Any other NaN or Infinity in the file, or a file that
    does not parse, goes to json.loads whole.
    """
    if not data.startswith(_TABLE_HEAD):
        return json.loads(data)
    pieces, arrays, at = [], [], 0
    start = data.find(_TUPLES_KEY)
    while start >= 0:
        start += len(_TUPLES_KEY) - 2
        end = data.find(b"]]", start) + 2
        rows = _parse_rows(data[start:end]) if end > start else None
        if rows is not None:
            pieces += (data[at:start], b"NaN")
            arrays.append(rows)
            at = end
        start = data.find(_TUPLES_KEY, start)
    if not arrays:
        return json.loads(data)
    pieces.append(data[at:])
    constants = []

    def array(name):
        constants.append(name)
        return arrays[len(constants) - 1] if len(constants) <= len(arrays) else None

    try:
        doc = json.loads(b"".join(pieces), parse_constant=array)
    except ValueError:
        return json.loads(data)
    return doc if len(constants) == len(arrays) else json.loads(data)


def _parse_rows(payload):
    """The read-only intp rows of a "[[...]]" payload, as wide as its first row,
    when the writer spells them as the payload (`_rows_bytes`), else None."""
    try:
        with warnings.catch_warnings():  # older numpy warns where newer raises
            warnings.simplefilter("error", DeprecationWarning)
            flat = np.fromstring(payload.translate(_BRACKETS_TO_SPACES), dtype=np.intp, sep=",")
    except (ValueError, DeprecationWarning):
        return None
    width = payload.count(b",", 0, payload.index(b"]")) + 1
    rows = flat[:flat.size - flat.size % width].reshape(-1, width)  # ragged: bytes differ
    if _rows_bytes(rows) != payload:
        return None
    rows.flags.writeable = False
    return rows


# -- trajectories -----------------------------------------------------------

def _trajectory_lines(trajectory, config=None):
    # imported here so that reading and writing tables and frames never loads
    # integrators and fields
    from .integrators import NOISE_CONVENTION
    header = {
        "schema": TRAJECTORY_SCHEMA,
        "modes": int(trajectory.states.shape[-1]),
        "scheme": trajectory.scheme,
        "epsilon": trajectory.epsilon,
        "seed": trajectory.seed,
        "frame_sha256": trajectory.frame_hash,
        "noise": trajectory.noise_doc,
        "noise_convention": NOISE_CONVENTION,
        "config": None if config is None else config.to_document(),
    }
    yield canonical_bytes(header) + b"\n"
    acts = trajectory.actions()
    for i, tau in enumerate(trajectory.taus):
        row = {
            "tau": float(tau),
            "re": trajectory.states[i].real.tolist(),
            "im": trajectory.states[i].imag.tolist(),
            "actions": acts[i].tolist(),
        }
        yield canonical_bytes(row) + b"\n"


def save_trajectory(path, trajectory, config=None):
    """JSON-lines: a header record, then one record per sample, whose lists nest
    one per member for a batch run; returns the file's sha256."""
    return _digest(_trajectory_lines(trajectory, config), path)


def trajectory_hash(trajectory, config=None):
    """sha256 of the exact bytes save_trajectory would emit."""
    return _digest(_trajectory_lines(trajectory, config))


def load_trajectory(path):
    from .integrators import Trajectory
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
    yield (",".join(_ENSEMBLE_COLUMNS) + "\n").encode()
    modes = result.mean_actions.shape[1]
    for i, tau in enumerate(result.taus):
        for k in range(modes):
            yield ",".join([repr(float(tau)), str(k),
                            repr(float(result.mean_actions[i, k])),
                            repr(float(result.var_actions[i, k])),
                            repr(float(result.stderr_actions[i, k]))]).encode() + b"\n"


def save_ensemble_csv(path, result):
    """Long-format table: one row per (sample time, mode); returns the file's
    sha256."""
    return _digest(_ensemble_lines(result), path)


def ensemble_hash(result):
    """sha256 of the exact bytes save_ensemble_csv would emit."""
    return _digest(_ensemble_lines(result))


def load_ensemble_csv(path):
    """Back to arrays: taus (S,), mean/var/stderr (S, modes)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        head = next(reader, [])
        if tuple(head) != _ENSEMBLE_COLUMNS:
            raise ConfigError(f"unexpected ensemble CSV header {head}")
        rows = [(float(r[0]), int(r[1]), float(r[2]), float(r[3]), float(r[4]))
                for r in reader]
    if not rows:
        raise ConfigError(f"ensemble CSV {path} has a header but no rows")
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
    """Generic companion table; rows are sequences aligned with `columns`.
    Returns the file's sha256."""
    text = StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([repr(float(x)) if isinstance(x, float) else x for x in row]
                     for row in rows)
    return _digest((text.getvalue().encode(),), path)


def write_report(out_dir, report):
    """Report JSON plus one CSV per table; returns {filename: file hash}."""
    os.makedirs(out_dir, exist_ok=True)
    files = {"report.json": write_json(os.path.join(out_dir, "report.json"),
                                       report.to_document())}
    for name, table in report.tables.items():
        csv_name = f"{name}.csv"
        files[csv_name] = save_table_csv(os.path.join(out_dir, csv_name),
                                         table["columns"], table["rows"])
    return files

