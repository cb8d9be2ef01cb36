"""resonlab benchmark runner.

Usage (from the repository root):

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's resonlab CLI commands, each as its own
`python -m resonlab.cli ... --threads 1` process and one at a time, repeating
the whole sequence until --seconds are used.  Every command's outputs are
checked against references recorded at commit 5e5ba90.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
sequence runs twice under the tracing launcher (traced_cli.py) and the
metrics are per layer.  See README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

from check import compare, expected_exit_code, observe
from workloads import WORKLOADS, config_seeds

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
COMMAND_TIMEOUT_S = 150.0
CALIBRATION_LOOPS = 200_000

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> unit; the order matches BENCHMARK.json
PER_LAYER = {
    "spectral.build_frame_s": "s",
    "spectral.content_hash_calls": "count",
    "spectral.content_hash_s": "s",
    "resonance.table_s": "s",
    "resonance.enumerate_calls": "count",
    "resonance.tuples_enumerated": "count",
    "resonance.tuples_kept_frac": "fraction",
    "resonance.table_hash_s": "s",
    "resonance.to_document_s": "s",
    "resonance.from_document_s": "s",
    "fields.drift_build_s": "s",
    "fields.eval_P_calls": "count",
    "fields.eval_P_rows": "count",
    "fields.eval_P_us_per_call": "us",
    "fields.R_calls": "count",
    "fields.R_us_per_call": "us",
    "fields.quadrature_s": "s",
    "nonlinearity.pointwise_calls": "count",
    "nonlinearity.pointwise_s": "s",
    "integrators.steps": "count",
    "integrators.field_evals": "count",
    "integrators.self_s": "s",
    "integrators.us_per_member_step": "us",
    "studies.self_s": "s",
    "io.bytes_written": "B",
    "io.bytes_read": "B",
    "io.write_s": "s",
    "io.read_s": "s",
    "io.hash_s": "s",
    "io.hash_calls": "count",
    "cli.startup_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "host.calibration_s": "s",
}

# counts that must repeat bit for bit across two traced passes
EXACT_COUNTS = ("fields.eval_P_calls", "fields.eval_P_rows", "fields.R_calls",
                "integrators.steps", "integrators.field_evals",
                "resonance.tuples_enumerated", "resonance.tuples_kept_frac",
                "io.bytes_written", "spectral.content_hash_calls")

# per workload, metrics that must not read 0: a 0 means the wrappers no longer
# see a layer the workload is meant to exercise
EXERCISED = {
    "workspace_cli": ("fields.eval_P_calls", "fields.R_calls", "fields.quadrature_s",
                      "integrators.steps", "nonlinearity.pointwise_calls",
                      "resonance.tuples_enumerated", "spectral.content_hash_calls",
                      "io.bytes_written"),
    "ensemble_1d": ("integrators.steps", "fields.eval_P_rows", "fields.R_calls",
                    "nonlinearity.pointwise_calls", "resonance.tuples_enumerated",
                    "spectral.content_hash_calls", "io.bytes_written"),
    "resonant_2d": ("fields.R_calls", "fields.eval_P_calls", "fields.drift_build_s",
                    "integrators.steps", "resonance.tuples_enumerated",
                    "resonance.tuples_kept_frac", "spectral.content_hash_calls",
                    "io.bytes_written"),
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# -- environment ---------------------------------------------------------------

def environment_record(numpy):
    blas = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu}


def calibrate(numpy):
    """Fixed-work loop of small matmuls; its time tracks host speed drift."""
    a, b = numpy.random.default_rng(0).standard_normal((2, 8, 8))
    start = time.perf_counter()
    for _ in range(CALIBRATION_LOOPS):
        a @ b
    return time.perf_counter() - start


# -- running commands ----------------------------------------------------------

def spawn(argv, env, cwd, log_path):
    """Run one process to completion; return (exit code, wall s, peak RSS MB)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=log,
                                stderr=subprocess.STDOUT)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Runner:
    """Runs one workload's command sequence in a scratch workspace."""

    def __init__(self, root, workload, seed, references):
        """`references`: the slot's recorded outputs, or None to record them."""
        self.commands = WORKLOADS[workload]
        self.seeds = config_seeds(seed)
        self.references = references
        self.work = os.path.join(root, ".bench_work", workload)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        # Parsing resonant_2d's 18 MB table takes about a second, and every
        # sequence writes the same bytes: key the parsed facts by file sha256.
        self._docs = {}
        from resonlab.io import content_hash, read_json
        self._content_hash, self._read_json = content_hash, read_json

    def _artifact(self, command, path):
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        key = digest.hexdigest()
        if key not in self._docs:
            doc = self._read_json(path)
            self._docs[key] = (self._content_hash(doc),
                               observe(command, os.path.dirname(path), doc))
        return self._docs[key]

    def sequence(self, traced):
        """Run every command once; return one result dict per command."""
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(os.path.join(self.work, "configs"))
        links, results, broken = {}, [], False
        for command in self.commands:
            result = {"command": command.name, "phase": command.phase,
                      "problems": [], "misses": []}
            results.append(result)
            if broken:
                result["problems"].append("not run: an earlier command failed")
                continue
            config_path = os.path.join("configs", f"{command.out}.json")
            with open(os.path.join(self.work, config_path), "w", encoding="utf-8") as fh:
                json.dump(command.config(links, self.seeds), fh, indent=2)
            cli_args = [*command.argv, "--config", config_path,
                        "--out", command.out, "--threads", "1"]
            stats_path = os.path.join(self.work, f"{command.out}.trace.json")
            launcher = ([os.path.join(BENCH_DIR, "traced_cli.py"), stats_path]
                        if traced else ["-m", "resonlab.cli"])
            code, wall, rss = spawn([sys.executable, *launcher, *cli_args],
                                    self.env, self.work,
                                    os.path.join(self.work, f"{command.out}.log"))
            result.update(exit_code=code, wall_s=wall, peak_rss_mb=rss)
            if traced and os.path.exists(stats_path):
                with open(stats_path, "r", encoding="utf-8") as fh:
                    result["trace"] = json.load(fh)
            self._check(command, result, links)
            broken = command.phase == "setup" and bool(result["problems"])
        return results

    def _check(self, command, result, links):
        if self.references is None:  # recording: a study may miss (exit 3)
            reference = {}
            expected = {0, 3} if command.argv[0] == "study" else {0}
        else:
            reference = self.references.get(command.out, {})
            expected = {expected_exit_code(reference)}
        if result["exit_code"] not in expected:
            result["problems"].append(
                f"exit code {result['exit_code']}, expected {sorted(expected)}")
            return
        out_dir = os.path.join(self.work, command.out)
        artifact = {"basis": "frame.json", "resonances": "table.json"}.get(command.argv[0])
        try:
            if artifact is not None:
                digest, observed = self._artifact(command, os.path.join(out_dir, artifact))
                links[command.out] = {"file": f"../{command.out}/{artifact}",
                                      "sha256": digest}
            else:
                observed = observe(command, out_dir)
            result["observed"] = observed
            if self.references is not None:
                problems, misses = compare(observed, reference)
                result["problems"] += problems
                result["misses"] += misses
        except (OSError, KeyError, ValueError, TypeError) as exc:
            # a missing file or field is a failed command, not a crashed run
            result["problems"].append(f"outputs unreadable: {type(exc).__name__}: {exc}")


# -- metrics ------------------------------------------------------------------

def phase_time(results, phase):
    return sum(r.get("wall_s", 0.0) for r in results if r["phase"] == phase)


def layer_metrics(results):
    """Per-layer metrics of one traced pass (all of its processes merged)."""
    spans, counters = {}, {}
    startup = 0.0
    for r in results:
        trace = r.get("trace", {"spans": {}, "counters": {}})
        for name, s in trace["spans"].items():
            merged = spans.setdefault(name, dict.fromkeys(s, 0))
            for key, value in s.items():
                merged[key] += value
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value
        main = trace["spans"].get("cli.main")
        if main is not None:
            startup += r["wall_s"] - main["total_s"]

    def span(name, key="outer_s"):
        return spans.get(name, {}).get(key, 0)

    def count(name):
        return counters.get(name, 0)

    def per_call_us(name):
        calls = span(name, "calls")
        return 1e6 * span(name, "total_s") / calls if calls else 0.0

    def layer_self(prefix):
        return sum(s["self_s"] for n, s in spans.items() if n.startswith(prefix))

    considered = count("resonance.tuples_considered")
    member_steps = count("integrators.member_steps")
    return {
        "spectral.build_frame_s": span("spectral.build_frame"),
        "spectral.content_hash_calls": span("spectral.content_hash", "calls"),
        "spectral.content_hash_s": span("spectral.content_hash"),
        "resonance.table_s": span("resonance.build_table"),
        "resonance.enumerate_calls": count("resonance.enumerate_calls"),
        "resonance.tuples_enumerated": count("resonance.tuples_enumerated"),
        "resonance.tuples_kept_frac":
            count("resonance.tuples_kept") / considered if considered else 0.0,
        "resonance.table_hash_s": span("resonance.table_hash"),
        "resonance.to_document_s": span("resonance.to_document"),
        "resonance.from_document_s": span("resonance.from_document"),
        "fields.drift_build_s": span("fields.drift_build"),
        "fields.eval_P_calls": span("fields.eval_P", "calls"),
        "fields.eval_P_rows": count("fields.eval_P_rows"),
        "fields.eval_P_us_per_call": per_call_us("fields.eval_P"),
        "fields.R_calls": span("fields.R", "calls"),
        "fields.R_us_per_call": per_call_us("fields.R"),
        "fields.quadrature_s": span("fields.quadrature"),
        "nonlinearity.pointwise_calls": span("nonlinearity.pointwise", "calls"),
        "nonlinearity.pointwise_s": span("nonlinearity.pointwise"),
        "integrators.steps": count("integrators.steps"),
        "integrators.field_evals": count("integrators.field_evals"),
        "integrators.self_s": layer_self("integrators."),
        "integrators.us_per_member_step":
            1e6 * span("integrators.drive") / member_steps if member_steps else 0.0,
        "studies.self_s": layer_self("studies."),
        "io.bytes_written": count("io.bytes_written"),
        "io.bytes_read": count("io.bytes_read"),
        "io.write_s": span("io.write"),
        "io.read_s": span("io.read"),
        "io.hash_s": span("io.hash"),
        "io.hash_calls": span("io.hash", "calls"),
        "cli.startup_s": startup,
        "cli.self_s": span("cli.main", "self_s"),
    }, spans, counters


# -- entry point --------------------------------------------------------------

def load_references(workload, seed):
    path = os.path.join(BENCH_DIR, "references", f"{workload}.json")
    with open(path, "r", encoding="utf-8") as fh:
        slots = json.load(fh)["slots"]
    slot = str(config_seeds(seed)["slot"])
    if slot not in slots:
        raise BenchmarkError(f"{path} has no reference for slot {slot}")
    return slots[slot]


def check_declaration(root):
    """BENCHMARK.json must declare exactly the metrics run.py emits."""
    with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        declared = json.load(fh)
    if (tuple(m["name"] for m in declared["end_to_end"]) != tuple(END_TO_END)
            or tuple(m["name"] for m in declared["per_layer"]) != tuple(PER_LAYER)
            or not set(m["name"] for m in declared["workloads"]) <= set(WORKLOADS)):
        raise BenchmarkError("BENCHMARK.json does not match the metrics and "
                             "workloads in benchmark/run.py")


def prepare(root):
    """Check the checkout, pin BLAS threads in this process, import numpy."""
    if not os.path.isfile(os.path.join(root, "src", "resonlab", "cli.py")):
        raise BenchmarkError(f"no resonlab sources under {root}/src")
    check_declaration(root)
    for var in THREAD_VARS:  # what --threads 1 sets; children inherit it
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(root, "src"))
    import numpy
    return numpy


def measure(runner, traced_passes, seconds):
    """Untraced sequences until `seconds` are used (at least one), after the
    traced passes when tracing."""
    start = time.perf_counter()
    traced = [runner.sequence(traced=True) for _ in range(traced_passes)]
    plain = []
    while True:
        plain.append(runner.sequence(traced=False))
        elapsed = time.perf_counter() - start
        if elapsed * (1.0 + 1.0 / (len(plain) + traced_passes)) > seconds:
            return traced, plain


def main(argv=None):
    parser = argparse.ArgumentParser(description="resonlab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        numpy = prepare(root)
        references = load_references(args.workload, args.seed)
    except (BenchmarkError, OSError, ValueError) as exc:
        print(f"benchmark: error: {exc}", file=sys.stderr)
        return 2
    environment = environment_record(numpy)
    environment["calibration_s"] = calibrate(numpy)
    print(json.dumps({"environment": environment}))

    runner = Runner(root, args.workload, args.seed, references)
    traced, plain = measure(runner, 2 if args.trace else 0, args.seconds)
    every = [r for seq in traced + plain for r in seq]
    failed = [r for r in every if r["problems"]]
    for r in failed:
        print(f"FAILED {r['command']}: {'; '.join(r['problems'])}")
    misses = sorted({f"{r['command']}:{m}" for r in every for m in r["misses"]})
    if misses:
        print(f"expected verdict misses (False in the reference): {', '.join(misses)}")
    correct = not failed

    run_s = statistics.median(phase_time(seq, "run") for seq in plain)
    if args.trace:
        passes = [layer_metrics(seq) for seq in traced]
        for name in EXERCISED[args.workload]:
            if any(not p[0][name] for p in passes):
                print(f"UNSTEADY: {name} reads 0; {args.workload} must exercise it")
                correct = False
        for name in EXACT_COUNTS:
            if passes[0][0][name] != passes[1][0][name]:
                print(f"UNSTEADY: {name} differs across traced passes: "
                      f"{passes[0][0][name]} vs {passes[1][0][name]}")
                correct = False
        metrics = {name: statistics.median(p[0][name] for p in passes)
                   for name in passes[0][0]}
        metrics["trace.overhead_s"] = statistics.median(
            phase_time(seq, "run") for seq in traced) - run_s
        metrics["host.calibration_s"] = environment["calibration_s"]
        units = PER_LAYER
        detail = {"spans": passes[0][1], "counters": passes[0][2]}
    else:
        metrics = {
            "setup_s": statistics.median(phase_time(seq, "setup") for seq in plain),
            "run_s": run_s,
            "peak_rss_mb": max(r.get("peak_rss_mb", 0.0) for r in every),
        }
        units = END_TO_END
        detail = {}

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment, "metrics": metrics,
              "sequences": [[{k: v for k, v in r.items() if k != "trace"}
                             for r in seq] for seq in traced + plain], **detail}
    os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
    out_path = os.path.join(root, ".bench_out",
                            f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"{len(plain)} untraced and {len(traced)} traced sequences; "
          f"record in {os.path.relpath(out_path, root)}")
    print(json.dumps({"correct": correct, "attempted": len(every),
                      "failed": len(failed),
                      "metrics": {name: {"value": metrics[name], "unit": units[name]}
                                  for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
