"""Time one resonlab CLI command from two source trees in alternating pairs.

Each pair runs the command once from PARENT_SRC and once from CHANGE_SRC,
the parent first in even pairs and the change first in odd ones, each as
`python -m resonlab.cli <cli args>` with that tree on PYTHONPATH and one
BLAS thread.  A tree is a repository root or its src directory.  The script
prints every pair's wall seconds, each side's median and quartiles, each
side's median CPU seconds of the resonlab process and of its children (the
noise producer), read from the manifest.json the command writes under its
--out, and how many pairs the change won.  The CPU split shows whether the
caller or the noise producer sets the pace.  On a shared host whose speed
drifts, a gain is claimed only from at least 10 pairs, when the change wins
at least 9 in 10 and its median beats the parent's by more than the
parent's interquartile range.  A command that exits non-zero stops the
script with its exit code.

Usage: python scripts/ab_pairs.py PARENT_SRC CHANGE_SRC [--pairs N] -- <cli args>
"""

import argparse
import json
import math
import os
from pathlib import Path
import statistics
import subprocess
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
MIN_PAIRS_FOR_GAIN = 10


def source_dir(tree):
    """The directory holding the resonlab package: TREE/src, or TREE itself."""
    path = Path(tree).resolve()
    return path / "src" if (path / "src" / "resonlab").is_dir() else path


def run_once(src, cli_args, out):
    """Wall seconds of one CLI run from the package under src, and the CPU
    seconds of its process and of its children that its manifest records."""
    env = dict(os.environ, PYTHONPATH=str(src), **{var: "1" for var in THREAD_VARS})
    start = time.perf_counter()
    result = subprocess.run([sys.executable, "-m", "resonlab.cli", *cli_args], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - start
    if result.returncode != 0:
        sys.stderr.write(result.stderr)
        raise SystemExit(result.returncode)
    with open(Path(out) / "manifest.json", encoding="utf-8") as fh:
        resources = json.load(fh)["resources"]
    return (elapsed, float(resources["self"]["cpu_s"]),
            float(resources["children"]["cpu_s"]))


def summary(times):
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return median, q1, q3


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="parent source tree")
    parser.add_argument("change", help="changed source tree")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS_FOR_GAIN,
                        help=f"alternating pairs to run (default {MIN_PAIRS_FOR_GAIN})")
    args = parser.parse_args(argv[:split])
    cli_args = argv[split + 1:]
    out = next((value for flag, value in zip(cli_args, cli_args[1:]) if flag == "--out"),
               None)
    if out is None or args.pairs < 2:
        parser.error("need at least 2 pairs and a CLI command with --out after --")
    trees = {"parent": source_dir(args.parent), "change": source_dir(args.change)}
    times = {"parent": [], "change": []}
    cpu = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            elapsed, *cpu_s = run_once(trees[side], cli_args, out)
            times[side].append(elapsed)
            cpu[side].append(cpu_s)
        print(f"pair {i + 1}: parent {times['parent'][-1]:.3f} s, "
              f"change {times['change'][-1]:.3f} s", flush=True)
    stats = {side: summary(values) for side, values in times.items()}
    for side, (median, q1, q3) in stats.items():
        own, children = (statistics.median(values) for values in zip(*cpu[side]))
        print(f"{side}: median {median:.3f} s, quartiles {q1:.3f}-{q3:.3f} s; "
              f"median cpu self {own:.3f} s, children {children:.3f} s")
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    gap = stats["parent"][0] - stats["change"][0]
    spread = stats["parent"][2] - stats["parent"][1]
    print(f"change faster in {wins} of {args.pairs} pairs; median gap {gap:.3f} s, "
          f"parent interquartile range {spread:.3f} s")
    if args.pairs < MIN_PAIRS_FOR_GAIN:
        print(f"gain: not judged (fewer than {MIN_PAIRS_FOR_GAIN} pairs)")
    else:
        gain = wins >= math.ceil(0.9 * args.pairs) and gap > spread
        print(f"gain: {'yes' if gain else 'no'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
