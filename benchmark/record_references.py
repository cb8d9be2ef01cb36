"""Record the output-check references: run every workload once per seed slot
and store the checked facts of each command's outputs.

Usage (from the repository root, on the commit whose outputs are the
reference):

    python3 benchmark/record_references.py [--workload NAME ...]

Writes benchmark/references/<workload>.json.  Re-record only when a change
is meant to alter numerics, and say so where the change is described.
"""

import argparse
import json
import os
import subprocess
import sys

from run import BENCH_DIR, Runner, prepare
from workloads import SEED_SLOTS, WORKLOADS

CHECKED = ("resonances", "simulate", "effective", "study")


def record(root, workload):
    slots = {}
    for slot in range(SEED_SLOTS):
        results = Runner(root, workload, slot, None).sequence(traced=False)
        bad = [r for r in results if r["problems"]]
        if bad:
            raise SystemExit(f"{workload} slot {slot}: {bad[0]['command']}: "
                             f"{'; '.join(bad[0]['problems'])}")
        slots[str(slot)] = {
            command.out: result["observed"]
            for command, result in zip(WORKLOADS[workload], results)
            if command.argv[0] in CHECKED}
        verdicts = {k: v for r in results
                    for k, v in r["observed"].get("verdicts", {}).items()}
        print(f"{workload} slot {slot}: verdicts {verdicts}", flush=True)
    return slots


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    root = os.getcwd()
    prepare(root)
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root,
                            capture_output=True, text=True).stdout.strip()
    os.makedirs(os.path.join(BENCH_DIR, "references"), exist_ok=True)
    for workload in args.workload or sorted(WORKLOADS):
        doc = {"workload": workload, "recorded_at_commit": commit or None,
               "slots": record(root, workload)}
        path = os.path.join(BENCH_DIR, "references", f"{workload}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
