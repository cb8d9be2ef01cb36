"""Write the files of acceptance checks 1-7 and 9 into one directory.

Runs the producer registry of tests/test_acceptance.py, the same code the
acceptance checks and the bitwise-reproducibility check run, and writes each
check's files to OUT_DIR/critNN.  A refactor that claims unchanged numerics
can then be checked by running this on both commits and comparing:

    PYTHONPATH=src python scripts/acceptance_artifacts.py /tmp/before
    (check out the other commit)
    PYTHONPATH=src python scripts/acceptance_artifacts.py /tmp/after
    diff -r /tmp/before /tmp/after

Usage: python scripts/acceptance_artifacts.py OUT_DIR
"""

import argparse
import importlib.util
from pathlib import Path
import time

TESTS = Path(__file__).resolve().parent.parent / "tests" / "test_acceptance.py"


def load_producers():
    spec = importlib.util.spec_from_file_location("test_acceptance", TESTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._PRODUCERS


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", help="directory to write crit01 ... crit09 into")
    out = Path(parser.parse_args().out_dir)
    for name, producer in load_producers().items():
        t0 = time.perf_counter()
        producer(out / name)
        print(f"{name}: {time.perf_counter() - t0:.1f} s", flush=True)


if __name__ == "__main__":
    main()
