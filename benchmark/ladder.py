"""Size-ladder report: one timing per layer at the ROADMAP sizes, printed
beside the ROADMAP "Baseline" table.  Report only; nothing here is gated.

Usage (from the repository root):

    python3 benchmark/ladder.py

Each operation is called through its public function, cubic_focusing with
mu = 0.5 and V = 0, on one BLAS thread.  A timing is the median of repeated
calls, repeated until BUDGET_S seconds are spent on it (at least once).
"""

import math
import os
import statistics
import sys
import time

from run import THREAD_VARS, prepare

BUDGET_S = 0.5  # seconds spent per timing

# (dimension, modes, grid points per axis); P is the grid size per frame
SIZES = ((1, 9, 32), (1, 33, 128), (2, 49, 32), (2, 81, 32))

# ROADMAP "Baseline", OPENBLAS_NUM_THREADS=1 on 2 cores; seconds, None = not taken
BASELINE = {
    (1, 9): {"table": 2.2e-3, "drift": 1.4e-3, "eval_P": 26e-6, "R": 20e-6, "step": 193e-6},
    (1, 33): {"table": 48e-3, "drift": 18e-3, "eval_P": 54e-6, "R": 48e-6, "step": 269e-6},
    (2, 49): {"table": 466e-3, "drift": 2.5, "eval_P": 180e-6, "R": 302e-6, "step": 694e-6},
    (2, 81): {"table": 2.6, "drift": 12.1, "eval_P": 294e-6, "R": 1189e-6, "step": 1312e-6},
}

COLUMNS = (("frame", "build_frame"), ("table", "build_resonance_table"),
           ("drift", "ResonantDrift(...)"), ("eval_P", "eval_P"), ("R", "R(v)"),
           ("step", "step_full_deterministic"), ("hash", "io.trajectory_hash"))


def timed(fn):
    """Median seconds per call of fn(), repeated until BUDGET_S is spent."""
    times = []
    spent = 0.0
    while not times or spent < BUDGET_S:
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        spent += elapsed
    return statistics.median(times), result


def ladder_row(dimension, modes, grid):
    import numpy as np
    from resonlab.fields import ResonantDrift, eval_P
    from resonlab.integrators import (SolverConfig, Trajectory, oscillation_step,
                                      step_full_deterministic)
    from resonlab.io import trajectory_hash
    from resonlab.nonlinearity import NonlinearitySpec
    from resonlab.resonance import build_resonance_table
    from resonlab.spectral import Potential, TorusGeometry, build_frame, sample_ball

    geometry = TorusGeometry((2.0 * math.pi,) * dimension, grid)
    spec = NonlinearitySpec("cubic_focusing", mu=0.5)
    config = SolverConfig(epsilon=0.05, tau_end=1.0, dt=1e-3)
    rng = np.random.default_rng(42)

    row = {}
    row["frame"], frame = timed(
        lambda: build_frame(geometry, Potential.zero(), modes))
    row["table"], table = timed(lambda: build_resonance_table(frame))
    row["drift"], drift = timed(lambda: ResonantDrift(frame, spec, table))
    v = sample_ball(frame, 2.0, 1.0, rng)
    row["eval_P"], _ = timed(lambda: eval_P(v, spec, frame))
    row["R"], _ = timed(lambda: drift(v))
    h = oscillation_step(config, frame.eigenvalues)
    row["step"], _ = timed(
        lambda: step_full_deterministic(v, 0.0, h, spec, frame, config))
    states = np.array([sample_ball(frame, 2.0, 1.0, rng) for _ in range(21)])
    trajectory = Trajectory(taus=np.linspace(0.0, 1.0, 21), states=states,
                            scheme="lawson4", epsilon=config.epsilon,
                            frame_hash=frame.content_hash())
    row["hash"], _ = timed(lambda: trajectory_hash(trajectory, config))
    return row, frame.geometry.grid_points ** dimension


def _fmt(seconds):
    if seconds is None:
        return "-"
    if seconds >= 1.0:
        return f"{seconds:.2f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3g} ms"
    return f"{seconds * 1e6:.3g} us"


def main():
    prepare(os.getcwd())
    print(f"threads: {', '.join(f'{v}={os.environ[v]}' for v in THREAD_VARS)}")
    print("each cell: this run / ROADMAP baseline")
    header = ["size"] + [label for _, label in COLUMNS]
    print(" | ".join(header))
    for dimension, modes, grid in SIZES:
        row, points = ladder_row(dimension, modes, grid)
        base = BASELINE[(dimension, modes)]
        cells = [f"{dimension}-D M={modes}, P={points}"]
        cells += [f"{_fmt(row[key])} / {_fmt(base.get(key))}" for key, _ in COLUMNS]
        print(" | ".join(cells), flush=True)
    print("noise draw: no public entry point (the per-member Philox stream is "
          "private to integrators); see integrators.self_s on ensemble_1d.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
