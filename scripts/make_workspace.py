"""Build a ready-to-run CLI workspace.

Creates a spectral frame and resonance table through the command-line
interface, then writes config files for a full run, an effective run, and a
convergence study, all wired together by content hashes.  A second frame
(M = 8) and table (patterns [1] and [1, -1, 1]) carry the two moment
studies of a noisy damped cubic: the stochastic band comparison and the
stationary-measure estimates.  Prints the commands to run next.

Usage: python scripts/make_workspace.py [--dir workspace]
"""

import argparse
import json
import math
from pathlib import Path

from resonlab.cli import main as resonlab
from resonlab.io import content_hash, read_json
from resonlab.nonlinearity import NonlinearitySpec, cubic_damping_terms

TWO_PI = 2.0 * math.pi


def _write(path, doc):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n")


def _reference(artifact, config_dir):
    rel = Path(artifact).relative_to(config_dir.parent)
    return {"file": str(Path("..") / rel),
            "sha256": content_hash(read_json(artifact))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", default="workspace", help="workspace root")
    parser.add_argument("--modes", type=int, default=9)
    parser.add_argument("--grid", type=int, default=32)
    args = parser.parse_args(argv)

    root = Path(args.dir)
    configs = root / "configs"

    refs = []
    for suffix, modes, grid, patterns in (("", args.modes, args.grid, [[1, -1, 1]]),
                                          ("_moments", 8, 32, [[1], [1, -1, 1]])):
        basis = configs / f"basis{suffix}.json"
        _write(basis, {"geometry": {"lengths": [TWO_PI], "grid_points": grid},
                       "modes": modes})
        code = resonlab(["basis", "--config", str(basis),
                         "--out", str(root / f"frame{suffix}")])
        if code != 0:
            return code
        frame = _reference(root / f"frame{suffix}" / "frame.json", configs)

        resonances = configs / f"resonances{suffix}.json"
        _write(resonances, {"frame": frame, "resonance": {"patterns": patterns}})
        code = resonlab(["resonances", "--config", str(resonances),
                         "--out", str(root / f"table{suffix}")])
        if code != 0:
            return code
        refs.append((frame, _reference(root / f"table{suffix}" / "table.json", configs)))
    (frame_ref, table_ref), (moments_frame, moments_table) = refs

    cubic = NonlinearitySpec("cubic_focusing", mu=0.5).to_document()
    solver = {"epsilon": 0.05, "tau_end": 1.0, "dt": 1e-3, "samples": 21}
    initial = {"radius": 1.0, "s": 2.0, "seed": 42}

    _write(configs / "simulate.json",
           {"frame": frame_ref, "nonlinearity": cubic,
            "solver": solver, "initial": initial})
    _write(configs / "effective.json",
           {"frame": frame_ref, "table": table_ref, "nonlinearity": cubic,
            "solver": {**solver, "epsilon": 1.0}, "initial": initial})
    _write(configs / "study.json",
           {"frame": frame_ref, "table": table_ref, "nonlinearity": cubic,
            "study": {"study": "converge", "seed": 2718}})

    damped = {"frame": moments_frame, "table": moments_table,
              "nonlinearity": NonlinearitySpec(
                  "polynomial", mu=0.3, terms=cubic_damping_terms(-0.3 - 2.5j)).to_document(),
              "noise": {"scale": 0.14, "decay": 1.5}}
    _write(configs / "stochastic.json",
           {**damped, "study": {"study": "stochastic", "epsilons": [0.1, 0.025],
                                "members": 500, "seed": 12345, "initial_seed": 99,
                                "radius": 1.5, "dt": 2e-3, "samples": 5,
                                "compare_taus": [0.25, 0.5, 1.0]}})
    _write(configs / "stationary.json",
           {**damped, "study": {"study": "stationary", "epsilons": [0.1, 0.05],
                                "seed": 90210, "radius": 1.0, "burn_in": 6.0,
                                "batches": 20, "batch_length": 1.5}})

    print(f"workspace ready under {root}/; next:")
    for line in (
        f"resonlab simulate --config {configs}/simulate.json "
        f"--out {root}/run_full",
        f"resonlab effective --config {configs}/effective.json "
        f"--out {root}/run_eff",
        f"resonlab study converge --config {configs}/study.json "
        f"--out {root}/study_converge",
        f"resonlab study stochastic --config {configs}/stochastic.json "
        f"--out {root}/study_stochastic",
        f"resonlab study stationary --config {configs}/stationary.json "
        f"--out {root}/study_stationary",
    ):
        print("  " + line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
