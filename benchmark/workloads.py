"""The benchmark's workloads: CLI command sequences and the configs they read.

Each workload is a list of `resonlab` commands run one after another, each in
its own process, exactly as a user would run them.  Configs are generated per
run from the benchmark seed; artifacts are linked by content hash as
`scripts/make_workspace.py` does.  Why each workload exists is in README.md.
"""

from dataclasses import dataclass
import math

TWO_PI = 2.0 * math.pi

# The output check compares against references recorded at commit 5e5ba90,
# so the benchmark seed selects one of this many recorded input sets.
SEED_SLOTS = 16

CUBIC = {"kind": "cubic_focusing", "mu": 0.5}

# cubic_damping_terms(-0.3 - 2.5j) with mu = 0.3, as in acceptance check 9
DAMPED = {"kind": "polynomial", "mu": 0.3, "terms": [
    {"re": -1.0, "im": 0.0,
     "factors": [{"conjugate": False, "derivative": None}]},
    {"re": -0.3, "im": -2.5,
     "factors": [{"conjugate": False, "derivative": None},
                 {"conjugate": True, "derivative": None},
                 {"conjugate": False, "derivative": None}]},
]}


def config_seeds(seed):
    """RNG seeds written into the configs; slot 0 gives the acceptance seeds."""
    k = seed % SEED_SLOTS
    return {"slot": k, "initial": 42 + k, "converge": 2718 + k,
            "stochastic": 12345 + k, "initial_seed": 99 + k}


@dataclass(frozen=True)
class Command:
    """One CLI process: `resonlab <argv> --config configs/<out>.json --out <out>`."""

    argv: tuple   # subcommand words, e.g. ("study", "converge")
    out: str      # output directory, also the config file stem
    phase: str    # "setup" (basis, resonances) or "run"
    config: object  # (refs, seeds) -> config dict

    @property
    def name(self):
        return " ".join(self.argv)


def _basis(lengths, grid, modes):
    return lambda refs, seeds: {
        "geometry": {"lengths": list(lengths), "grid_points": grid},
        "modes": modes}


def _resonances(patterns):
    return lambda refs, seeds: {
        "frame": refs["frame"], "resonance": {"patterns": patterns}}


def _trajectory(nonlinearity, solver, with_table):
    def build(refs, seeds):
        doc = {"frame": refs["frame"], "nonlinearity": nonlinearity,
               "solver": solver,
               "initial": {"radius": 1.0, "s": 2.0, "seed": seeds["initial"]}}
        if with_table:
            doc["table"] = refs["table"]
        return doc
    return build


def _converge(refs, seeds):
    return {"frame": refs["frame"], "table": refs["table"],
            "nonlinearity": CUBIC,
            "study": {"study": "converge", "seed": seeds["converge"]}}


def _stochastic(refs, seeds):
    return {"frame": refs["frame"], "table": refs["table"],
            "nonlinearity": DAMPED,
            "noise": {"scale": 0.14, "decay": 1.5},
            "study": {"study": "stochastic", "epsilons": [0.1, 0.025],
                      "members": 1000, "seed": seeds["stochastic"],
                      "initial_seed": seeds["initial_seed"], "radius": 1.5,
                      "dt": 2e-3, "samples": 5,
                      "compare_taus": [0.25, 0.5, 1.0]}}


WORKLOADS = {
    # The make_workspace.py workspace plus acceptance check 6: many
    # single-row eval_P calls and the quadrature route-swap oracle.
    "workspace_cli": (
        Command(("basis",), "frame", "setup", _basis([TWO_PI], 32, 9)),
        Command(("resonances",), "table", "setup", _resonances([[1, -1, 1]])),
        Command(("simulate",), "run_full", "run", _trajectory(
            CUBIC, {"epsilon": 0.05, "tau_end": 1.0, "dt": 1e-3, "samples": 21},
            with_table=False)),
        Command(("effective",), "run_eff", "run", _trajectory(
            CUBIC, {"epsilon": 1.0, "tau_end": 1.0, "dt": 1e-3, "samples": 21},
            with_table=True)),
        Command(("study", "converge"), "study_converge", "run", _converge),
    ),
    # Acceptance check 9 at twice the members: the same layers run wide,
    # 1000-row batches, and the only workload with noise.
    "ensemble_1d": (
        Command(("basis",), "frame", "setup", _basis([TWO_PI], 32, 8)),
        Command(("resonances",), "table", "setup", _resonances([[1], [1, -1, 1]])),
        Command(("study", "stochastic"), "study_stochastic", "run", _stochastic),
    ),
    # The resonant side at scale: 298k enumerated tuples, drift tensor
    # assembly, an 18 MB table file, R(v) at M=49 and eval_P at P=1024.
    "resonant_2d": (
        Command(("basis",), "frame", "setup", _basis([TWO_PI, TWO_PI], 32, 49)),
        Command(("resonances",), "table", "setup", _resonances([[1, -1, 1]])),
        Command(("effective",), "run_eff", "run", _trajectory(
            CUBIC, {"epsilon": 1.0, "tau_end": 1.0, "dt": 2e-3, "samples": 21},
            with_table=True)),
        Command(("simulate",), "run_full", "run", _trajectory(
            CUBIC, {"epsilon": 0.1, "tau_end": 0.5, "dt": 1e-3, "samples": 21},
            with_table=False)),
    ),
}
