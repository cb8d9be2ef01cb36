"""Command line frontend: one JSON config in, data files plus a manifest out.

Heavy imports happen only after --threads has been turned into BLAS
environment variables, so thread pinning actually takes effect.  Exit codes:
0 success (and all study verdicts passing), 1 usage or config errors,
2 numeric failure (trajectory left the blow-up bound), 3 study ran fine but
its criteria failed.
"""

import argparse
import os
import sys
import time

from . import __version__
from .errors import (BlowUpError, ConfigError, EnsembleError, StaleArtifactError,
                     UnsupportedModeError, ValidationError, check_int, check_keys,
                     check_list, check_real, check_reals, check_seed)

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

_CONFIG_DOC = """\
config file keys (JSON, one object; unknown keys anywhere are errors):

  geometry      lengths: [L, ...] torus side lengths; grid_points: N per side
  potential     cosines: [{m: [index...], amplitude: a}, ...]; omit for V = 0
  modes         number of retained eigenmodes (basis subcommand)
  frame         either {file: PATH, sha256: HASH} referencing a basis export,
                or inline {geometry: ..., potential: ..., modes: ...}
  resonance     patterns: [[1,-1,1], ...] monomial conjugation signatures;
                eta: resonance tolerance; mode: exact | float | auto
  table         {file: PATH, sha256: HASH} referencing a resonances export
  nonlinearity  kind: cubic_focusing | smoothed_monomial | diagonal |
                polynomial, plus mu and the kind's coefficients
  solver        epsilon, tau_end, dt, samples, theta_osc, blow_up_factor,
                blow_up_norm
  initial       {radius: r, s: exponent, seed: n} for a random smooth state,
                or {re: [...], im: [...]} for an explicit one
  noise         {amplitudes: [...]}, or {scale: a, decay: p} for
                a*(1+lambda)^-p, or {eigenvalue_power: p} for lambda^-p
  seed          base RNG seed for stochastic runs (--seed overrides)
  study         study: converge | operator | stochastic | stationary |
                disparity, plus the study knobs (epsilons, s1, s_star,
                tau_end, dt, samples, theta_osc, initials, radius, members,
                seed, initial_seed, tracked_modes, compare_taus, burn_in,
                batches, batch_length, windows, quadrature_margin)
"""

_COMMAND_KEYS = {
    "basis": {"geometry", "potential", "modes"},
    "resonances": {"frame", "resonance"},
    "simulate": {"frame", "nonlinearity", "solver", "initial", "noise", "seed"},
    "effective": {"frame", "table", "nonlinearity", "solver", "initial",
                  "noise", "seed"},
    "study": {"frame", "table", "nonlinearity", "noise", "study"},
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="resonlab",
        description="Resonant averaging laboratory: spectral frames, resonance "
                    "tables, oscillatory and effective runs, and verdict-bearing "
                    "studies.",
        epilog=_CONFIG_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def common(p):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's RNG base seed")
        p.add_argument("--threads", type=int, default=None,
                       help="BLAS worker threads (default: library default, "
                            "usually all cores), in each of the two processes "
                            "a stochastic run splits its members between")
        p.add_argument("--verbose", action="store_true")

    common(sub.add_parser("basis", help="build and export a spectral frame"))
    common(sub.add_parser("resonances", help="enumerate and export a resonance table"))
    common(sub.add_parser("simulate", help="integrate the oscillatory system"))
    common(sub.add_parser("effective", help="integrate the averaged system"))
    study = sub.add_parser("study", help="run a verdict-bearing study")
    study.add_argument("kind", help="the study to run")
    common(study)
    return parser


def _fail(message):
    print(f"resonlab: error: {message}", file=sys.stderr)


def _build_geometry(section):
    from .spectral import TorusGeometry
    check_keys("geometry", section, {"lengths", "grid_points"},
               required=("lengths", "grid_points"))
    return TorusGeometry(section["lengths"], section["grid_points"])


def _build_potential(section, dimension):
    from .spectral import Potential
    if section is None:
        return Potential.zero()
    check_keys("potential", section, {"cosines"})
    terms, given = {}, {}  # given: the entry that gave each index, up to sign
    for where, entry in check_list(section.get("cosines", []), "potential.cosines"):
        check_keys(where, entry, {"m", "amplitude"}, required=("m", "amplitude"))
        m = tuple(check_int(x, "potential index")
                  for _, x in check_list(entry["m"], f"{where}.m"))
        if not any(m):
            raise ConfigError(f"{where}.m must be a nonzero lattice index, got {list(m)}")
        if m in given:
            raise ConfigError(f"{where}.m = {list(m)} repeats {given[m]} up to sign")
        given[m] = given[tuple(-x for x in m)] = f"{where}.m = {list(m)}"
        terms[m] = check_real(entry["amplitude"], f"{where}.amplitude")
    return Potential.from_cosines(terms, dimension=dimension)


def _read_reference(section, base_dir, what, command):
    """The document a {file, sha256} reference pins; `command` makes the file."""
    from .io import read_json
    check_keys(what, section, {"file", "sha256"}, required=("file", "sha256"))
    for key in ("file", "sha256"):
        if not isinstance(section[key], str):
            raise ConfigError(f"{what}.{key} must be a string, got {section[key]!r}")
    path = os.path.join(base_dir, section["file"])
    if not os.path.exists(path):
        raise ConfigError(f"{what} file {path} not found; "
                          f"run `resonlab {command}` to create it")
    try:
        return read_json(path, sha256=section["sha256"])
    except StaleArtifactError as exc:
        raise StaleArtifactError(f"{what} {exc}") from None


def _load_frame(section, base_dir):
    from .spectral import SpectralFrame, build_frame
    if isinstance(section, dict) and "file" in section:
        return SpectralFrame.from_document(
            _read_reference(section, base_dir, "frame", "basis"))
    check_keys("frame", section, {"geometry", "potential", "modes"},
               required=("geometry", "modes"))
    geometry = _build_geometry(section["geometry"])
    potential = _build_potential(section.get("potential"), geometry.dimension)
    return build_frame(geometry, potential, section["modes"])


def _load_table(section, frame, base_dir):
    from .resonance import ResonanceTable
    if section is None:
        return None
    table = ResonanceTable.from_document(
        _read_reference(section, base_dir, "table", "resonances"))
    if table.frame_hash is not None and table.frame_hash != frame.content_hash():
        raise StaleArtifactError(
            "resonance table was built for a different frame; rebuild it")
    return table


def _build_initial(section, frame):
    import numpy as np
    from .spectral import sample_ball
    if isinstance(section, dict) and ("re" in section or "im" in section):
        check_keys("initial", section, {"re", "im"}, required=("re", "im"))
        for key in ("re", "im"):
            shape = np.shape(np.array(section[key], dtype=object))
            if shape != (frame.modes,):
                raise ConfigError(f"initial.{key} must be a list of {frame.modes} real "
                                  f"numbers, one per mode, got shape {shape}")
        re, im = (np.array(check_reals(section[k], f"initial.{k}")) for k in ("re", "im"))
        return re + 1j * im
    check_keys("initial", section, {"radius", "s", "seed"}, required=("radius", "s", "seed"))
    return sample_ball(frame, check_real(section["s"], "initial.s", 0.0),
                       check_real(section["radius"], "initial.radius", 0.0),
                       np.random.default_rng(check_seed(section["seed"], "initial.seed")))


def _build_noise(section, frame):
    from .integrators import NoiseModel
    if section is None:
        return None
    check_keys("noise", section, {"amplitudes", "scale", "decay", "eigenvalue_power"})
    forms = [k for k in ("amplitudes", "scale", "eigenvalue_power") if k in section]
    if len(forms) != 1:
        raise ConfigError("noise section needs exactly one of amplitudes, "
                          "scale(+decay), eigenvalue_power")
    check_keys("noise", section, {"scale", "decay"} if forms == ["scale"] else forms)
    if forms == ["amplitudes"]:
        noise = NoiseModel(section["amplitudes"])
        noise.array(frame)  # refuses a count other than the frame's modes
        return noise
    if forms == ["eigenvalue_power"]:
        return NoiseModel.from_eigenvalue_power(
            frame.eigenvalues, check_real(section["eigenvalue_power"], "noise.eigenvalue_power"))
    decay = check_real(section.get("decay", 0.0), "noise.decay")
    return NoiseModel(tuple(check_real(section["scale"], "noise.scale")
                            * (1.0 + frame.eigenvalues) ** -decay))


def _resources(started):
    """Wall seconds since main started, and CPU seconds, peak RSS and minor page
    faults of this process and of its reaped children (the forked member shards).
    Each is a fixed-width string, so a manifest's size does not vary from run
    to run."""
    import resource

    def usage(who):
        ru = resource.getrusage(who)
        return {"cpu_s": f"{ru.ru_utime + ru.ru_stime:.6e}",
                "peak_rss_mb": f"{ru.ru_maxrss / 1024.0:.6e}",  # ru_maxrss is in KiB
                "minor_faults": f"{ru.ru_minflt:.6e}"}

    return {"wall_s": f"{time.perf_counter() - started:.6e}",
            "self": usage(resource.RUSAGE_SELF),
            "children": usage(resource.RUSAGE_CHILDREN)}


def _write_manifest(args, config, outputs):
    """The output directory's manifest.json: the provenance of this invocation,
    with `outputs` mapping each file it wrote to the sha256 of its bytes."""
    import datetime
    from .io import write_json
    write_json(os.path.join(args.out, "manifest.json"), {
        "schema": "resonlab-manifest-v2",
        "command": args.command if args.command != "study" else f"study {args.kind}",
        "config_path": os.path.relpath(args.config, args.out),
        "config": config,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
                     .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "seed": args.seed,
        "outputs": dict(sorted(outputs.items())),
        "resources": _resources(args.started),  # varies from run to run
    })


def _spectrum_summary(frame):
    from .resonance import eigenvalue_clusters
    from .spectral import DEGENERACY_RTOL
    lam = frame.eigenvalues
    lines = [f"frame sha256 {frame.content_hash()}",
             f"dimension {frame.geometry.dimension}, modes {frame.modes}",
             "eigenvalue  multiplicity"]
    lines += [f"{float(lam[c[0]]):<11.6g} {len(c)}"
              for c in eigenvalue_clusters(lam, eta=DEGENERACY_RTOL)]
    return "\n".join(lines) + "\n"


def _cmd_basis(args, config, base_dir):
    from .io import write_json, write_text
    check_keys("config", config, _COMMAND_KEYS["basis"], required=("geometry", "modes"))
    frame = _load_frame(config, base_dir)  # the config is an inline frame
    os.makedirs(args.out, exist_ok=True)
    outputs = {"frame.json": write_json(os.path.join(args.out, "frame.json"),
                                        frame.to_document()),
               "spectrum.txt": write_text(os.path.join(args.out, "spectrum.txt"),
                                          _spectrum_summary(frame))}
    _write_manifest(args, config, outputs)
    if args.verbose:
        print(f"frame content sha256: {frame.content_hash()}")
    return 0


def _cmd_resonances(args, config, base_dir):
    from .io import write_json
    from .resonance import build_resonance_table
    check_keys("config", config, _COMMAND_KEYS["resonances"],
               required=("frame", "resonance"))
    frame = _load_frame(config["frame"], base_dir)
    section = config["resonance"]
    check_keys("resonance", section, {"patterns", "eta", "mode"}, required=("patterns",))
    kwargs = {k: section[k] for k in ("patterns", "mode") if k in section}
    if "eta" in section:
        kwargs["eta"] = check_real(section["eta"], "resonance.eta")
    table = build_resonance_table(frame, **kwargs)
    os.makedirs(args.out, exist_ok=True)
    digest = write_json(os.path.join(args.out, "table.json"), table.to_document())
    _write_manifest(args, config, {"table.json": digest})
    if args.verbose:
        print(f"table content sha256: {table.content_hash()}")
    return 0


def _resolve_seed(args, config):
    """The run's seed (--seed over config seed), or None; one member stream is keyed."""
    if args.seed is not None:
        return check_seed(args.seed, "--seed", keys=1)
    if config.get("seed") is not None:
        return check_seed(config["seed"], "seed", keys=1)
    return None


def _cmd_trajectory(args, config, base_dir):
    """simulate (the full system) or effective (the averaged one)."""
    from .fields import ResonantDrift
    from .integrators import SolverConfig, integrate_effective, integrate_full
    from .io import save_trajectory
    from .nonlinearity import NonlinearitySpec
    effective = args.command == "effective"
    check_keys("config", config, _COMMAND_KEYS[args.command],
               required=("frame", "nonlinearity", "solver", "initial")
                        + (("table",) if effective else ()))
    seed = _resolve_seed(args, config)
    frame = _load_frame(config["frame"], base_dir)
    table = _load_table(config.get("table"), frame, base_dir)
    spec = NonlinearitySpec.from_document(config["nonlinearity"])
    solver = SolverConfig.from_document(config["solver"])
    v0 = _build_initial(config["initial"], frame)
    noise = _build_noise(config.get("noise"), frame)
    if seed is None and noise is not None and not noise.is_zero:
        # the run refuses this too; refused here before the drift is built
        raise ConfigError("a run whose noise injects needs a seed (--seed or config seed)")

    if effective:
        traj = integrate_effective(v0, ResonantDrift(frame, spec, table), solver,
                                   noise=noise, seed=seed)
    else:
        traj = integrate_full(v0, spec, frame, solver, noise=noise, seed=seed)

    os.makedirs(args.out, exist_ok=True)
    digest = save_trajectory(os.path.join(args.out, "trajectory.jsonl"), traj,
                             config=solver)
    _write_manifest(args, config, {"trajectory.jsonl": digest})
    if args.verbose:
        print(f"samples: {len(traj.taus)}, final tau {traj.taus[-1]:g}")
    return 0


def _cmd_study(args, config, base_dir):
    from .io import write_report
    from .nonlinearity import NonlinearitySpec
    from .studies import StudyConfig, run_study
    check_keys("config", config, _COMMAND_KEYS["study"], required=("frame", "study"))
    if not isinstance(config["study"], dict):
        raise ConfigError("config section 'study' must be an object")
    section = dict(config["study"])
    section.setdefault("study", args.kind)
    if section["study"] != args.kind:
        raise ConfigError(f"config study {section['study']!r} does not match "
                          f"the requested kind {args.kind!r}")
    if args.seed is not None:
        section["seed"] = check_seed(args.seed, "--seed")
    cfg = StudyConfig.from_document(section)
    frame = _load_frame(config["frame"], base_dir)
    table = _load_table(config.get("table"), frame, base_dir)
    spec = (NonlinearitySpec.from_document(config["nonlinearity"])
            if "nonlinearity" in config else None)
    noise = _build_noise(config.get("noise"), frame)
    report = run_study(cfg, frame, spec=spec, table=table, noise=noise)
    outputs = write_report(args.out, report)
    _write_manifest(args, config, outputs)
    if args.verbose or not report.passed():
        for name, value in report.verdicts.items():
            print(f"verdict {name}: {value}")
    return 0 if report.passed() else 3


def _dispatch(args):
    from .io import read_json
    if not os.path.exists(args.config):
        raise ConfigError(f"config file {args.config} not found")
    config = read_json(args.config)
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    base_dir = os.path.dirname(os.path.abspath(args.config))
    command = {"basis": _cmd_basis, "resonances": _cmd_resonances, "simulate": _cmd_trajectory,
               "effective": _cmd_trajectory, "study": _cmd_study}[args.command]
    return command(args, config, base_dir)


def main(argv=None):
    started = time.perf_counter()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    args.started = started
    try:
        if args.threads is not None:
            threads = str(check_int(args.threads, "--threads", 1))
            for var in _THREAD_VARS:
                os.environ[var] = threads
        return _dispatch(args)
    except (ConfigError, StaleArtifactError, UnsupportedModeError,
            ValidationError) as exc:
        _fail(str(exc))
        return 1
    except (BlowUpError, EnsembleError) as exc:
        _fail(str(exc))
        return 2
    except (KeyError, TypeError, ValueError) as exc:
        _fail(f"malformed config: {exc!r}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
