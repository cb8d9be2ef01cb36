"""Run one resonlab CLI command with pass-through tracing wrappers installed.

Usage: PYTHONPATH=src python benchmark/traced_cli.py STATS.json <cli args...>

Each wrapper records one span per call (name, start, end, parent).  Spans
are folded into per-name totals as they close (calls, inclusive time, self
time, outermost inclusive time) and kept in memory; counters are taken at the
same boundaries.  Both are written to STATS.json when the command returns.
Nothing under src/ is modified: callables are replaced where they are looked
up, on the modules and classes of the running process only.
"""

import functools
import json
import os
import sys
import time

CALLS, TOTAL, SELF, OUTER, DEPTH = range(5)


class Tracer:
    """Span totals per name plus named counters, for one process."""

    def __init__(self):
        self.spans = {}
        self.counters = {}
        self._stack = []

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn, after=None):
        """Span `fn` as `name`; `after(args, kwargs, result)` adds counts."""
        stats = self.spans.setdefault(name, [0, 0.0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            stats[DEPTH] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[DEPTH] -= 1
                stats[CALLS] += 1
                stats[TOTAL] += elapsed
                stats[SELF] += elapsed - child[0]
                if stats[DEPTH] == 0:
                    stats[OUTER] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def document(self):
        return {"spans": {name: {"calls": s[CALLS], "total_s": s[TOTAL],
                                 "self_s": s[SELF], "outer_s": s[OUTER]}
                          for name, s in self.spans.items()},
                "counters": self.counters}


def _rows(state):
    shape = getattr(state, "shape", ())
    rows = 1
    for n in shape[:-1]:
        rows *= int(n)
    return rows


def _file_size(path):
    return os.path.getsize(path) if os.path.exists(path) else 0


def _replace_everywhere(modules, original, replacement):
    """Rebind `original` wherever a resonlab module bound it at import."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer):
    """Wrap the work-doing public callables of the eight resonlab modules."""
    from resonlab import (cli, fields, integrators, io, nonlinearity,
                          resonance, spectral, studies)
    modules = (spectral, resonance, nonlinearity, fields, integrators,
               studies, io, cli)

    def function(module, attr, name, after=None):
        original = getattr(module, attr)
        _replace_everywhere(modules, original, tracer.wrap(name, original, after))

    def method(cls, attr, name, after=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(name, raw.__func__, after)))
        else:
            setattr(cls, attr, tracer.wrap(name, raw, after))

    # spectral
    function(spectral, "build_frame", "spectral.build_frame")
    method(spectral.SpectralFrame, "content_hash", "spectral.content_hash")
    method(spectral.SpectralFrame, "from_document", "spectral.from_document")

    # resonance
    def enumerated(args, kwargs, result):
        tracer.count("resonance.enumerate_calls")
        tracer.count("resonance.tuples_enumerated", len(result))

    function(resonance, "build_resonance_table", "resonance.build_table")
    function(resonance, "enumerate_frequency_resonances", "resonance.enumerate",
             after=enumerated)
    function(resonance, "build_diffusion", "resonance.build_diffusion")
    method(resonance.ResonanceTable, "content_hash", "resonance.table_hash")
    method(resonance.ResonanceTable, "to_document", "resonance.to_document")
    method(resonance.ResonanceTable, "from_document", "resonance.from_document")

    # nonlinearity
    method(nonlinearity.NonlinearitySpec, "pointwise", "nonlinearity.pointwise")

    # fields
    def evaluated(args, kwargs, result):
        tracer.count("fields.eval_P_rows", _rows(args[0]))

    def drift_built(args, kwargs, result):
        drift, frame, spec = args[0], args[1], args[2]
        table = args[3] if len(args) > 3 else kwargs.get("table")
        if drift.gammas is not None or table is None:
            return
        groups = drift.groups
        # the mu V u cluster block is appended last and is not a resonance tuple
        if spec.mu > 0.0 and not frame.potential.is_zero and groups:
            groups = groups[:-1]
        tracer.count("resonance.tuples_kept", sum(g.coeffs.size for g in groups))
        tracer.count("resonance.tuples_considered", sum(
            len(tuples) for term in spec.polynomial_terms()
            for tuples in table.resonances[term.pattern].values()))

    function(fields, "eval_P", "fields.eval_P", after=evaluated)
    function(fields, "eval_Y", "fields.eval_Y")
    function(fields, "drift_route_residual", "fields.drift_route_residual")
    method(fields.ResonantDrift, "__init__", "fields.drift_build", after=drift_built)
    method(fields.ResonantDrift, "__call__", "fields.R")
    method(fields.QuadratureDrift, "__call__", "fields.quadrature")

    # integrators: public entry points, plus the shared loop for step counts
    for attr in ("integrate_full", "integrate_effective",
                 "integrate_full_stochastic", "integrate_effective_stochastic",
                 "ensemble_full", "ensemble_effective", "step_full_deterministic"):
        function(integrators, attr, f"integrators.{attr}")
    drive = tracer.wrap("integrators.drive", integrators._drive)

    def counted_drive(a0, g, *args, **kwargs):
        def counted_g(x, tau):
            tracer.count("integrators.field_evals")
            return g(x, tau)
        run = drive(a0, counted_g, *args, **kwargs)
        tracer.count("integrators.steps", run["steps"])
        tracer.count("integrators.member_steps", run["steps"] * a0.shape[0])
        return run

    integrators._drive = counted_drive

    # studies
    for attr in ("run_study", "study_deterministic_convergence",
                 "study_stochastic_actions"):
        function(studies, attr, f"studies.{attr}")

    # io: leaf readers, writers and hashers only, so nothing is counted twice
    def wrote(args, kwargs, result):
        tracer.count("io.bytes_written", _file_size(args[0]))

    def read(args, kwargs, result):
        tracer.count("io.bytes_read", _file_size(args[0]))

    for attr in ("write_json", "save_trajectory", "save_table_csv",
                 "save_ensemble_csv"):
        function(io, attr, "io.write", after=wrote)
    for attr in ("read_json", "load_trajectory", "load_ensemble_csv"):
        function(io, attr, "io.read", after=read)
    for attr in ("content_hash", "file_hash", "trajectory_hash", "ensemble_hash"):
        function(io, attr, "io.hash")

    return tracer.wrap("cli.main", cli.main)


def main(argv):
    stats_path, cli_args = argv[0], argv[1:]
    # --threads must reach the BLAS variables before numpy is imported, which
    # installing the wrappers does; resonlab.cli itself imports no numpy.
    from resonlab import cli
    if "--threads" in cli_args:
        threads = cli_args[cli_args.index("--threads") + 1]
        for var in cli._THREAD_VARS:
            os.environ[var] = threads
    tracer = Tracer()
    traced_main = install(tracer)
    code = traced_main(cli_args)
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.document(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
