"""The workspace script writes configs that the CLI loads as written."""

import importlib.util
import os
from pathlib import Path
import re
import subprocess
import sys

from resonlab import cli
from resonlab.io import read_json
from resonlab.studies import StudyConfig

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_workspace_configs_load(tmp_path, capsys):
    assert _script("make_workspace").main(["--dir", str(tmp_path)]) == 0
    configs = tmp_path / "configs"
    written = sorted(p.name for p in configs.iterdir())
    assert written == ["basis.json", "basis_moments.json", "effective.json",
                       "resonances.json", "resonances_moments.json", "simulate.json",
                       "stationary.json", "stochastic.json", "study.json"]
    kinds = {}
    for path in configs.iterdir():
        config = read_json(path)
        if "frame" not in config:
            continue
        frame = cli._load_frame(config["frame"], str(configs))
        table = cli._load_table(config.get("table"), frame, str(configs))
        if table is not None:
            assert table.frame_hash == frame.content_hash()
        if "study" in config:
            kinds[path.name] = StudyConfig.from_document(config["study"]).study
            noise = cli._build_noise(config.get("noise"), frame)
            assert (noise is None) == (path.name == "study.json")
    assert kinds == {"study.json": "converge", "stochastic.json": "stochastic",
                     "stationary.json": "stationary"}
    out = capsys.readouterr().out
    for kind in kinds.values():
        assert f"resonlab study {kind} --config" in out


def test_ab_pairs_times_both_trees(tmp_path):
    # two alternating pairs of `basis`, both sides this tree given two ways
    # (the repository root and its src directory)
    config = tmp_path / "basis.json"
    config.write_text('{"geometry": {"lengths": [6.283185307179586], "grid_points": 16}, '
                      '"modes": 5}')
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "ab_pairs.py"), str(ROOT), str(ROOT / "src"),
         "--pairs", "2", "--", "basis", "--config", str(config), "--out", str(tmp_path / "out")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:4]] == ["pair 1", "pair 2", "parent", "change"]
    for line in lines[2:4]:
        # each side's median CPU seconds, read from the manifests: `basis`
        # starts no noise producer, and one thread spends no more than the wall
        wall, cpu = line.split("; ")
        median_wall = float(wall.split()[2])
        assert re.fullmatch(r"median cpu self \d+\.\d{3} s, children 0\.000 s", cpu), line
        assert 0 < float(cpu.split()[3]) <= median_wall
    assert lines[4].startswith("change faster in ") and " of 2 pairs" in lines[4]
    assert lines[5] == "gain: not judged (fewer than 10 pairs)"
    assert (tmp_path / "out" / "frame.json").exists()


_TRACED_RUNS = """
import sys
sys.path.insert(0, 'benchmark')
import numpy as np
import traced_cli
tracer = traced_cli.Tracer()
traced_cli.install(tracer)
from resonlab import fields, integrators
from resonlab.nonlinearity import NonlinearitySpec
from resonlab.resonance import build_resonance_table
from resonlab.spectral import Potential, TorusGeometry, build_frame
frame = build_frame(TorusGeometry((2 * np.pi,), 32), Potential.zero(), 5)
spec = NonlinearitySpec('cubic_focusing', mu=0.5)
drift = fields.ResonantDrift(frame, spec, build_resonance_table(frame))
cfg = integrators.SolverConfig(epsilon=0.2, tau_end=0.02, dt=1e-2, samples=3)
integrators.integrate_effective(0.3 * np.ones(5, complex), drift, cfg)
integrators.integrate_full(0.3 * np.ones(5, complex), spec, frame, cfg, drift=drift)
doc = tracer.document()
for name in ('resonance.tuples_kept', 'integrators.steps', 'integrators.field_evals'):
    assert doc['counters'].get(name, 0) > 0, (name, doc['counters'])
assert doc['spans']['fields.drift_build']['calls'] == 1, doc['spans']
"""


def test_benchmark_trace_mode_finds_every_wrapped_name():
    # benchmark/traced_cli.py (run.py --trace 1) wraps resonlab callables by
    # name, so an API change that drops one makes install() raise, and its
    # callbacks read the arguments of what they wrap: drift_built reads
    # ResonantDrift's positional (frame, spec, table).  One effective run and
    # one disparity-tracking full run go through the wrapped names.  It runs
    # in a child process because install() patches the modules it wraps.
    code = _TRACED_RUNS
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH="src"), timeout=120)
    assert result.returncode == 0, result.stderr


def test_benchmark_ladder_row_runs():
    # benchmark/ladder.py calls resonlab functions by name; one row at the
    # smallest size, each timing taken once, fails here when an API change
    # drops a name it calls.  A child process keeps benchmark/ off sys.path.
    code = ("import sys; sys.path.insert(0, 'benchmark'); import ladder; "
            "ladder.BUDGET_S = 0; row, points = ladder.ladder_row(1, 9, 32); "
            "assert sorted(row) == sorted(k for k, _ in ladder.COLUMNS) and points == 32")
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH="src"), timeout=120)
    assert result.returncode == 0, result.stderr


_FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_runs_after():
    pass
"""


def test_failing_property_reports_its_example(tmp_path):
    # a failing Hypothesis property imports libcst to report, which warns a
    # DeprecationWarning that pyproject.toml's warning filters must not turn
    # into an INTERNALERROR aborting the session.  The child runs under the
    # repository's pytest settings with its root, cache and example database
    # in tmp_path.
    (tmp_path / "test_failing_property.py").write_text(_FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_failing_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "Falsifying example" in result.stdout
    assert "1 failed, 1 passed" in result.stdout
