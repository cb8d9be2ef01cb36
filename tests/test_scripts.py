"""The workspace script writes configs that the CLI loads as written."""

import importlib.util
import os
from pathlib import Path
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


def test_benchmark_trace_mode_finds_every_wrapped_name():
    # benchmark/traced_cli.py (run.py --trace 1) wraps resonlab callables by
    # name, so an API change that drops one makes install() raise.  It runs in
    # a child process because install() patches the modules it wraps.
    code = ("import sys; sys.path.insert(0, 'benchmark'); import traced_cli; "
            "traced_cli.install(traced_cli.Tracer())")
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
