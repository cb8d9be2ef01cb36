"""The workspace script writes configs that the CLI loads as written."""

import importlib.util
from pathlib import Path

from resonlab import cli
from resonlab.io import read_json
from resonlab.studies import StudyConfig

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
