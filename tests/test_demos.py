"""Each demo script, and the README's library example and run config, runs
to completion against the package in ``src``; every exported name exists,
and the package imports nothing but the standard library and numpy."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )


def test_every_exported_name_resolves():
    import trafficast

    missing = [name for name in trafficast.__all__ if not hasattr(trafficast, name)]
    assert not missing


def test_runtime_imports_are_the_standard_library_or_numpy():
    # pyproject.toml declares numpy as the only runtime dependency.  scipy
    # and hypothesis are often installed next to it, so a test run alone
    # would not notice an import of either.
    imported = []
    for module in sorted((ROOT / "src" / "trafficast").rglob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported += [(module.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.append((module.name, node.module))
    assert len(imported) > 30
    foreign = [(name, target) for name, target in imported
               if target.split(".")[0] not in sys.stdlib_module_names | {"numpy"}]
    assert foreign == []


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    done = run_python([str(demo)], tmp_path)
    assert done.returncode == 0, done.stderr


def test_readme_library_example_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    done = run_python(["-c", code], tmp_path)
    assert done.returncode == 0, done.stderr


def test_readme_run_config_runs(tmp_path):
    from trafficast import cli

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1]
    config = tmp_path / "run.cfg"
    config.write_text(section.split("```ini\n", 1)[1].split("```", 1)[0], encoding="utf-8")
    outdir = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(outdir)]) == 0
    assert (outdir / "mse_grid.csv").read_text().count("\n") == 4
