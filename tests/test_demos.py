"""Smoke tests: each demo script and the README's examples run to completion
against the current API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gtbezier
import gtbezier.cli as cli

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_python(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(Path(gtbezier.__file__).parents[1]))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def _readme_block(lang):
    blocks = re.findall(rf"^```{lang}\n(.*?)^```", (ROOT / "README.md").read_text(),
                        flags=re.M | re.S)
    assert len(blocks) == 1, f"README should hold one {lang} block"
    return blocks[0]


# what the fit demos' `gtbezier example` run leaves in their output directory
DEMO_OUTPUTS = {"circle_fit": ("circle.svg", "circle_errors.csv"),
                "helix_fit": ("helix_errors.csv",)}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(tmp_path, demo):
    _run_python([str(demo), str(tmp_path / "out")], tmp_path)
    for name in DEMO_OUTPUTS.get(demo.stem, ()):
        assert (tmp_path / "out" / name).is_file(), name


def test_readme_examples_run(tmp_path):
    _run_python(["-c", _readme_block("python")], tmp_path)
    config = tmp_path / "cfg.json"
    config.write_text(_readme_block("json"))
    assert cli.main(["pia-fit", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
