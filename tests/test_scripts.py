"""The demos and the tools run: each script exits 0 in a fresh directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    out = _run([str(demo)], tmp_path)
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize("tool", ["tdc_digests.py", "bench_pairs.py"])
def test_tool_prints_its_help(tool, tmp_path):
    out = _run([str(ROOT / "tools" / tool), "--help"], tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage:")


def test_the_demos_are_found():
    # an empty glob would leave test_demo_runs with nothing to run
    assert DEMOS
