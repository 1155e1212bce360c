"""The demos run clean, and the window-arithmetic demo prints what it
always printed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

WINDOW_ARITHMETIC_STDOUT = """\
torus  i(0/1, 2/5) = 2
sphere i(0/1, 2/5) = 4

twist of 1/0 along 0/1: 1/1
i(1/3, 4/7) = 5 = i(1/4, 4/11) = 5

triple through 0/1 splitting 2/5: 1/2 and 1/3
i(2/5, 1/2) + i(2/5, 1/3) = 1 + 1 = i(0/1, 2/5) = 2

two-crossing neighbors of 0/1 and 1/1: ['1/0', '1/2']

slopes up to 20 with equal coordinate vectors: none

window at c2: sphere, 4 cuffs
coordinates of win:c2:1/1: (('pants:c2', 2), ('win:c2:1/0', 2))
slopes with |p|,|q| <= 2: 8
"""


def run_demo(path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(path)], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=60,
    )


def test_there_are_five_demos():
    assert [p.name for p in DEMOS] == [
        "01_surfaces_and_classification.py",
        "02_end_spaces.py",
        "03_window_arithmetic.py",
        "04_curve_graphs.py",
        "05_cut_and_glue.py",
    ]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_clean(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.stdout


def test_window_arithmetic_demo_output_is_pinned():
    proc = run_demo(ROOT / "demos" / "03_window_arithmetic.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == WINDOW_ARITHMETIC_STDOUT
