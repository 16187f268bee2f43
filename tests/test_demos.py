"""Every demo script runs to completion and prints what it printed when
its output was pinned: ``demo_output/<name>.txt`` beside this file.  The
demos are deterministic and print no numpy reprs, so a change in their
bytes is a change in what the package computes or how it prints it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PINNED = Path(__file__).resolve().parent / "demo_output"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(demo)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stdout + done.stderr
    assert done.stdout == (PINNED / f"{demo.stem}.txt").read_text(encoding="utf-8")
