"""Every demo runs to the end in a fresh interpreter and checks its own claims."""

from __future__ import annotations

import glob
import os
import subprocess
import sys

import pytest

import ratsurf

SRC = os.path.dirname(os.path.dirname(ratsurf.__file__))
DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(SRC), "demos", "*.py")))


def test_the_demos_are_found():
    assert [os.path.basename(path) for path in DEMOS] == [
        "cone_tables.py", "fat_point_oracle.py", "graph_walkthrough.py", "obstruction_family.py",
    ]


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_exits_0_without_a_mismatch(path):
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, path], capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stdout[-500:] + out.stderr[-2000:]
    assert "MISMATCH" not in out.stdout + out.stderr
