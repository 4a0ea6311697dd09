"""Every narrative demo runs to completion."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rwre

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("[0-9]*.py"))


def test_demos_found():
    assert DEMOS  # an empty parametrization would only skip


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo, tmp_path):
    src = str(Path(rwre.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
