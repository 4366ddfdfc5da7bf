"""The README's walkthrough scripts run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", [["bounds_tour.py"],
                                    ["sphere_pipeline.py", "300", "1"],
                                    ["tangent_accuracy.py"]],
                         ids=lambda script: script[0])
def test_demo_exits_0(script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script[0])]
                          + script[1:], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert proc.returncode == 0, proc.stderr
