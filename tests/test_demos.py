"""Smoke test: the fast demos run to the end and print their report.

Each demo runs in-process under `runpy` with stdout captured; the pytest
configuration turns any RuntimeWarning into an error.  `demo_planar.py`
(about 4 s) and `demo_stochastic.py` (about 8 s) are left out to keep
the suite's time; the four below take well under a second each.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["demo_bellman.py", "demo_dyadic.py",
                                  "demo_laminate.py", "demo_qcmaps.py"])
def test_fast_demo_runs(capsys, name):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert out.startswith("==")
