"""The float reports of the ``desk`` verbs repeat to the last digit.

``tests/data/desk_golden.json`` holds the CSV text of ``divergence``,
``envelope`` and ``norm-crosscheck --seed 3`` at the CLI defaults, as
written by ``tests/data/make_desk_golden.py``.  A change to the f+ layer,
the H(b) norms or the closed-form evaluators that moves any of them must
regenerate the file and say which values moved and why.
"""

import importlib.util
import json
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"


def test_desk_reports_match_golden():
    spec = importlib.util.spec_from_file_location("make_desk_golden", DATA / "make_desk_golden.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    expect = json.loads((DATA / "desk_golden.json").read_text())
    assert script.golden() == expect
