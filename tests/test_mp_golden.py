"""The extended-precision report values repeat to the last digit.

``tests/data/mp_golden.json`` holds the ``sarason`` rows (CLI defaults and
j_max 1024 at 384 bits), the ``summability`` rows at the CLI defaults and
at 192 bits, with the counted bounds of each, and A7's Abel values at
degree 1024, as written by ``tests/data/make_mp_golden.py``.  A change to
the Taylor engines or the f+ layer that moves any of them must regenerate
the file and say which values moved and why.
"""

import importlib.util
import json
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"


def test_mp_reports_match_golden():
    spec = importlib.util.spec_from_file_location("make_mp_golden", DATA / "make_mp_golden.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    expect = json.loads((DATA / "mp_golden.json").read_text())
    assert script.golden() == expect
