"""The float reports of the ``desk`` verbs repeat to the last digit.

``tests/data/desk_golden.json`` holds the CSV text of ``verify-outer``,
``divergence``, ``envelope`` and ``norm-crosscheck --seed 3`` at the CLI
defaults, the ``rho_ratio_table`` of ``pair.json`` and the Gram value
log (f_r)+(0) at the radii of A7 and of the ``mp`` workload, as written by
``tests/data/make_desk_golden.py``.  A change to the f+ layer, the H(b)
norms, the log-domain sums or the closed-form evaluators that moves any
of them must regenerate the file and say which values moved and why.
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
