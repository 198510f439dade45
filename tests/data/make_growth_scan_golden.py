#!/usr/bin/env python3
"""Write tests/data/growth_scan_golden.json: the rows of the log-domain
growth scan that ``tests/test_outer_engine.py`` requires to repeat exactly.

Usage (from the root of a checkout):
PYTHONPATH=src python3 tests/data/make_growth_scan_golden.py

Stores the ``repr`` of every field of every row of
``growth_bound_scan(ConstructionParams(1.2, 1.5, power_m=1), 1, 250)``, the
scan of the benchmark's ``desk`` workload.  Regenerate it only when a change
is meant to move these numbers, and say which moved and why.
"""

import json
from pathlib import Path

from hblab.outer import ConstructionParams, growth_bound_scan

N_HI = 250


def golden() -> list:
    params = ConstructionParams(1.2, 1.5, power_m=1)
    return [
        [repr(getattr(row, f)) for f in row.__slots__]
        for row in growth_bound_scan(params, 1, N_HI)
    ]


def main():
    path = Path(__file__).resolve().parent / "growth_scan_golden.json"
    rows = ",\n".join(json.dumps(row) for row in golden())
    path.write_text(f"[\n{rows}\n]\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
