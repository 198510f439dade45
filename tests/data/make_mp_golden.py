#!/usr/bin/env python3
"""Write tests/data/mp_golden.json: the extended-precision report values
that ``tests/test_mp_golden.py`` requires to repeat exactly.

Usage (from the root of a checkout): PYTHONPATH=src python3 tests/data/make_mp_golden.py

Stores, as shortest round-trip float reprs, the ``sarason`` rows and
``ratio_full_to_half`` at the CLI defaults (j_max 512, 384 bits) and at
j_max 1024 / 384 bits, the ``summability`` rows at the CLI defaults
(384 bits) and at 192 bits (the library default, A8's precision), and
log (f_r)+(0) of A7's Abel series at degree 1024 / 384 bits at the three
radii the benchmark's ``mp`` workload uses.  Each ``sarason`` and
``summability`` block also holds its counted bounds, ``series_error_bound``
and ``fhat_error_bound``, so that a change to a counted bound shows here.  Regenerate it only
when a change is meant to move these numbers, and say which moved and why:
before it overwrites the file, the script prints each value that differs
from the file as it was, as "path: old -> new".
"""

import json
from pathlib import Path

from mpmath import mp

from hblab import ConstructionParams, build_pair
from hblab.experiments import (
    abel_fr_plus,
    build_divergent_combo,
    interval_radius,
    phi_hat_series,
    sarason_series_failure,
    summability_divergence,
)

BITS = 384
SUMMABILITY_ORDERS = [0, 1, 2, 4, 8, 12, 16, 24, 32, 40, 48, 56, 64]


def counted_bounds(rep) -> dict:
    return {k: repr(rep.metadata[k]) for k in ("series_error_bound", "fhat_error_bound")}


def golden() -> dict:
    params = ConstructionParams(alpha=1.2, beta=1.5, power_m=1)
    pair = build_pair(params)
    combo = build_divergent_combo(params, pair)
    out = {}
    for j_max in (512, 1024):
        rep = sarason_series_failure(j_max, combo, pair, precision_bits=BITS)
        out[f"sarason_{j_max}"] = {
            "rows": [[j, repr(v)] for j, v in rep.rows],
            "ratio_full_to_half": repr(rep.metadata["ratio_full_to_half"]),
            **counted_bounds(rep),
        }
    for bits, key in ((BITS, "summability"), (192, "summability_192")):
        rep = summability_divergence(SUMMABILITY_ORDERS, combo, pair, precision_bits=bits)
        out[key] = {"rows": [[n, repr(s), repr(c)] for n, s, c in rep.rows], **counted_bounds(rep)}
    phi_hat = phi_hat_series(pair, 1024, BITS)
    radii = (pair.seq.w[1], interval_radius(params, 1, 0.5), interval_radius(params, 2, 0.0))
    out["abel_log_1024"] = [
        repr(float(mp.log(abel_fr_plus(r, combo, pair, precision_bits=BITS, phi_hat=phi_hat))))
        for r in radii
    ]
    return out


def moved(old, new, path="golden"):
    """Lines "path: old -> new", one for each value of ``new`` that differs
    from ``old``, the file as it was."""
    if isinstance(old, dict) and isinstance(new, dict):
        pairs = [(f"{path}.{k}", old.get(k), new.get(k)) for k in sorted(set(old) | set(new))]
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        pairs = [(f"{path}[{i}]", a, b) for i, (a, b) in enumerate(zip(old, new))]
    else:
        return [] if old == new else [f"{path}: {old} -> {new}"]
    return [line for sub, a, b in pairs for line in moved(a, b, sub)]


def main():
    path = Path(__file__).resolve().parent / "mp_golden.json"
    new = golden()
    old = json.loads(path.read_text()) if path.exists() else {}
    for line in moved(old, new):
        print(line)
    path.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
