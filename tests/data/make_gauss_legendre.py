#!/usr/bin/env python3
"""Write the 30-point Gauss-Legendre table of ``src/hblab/outer.py``.

Usage (from the root of a checkout):
python3 tests/data/make_gauss_legendre.py

Finds the zeros of the Legendre polynomial P_30 by Newton's method at 256
bits in mpmath, takes the weights 2 / ((1 - x^2) P_30'(x)^2), and rounds
each node and weight once, to the nearest float.  The script replaces the
``_GAUSS_LEGENDRE`` assignment in ``outer.py`` with float-hex literals;
``tests/test_outer_engine.py`` reruns it and requires the same text.
"""

import math
import re
from fractions import Fraction
from pathlib import Path

import mpmath

ORDER = 30
PREC = 256
OUTER = Path(__file__).resolve().parents[2] / "src" / "hblab" / "outer.py"


def _legendre(x):
    """(P_n(x), P_n'(x)) for n = ORDER by the three-term recurrence."""
    p0, p1 = mpmath.mpf(1), x
    for k in range(2, ORDER + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, ORDER * (x * p1 - p0) / (x * x - 1)


def _nearest_float(x) -> float:
    man, exp = x.man_exp  # man is |mantissa|
    return math.copysign(float(Fraction(man) * Fraction(2) ** exp), x)


def rule() -> list:
    """The (node, weight) pairs as floats, nodes ascending."""
    pairs = []
    with mpmath.workprec(PREC):
        for i in range(1, ORDER + 1):
            x = mpmath.mpf(math.cos(math.pi * (i - 0.25) / (ORDER + 0.5)))
            for _ in range(100):
                p, dp = _legendre(x)
                dx = p / dp
                x -= dx
                if abs(dx) < mpmath.mpf(2) ** (8 - PREC):
                    break
            else:
                raise RuntimeError(f"Newton did not converge for node {i}")
            _, dp = _legendre(x)
            w = 2 / ((1 - x * x) * dp * dp)
            pairs.append((_nearest_float(x), _nearest_float(w)))
    return sorted(pairs)


def table_source() -> str:
    lines = [f'        ("{x.hex()}", "{w.hex()}"),' for x, w in rule()]
    return "\n".join(
        ["_GAUSS_LEGENDRE = tuple(", "    (float.fromhex(x), float.fromhex(w))",
         "    for x, w in (", *lines, "    )", ")"]
    ) + "\n"


_TABLE = re.compile(r"^_GAUSS_LEGENDRE = tuple\(\n.*?^\)\n", re.M | re.S)


def main():
    text = OUTER.read_text()
    new, count = _TABLE.subn(lambda _: table_source(), text)
    if count != 1:
        raise SystemExit(f"expected one _GAUSS_LEGENDRE table in {OUTER}, found {count}")
    OUTER.write_text(new)
    print(f"wrote the {ORDER}-point table into {OUTER}")


if __name__ == "__main__":
    main()
