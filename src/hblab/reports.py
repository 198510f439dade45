"""Deterministic experiment reports with JSON and CSV emission.

Numbers are stored as shortest round-trip decimal strings (``repr``), so a
report re-run with identical parameters and seed is byte-identical; runtime
is deliberately excluded from the files (it goes to the progress log) for
the same reason.
"""

from __future__ import annotations

import json

# hashlib maps OpenSSL's libcrypto on import; the interpreter's built-in
# sha256 gives the same digest without it (as the standard library's
# random does for sha512).  CPython 3.12 renamed the module _sha2.
try:
    from _sha256 import sha256 as _sha256
except ImportError:
    try:
        from _sha2 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

from ._record import Record, _set

CODE_VERSION = "0.1.0"


def fmt_number(x) -> str:
    """Shortest decimal string that round-trips the value."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, str)):
        return str(x)
    return repr(float(x))


class ExperimentReport(Record):
    """Rows of one experiment plus enough metadata to reproduce them.

    Unlike the other records it may be assigned to, and so has no hash;
    ``params`` and ``metadata`` default to fresh empty dicts."""

    __slots__ = ("name", "columns", "rows", "params", "metadata", "passed")
    __setattr__ = _set
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self,
        name: str,
        columns: tuple,
        rows: list,  # list of tuples aligned with columns
        params: dict | None = None,
        metadata: dict | None = None,
        passed: bool = True,
    ):
        self.name = name
        self.columns = columns
        self.rows = rows
        self.params = {} if params is None else params
        self.metadata = {} if metadata is None else metadata
        self.passed = passed

    def formatted_rows(self) -> list:
        return [tuple(fmt_number(v) for v in row) for row in self.rows]

    def to_json(self) -> str:
        obj = {
            "name": self.name,
            "params": {k: fmt_number(v) for k, v in sorted(self.params.items())},
            "columns": list(self.columns),
            "rows": self.formatted_rows(),
            "metadata": {k: fmt_number(v) for k, v in sorted(self.metadata.items())},
            "passed": self.passed,
        }
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.formatted_rows():
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def config_hash(config: dict) -> str:
    """Stable short hash of a configuration mapping."""
    doc = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return _sha256(doc.encode()).hexdigest()[:16]
