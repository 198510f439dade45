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

from ._record import Record

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

    A builder sets ``precision_bits`` and its own keys; the provenance,
    ``code_version`` and ``config_hash``, is added when the report is
    written (``hblab.cli.write_report``), so a report built in memory has
    neither.  Unlike the other records it may be assigned to, and so has
    no hash; ``params`` and ``metadata`` default to fresh empty dicts."""

    # rows: a list of tuples aligned with columns
    __slots__ = ("name", "columns", "rows", "params", "metadata", "passed")
    _defaults = {"params": None, "metadata": None, "passed": True}
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __post_init__(self):
        if self.params is None:
            self.params = {}
        if self.metadata is None:
            self.metadata = {}

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
