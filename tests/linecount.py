"""Code lines of Python modules, counted by the tokenizer.

A code line is a physical line that a token other than a comment, a
docstring, an indent, a dedent or a line break touches: docstrings,
comments and blank lines are left out, and a multi-line expression counts
each of its lines.  A docstring here is a string literal that is a
statement of its own, as ``ast`` reads one.

    python tests/linecount.py src/hblab

prints each module's count and the total for a directory (or one file).
"""

import io
import sys
import tokenize
from pathlib import Path

_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}
_LAYOUT = _STATEMENT_START | {tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of ``source``."""
    tokens = [
        t
        for t in tokenize.generate_tokens(io.StringIO(source).readline)
        if t.type not in (tokenize.COMMENT, tokenize.NL)
    ]
    lines = set()
    before = tokenize.NEWLINE
    for token, after in zip(tokens, tokens[1:] + [None]):
        docstring = (
            token.type == tokenize.STRING
            and before in _STATEMENT_START
            and (after is None or after.type in (tokenize.NEWLINE, tokenize.ENDMARKER))
        )
        if token.type not in _LAYOUT and not docstring:
            lines.update(range(token.start[0], token.end[0] + 1))
        before = token.type
    return len(lines)


def count(path) -> dict:
    """{module name: code lines} of a file, or of each ``*.py`` directly
    in a directory."""
    path = Path(path)
    files = sorted(path.glob("*.py")) if path.is_dir() else [path]
    return {f.name: code_lines(f.read_text()) for f in files}


def main(argv) -> None:
    for arg in argv:
        counts = count(arg)
        for name, n in counts.items():
            print(f"{n:6d}  {name}")
        print(f"{sum(counts.values()):6d}  total {arg}")


if __name__ == "__main__":
    main(sys.argv[1:] or ["src/hblab"])
