"""The reach scans of ``tests/reach.py``, on snippet modules of their
own; they pin no figure of the package."""

import importlib.util
import sys

from reach import defs, statements, unexecuted, unreached

_SNIPPET = '''def used(x):
    return helper(x) + 1


def helper(x):
    """Reached through used."""
    return x


def unused(x):
    """Never called,
    on two lines."""
    return x


def deco(f):
    return f


class Box:
    @property
    def size(self):
        return len(list(self.items()))

    @deco
    def never(self):
        def inner():
            return 0

        return inner()

    def items(self):
        yield 1
'''


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_reach_lists_each_def_no_entry_point_runs(tmp_path):
    """A def is reached when a frame of its code starts, a generator's and
    a decorator's at import included; a decorated one is matched from its
    first decorator, and a def nested in an unreached one is listed too,
    each with its lines."""
    path = tmp_path / "snippet.py"
    path.write_text(_SNIPPET)

    def run(out):
        assert out.is_dir()
        mod = _load(path, "snippet")
        mod.used(1)
        mod.Box().size

    names = [d[1] for d in defs(tmp_path)]
    assert names == ["used", "helper", "unused", "deco", "Box.size", "Box.never",
                     "Box.never.inner", "Box.items"]
    gaps = unreached(tmp_path, [("snippet", run)])
    assert [(name, lines) for _, name, _, lines in gaps] == [
        ("unused", 4),
        ("Box.never", 6),
        ("Box.never.inner", 2),
    ]


_STATEMENT_SNIPPET = '''"""A module docstring."""
import sys

COUNT = 0


def bump(flag):
    """Counts its calls."""
    global COUNT
    COUNT += 1
    if flag:
        return (
            COUNT
            + 1
        )
    return COUNT


@staticmethod
def never():
    return 0


if __name__ == "__main__":
    bump(sys.argv)
'''


def test_statement_scan_lists_each_statement_no_run_executes(tmp_path):
    """Docstrings are not statements; a compound statement is its header,
    from its first decorator; a simple one spans its lines, so a return
    over three lines counts once any of them runs.  A ``global`` runs no
    line and is always listed; so are a body never called and a
    ``__main__`` block of a module imported under another name.  The
    trace function in place before is put back."""
    path = tmp_path / "snippet.py"
    path.write_text(_STATEMENT_SNIPPET)
    spans = [(first, last, text) for _, first, last, text in statements(tmp_path)]
    assert spans == [
        (2, 2, "import sys"),
        (4, 4, "COUNT = 0"),
        (7, 7, "def bump(flag):"),
        (9, 9, "global COUNT"),
        (10, 10, "COUNT += 1"),
        (11, 11, "if flag:"),
        (12, 15, "return ("),
        (16, 16, "return COUNT"),
        (19, 20, "@staticmethod"),
        (21, 21, "return 0"),
        (24, 24, 'if __name__ == "__main__":'),
        (25, 25, "bump(sys.argv)"),
    ]

    def run():
        mod = _load(path, "statement_snippet")
        assert mod.bump(True) == 2 and mod.bump(False) == 2

    before = sys.gettrace()
    gaps = unexecuted(tmp_path, run)
    assert sys.gettrace() is before
    assert [(first, text) for _, first, _, text in gaps] == [
        (9, "global COUNT"),
        (21, "return 0"),
        (25, "bump(sys.argv)"),
    ]
