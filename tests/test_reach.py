"""The reach scan of ``tests/reach.py``, on a snippet module of its own;
it pins no figure of the package."""

import importlib.util

from reach import defs, unreached

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


def test_reach_lists_each_def_no_entry_point_runs(tmp_path):
    """A def is reached when a frame of its code starts, a generator's and
    a decorator's at import included; a decorated one is matched from its
    first decorator, and a def nested in an unreached one is listed too,
    each with its lines."""
    path = tmp_path / "snippet.py"
    path.write_text(_SNIPPET)

    def run(out):
        assert out.is_dir()
        spec = importlib.util.spec_from_file_location("snippet", path)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
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
