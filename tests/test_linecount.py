"""The tokenizer line counter of ``tests/linecount.py``, which the size
figures of CHANGES.md and ROADMAP.md cite."""

from linecount import code_lines, count

_SNIPPET = '''"""A module docstring,
on two lines."""

# a comment
import math  # a trailing comment


class Box:
    """A class docstring."""

    def f(self, x):
        """A method docstring."""

        y = (x +
             1)
        s = """a string on two lines,
        not a docstring"""
        "an expression string"; y += 1
        return math.sqrt(y), s
'''


def test_code_lines_leave_out_docstrings_comments_and_blanks():
    """import, class, def, the two lines of y, the two of s, the line that
    a second statement shares with a string, and return: 9 lines."""
    assert code_lines(_SNIPPET) == 9
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n# and a comment\n\n') == 0


def test_count_gives_each_module_of_a_directory(tmp_path):
    (tmp_path / "a.py").write_text(_SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert count(tmp_path) == {"a.py": 9, "b.py": 1}
    assert count(tmp_path / "b.py") == {"b.py": 1}
