import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "sloc.py"
_SPEC = importlib.util.spec_from_file_location("sloc", _PATH)
sloc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sloc)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a code line with a comment

# a comment-only line
    # an indented comment-only line


class Thing:
    """Class docstring."""

    size = 1

    def method(self):
        """Method docstring,

        with a blank line inside."""
        "a string statement that is no docstring"
        return """a string
value"""


async def fetch():
    \'\'\'Async function docstring.\'\'\'
    x = 1
    "another non-docstring string statement"
    return x
'''


def test_counts_code_lines_only():
    # import, class, size, def method, string statement, the two lines of the
    # returned string, async def, x = 1, string statement, return
    assert sloc.count(SOURCE) == 11


def test_empty_and_docstring_only_sources_count_zero():
    assert sloc.count("") == 0
    assert sloc.count('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "b.py").write_text('"""Doc."""\nz = 3\n')
    assert sloc.main([str(tmp_path)]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert lines == [["a.py", "2"], ["b.py", "1"], ["total", "3"]]
