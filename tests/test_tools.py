"""The repository's tools: ``tools/code_lines.py``, the code-line count of
the package, on fixture sources and on the package itself."""

import importlib.util
from pathlib import Path

import symrank

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# 7 code lines: the import, the class and def lines, the three lines of
# the string that is not a docstring, and the return
FIXTURE = '''"""Module docstring,
on two lines."""

import os  # a comment after code


class A:
    """Class docstring."""

    # a comment on its own line
    def f(self):
        """Function
        docstring."""

        text = """a multi-line
string that is
not a docstring"""
        return text
'''


def test_docstrings_comments_and_blank_lines_are_not_counted():
    assert code_lines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0
    source = ('class A:\n    """Class\n    docstring."""\n\n    # comment\n'
              '    def f(self):\n        """Function docstring."""\n\n'
              '    async def g(self):\n        """Coroutine docstring."""\n')
    assert code_lines.code_lines(source) == 3


def test_multi_line_string_that_is_not_a_docstring_counts_each_line():
    assert code_lines.code_lines('x = """a\nb\nc"""\n') == 3
    # a second string statement is no docstring
    assert code_lines.code_lines('"""Doc."""\n"""not\na docstring"""\n') == 2


def test_code_with_a_comment_counts_once():
    assert code_lines.code_lines("x = 1  # one\n") == 1


def test_fixture_count():
    assert code_lines.code_lines(FIXTURE) == 7


def test_main_total_is_the_sum_of_its_module_lines(capsys):
    code_lines.main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    *modules, (total, label) = rows
    assert label == "total"
    assert int(total) == sum(int(count) for count, _ in modules)
    package = Path(symrank.__file__).parent
    assert [name for _, name in modules] == sorted(p.stem for p in package.glob("*.py"))
    for count, name in modules:
        source = (package / f"{name}.py").read_text(encoding="utf-8")
        assert int(count) == code_lines.code_lines(source)
