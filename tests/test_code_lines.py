"""The code-line counter in tools/code_lines.py, imported by its path."""

import ast
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Code lines: the import, the class and def lines, the two lines of the
# string assigned to `text` and the two lines of the bracketed return.
SOURCE = '''"""Module docstring
over two lines."""

# a comment
import os


class Box:
    """Class docstring."""

    def size(self):
        """Function docstring
        over two lines."""
        text = """not a
docstring"""
        return (len(text) +
                len(os.sep))  # a trailing comment
'''


def test_docstrings_comments_and_blank_lines_count_nothing():
    assert code_lines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_docstring_lines_are_those_of_module_class_and_function():
    assert code_lines.docstring_lines(ast.parse(SOURCE)) == {1, 2, 9, 12, 13}


def test_strings_and_brackets_count_every_line_they_span():
    assert code_lines.code_lines(SOURCE) == 7


def test_main_prints_modules_and_total(tmp_path, capsys):
    (tmp_path / "box.py").write_text(SOURCE)
    (tmp_path / "one.py").write_text("# comment\nx = 1\n")
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        f"{'box.py':16} {7:6}", f"{'one.py':16} {1:6}", f"{'total':16} {8:6}", ""]
