"""Smoke test of tools/codelines.py on a small synthetic module."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

SOURCE = '''"""Module docstring,
over two lines."""

# A comment.
import os


class A:
    """Class docstring."""

    def f(self):  # a comment after code keeps its line
        """Function
        docstring."""
        text = """a string, not a docstring:
# so this line is code"""
        return os.sep + text
'''


def load_codelines():
    spec = importlib.util.spec_from_file_location("codelines", ROOT / "tools" / "codelines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_codelines_counts_neither_blanks_comments_nor_docstrings(tmp_path, capsys):
    cl = load_codelines()
    # Code: import, class, def, the two lines of the string, return.
    assert cl.count(SOURCE) == (16, 6)
    path = tmp_path / "module.py"
    path.write_text(SOURCE)
    cl.main([str(path), str(path)])
    assert capsys.readouterr().out.splitlines()[-1].split() == ["total", "32", "12"]
