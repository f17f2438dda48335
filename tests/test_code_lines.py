"""``tools/code_lines.py``'s physical and logical line counts."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


class Box:
    """Class docstring."""

    size = 1


def area(r):
    """Function docstring,
    over two lines."""
    text = """a string that is
    not a docstring"""
    return (math.pi
            * r * r)
'''


def test_logical_lines_leave_out_docstrings_comments_and_blanks():
    # import, class, size, def, text (two lines), return (two lines)
    assert code_lines.count(SOURCE) == (21, 8)


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1].split() == ["21", "8", "a.py"]
    assert rows[2].split() == ["3", "1", str(Path("pkg") / "b.py")]
    assert rows[-1].split() == ["24", "9", "total"]
