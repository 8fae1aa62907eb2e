import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"

MODULE = '''"""A module docstring
over two lines."""

import os  # a trailing comment is code

# a comment line


def f(x):
    """A one-line docstring."""
    s = """a string
in code"""
    return s + x
'''


def src_lines():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_each_kind_of_line(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(MODULE)
    counts = src_lines().count_lines(path)
    assert counts == {"code": 5, "docstring": 3, "comment": 1, "blank": 4}
    assert sum(counts.values()) == len(MODULE.splitlines())


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    src_lines().main([str(tmp_path)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["module", "code", "docstring", "comment", "blank", "lines"]
    assert rows[1:] == [["a.py", "5", "3", "1", "4", "13"], ["b.py", "1", "0", "1", "1", "3"],
                        ["total", "6", "3", "2", "5", "16"]]
