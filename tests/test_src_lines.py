"""tools/src_lines.py puts every source line in exactly one class."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location("src_lines", Path(__file__).parents[1] / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

SAMPLE = '''"""A module docstring,

three lines long."""

# a comment
x = 1  # code, with a comment
s = """a string,
not a docstring"""


class A:
    """One line."""

    def f(self):
        \'\'\'Two
        lines.\'\'\'
        return x
'''


def test_counts_each_kind_of_line(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    assert src_lines.count(path) == {"code": 6, "docstring": 6, "comment": 1, "blank": 4}


def test_main_prints_the_totals_of_src_radstack(tmp_path, monkeypatch, capsys):
    (tmp_path / "src" / "radstack" / "pkg").mkdir(parents=True)
    for name in ("a.py", "pkg/b.py", "../outside.py"):
        (tmp_path / "src" / "radstack" / name).write_text(SAMPLE)
    monkeypatch.chdir(tmp_path)
    assert src_lines.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["code", "12"], ["docstring", "12"], ["comment", "2"], ["blank", "8"], ["total", "34"]]
