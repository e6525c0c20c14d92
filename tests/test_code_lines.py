"""The committed code-line counter, ``tools/code_lines.py``."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

MODULE = '''"""A module docstring,
over two lines."""

# a comment line
pair = (1,
        2)


def first():
    """A function docstring."""
    return pair[0]  # a trailing comment
'''


def test_counts_code_lines_only(tmp_path):
    (tmp_path / "b.py").write_text(MODULE)
    (tmp_path / "a.py").write_text("x = 1\n")
    out = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)], capture_output=True, text=True, check=True)
    # b.py: both lines of the statement, the def line and the return line.
    assert out.stdout.split("\n") == ["     1 a.py", "     4 b.py", "     5 total", ""]


def test_without_a_directory_prints_usage():
    out = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True)
    assert out.returncode == 2
    assert out.stderr.startswith("usage:")
