"""tools/same_outputs.py's comparison of two result trees, run as the
script is, on small trees written here: no CLI job runs."""

import math
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"


def _result_tree(root, norm):
    """A result tree of one truncate job whose CSV holds *norm* on line 2."""
    job = root / "truncate-0"
    (job / "cwd").mkdir(parents=True)
    (job / "cwd" / "truncate.csv").write_text(f"d,limit_norm\n10,{norm!r}\n100,2.5\n",
                                              encoding="utf-8")
    (job / "stdout").write_text("", encoding="utf-8")
    (job / "stderr").write_text("", encoding="utf-8")
    (job / "exit_code").write_text("0\n", encoding="utf-8")
    return root


def _report(old, new):
    done = subprocess.run([sys.executable, str(SCRIPT), "--compare", str(old), str(new)],
                          capture_output=True, text=True, check=True)
    return done.stdout.splitlines()


def test_identical_trees_give_an_empty_report(tmp_path):
    norm = 1.2345678901234567
    assert _report(_result_tree(tmp_path / "old", norm), _result_tree(tmp_path / "new", norm)) == []


def test_one_ulp_is_named_by_file_and_line(tmp_path):
    norm = 1.2345678901234567
    moved = math.nextafter(norm, 2.0)
    old, new = _result_tree(tmp_path / "old", norm), _result_tree(tmp_path / "new", moved)
    assert _report(old, new) == [
        f"truncate-0/cwd/truncate.csv:2: old '10,{norm!r}' new '10,{moved!r}'"]


def test_file_in_one_tree_only_is_named(tmp_path):
    old, new = _result_tree(tmp_path / "old", 1.5), _result_tree(tmp_path / "new", 1.5)
    (new / "truncate-0" / "cwd" / "extra.csv").write_text("d\n", encoding="utf-8")
    (old / "truncate-0" / "exit_code").write_text("2\n", encoding="utf-8")
    assert _report(old, new) == ["truncate-0/cwd/extra.csv: only in new",
                                 "truncate-0/exit_code:1: old '2' new '0'"]
