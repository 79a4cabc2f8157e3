"""`scripts/cli_fingerprint.py` gives the same lines on two runs of one tree,
on a small subset of its invocations that includes the selftest."""

import os
import re
import shlex

from scripts import cli_fingerprint as fp

LINE = re.compile(r"(?P<argv>.+) exit=[012] out=[0-9a-f]{64} err=[0-9a-f]{64}")


def _lines(tmp_path, run):
    tmp = str(tmp_path / f"run{run}")
    (tmp_path / f"run{run}").mkdir()
    argvs = fp.argvs(tmp)
    subset = argvs[::16] + [["check", "--selftest"]]
    assert any(tmp in arg for argv in subset for arg in argv)
    return [fp.fingerprint(argv, tmp) for argv in subset]


def test_two_runs_print_the_same_lines(tmp_path, monkeypatch):
    monkeypatch.chdir(fp.ROOT)
    first, second = _lines(tmp_path, 1), _lines(tmp_path, 2)
    assert first == second
    for line in first:
        argv = shlex.split(LINE.fullmatch(line)["argv"])
        assert not any(os.path.isabs(arg) for arg in argv), line
    assert any("<tmp>/cfd_cfk_" in line for line in first)
