import importlib.util
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "campaign_sweep.py"
CLI_LINES = "campaign: value=-1.00 served=0 lost=0\noutputs in out/\n"


@pytest.mark.parametrize("stdout, marker", [
    (CLI_LINES, ""),
    ("HighsMipSolverData::transformNewIntegerFeasibleSolution\n" + CLI_LINES,
     " stdout=HighsMipSolverData::transformNewIntegerFeasibleSolution"),
], ids=["clean", "stray"])
def test_a_run_line_shows_stray_stdout(monkeypatch, capsys, stdout, marker):
    # the tool extends sys.path on import
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("campaign_sweep", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    # every campaign exits 0 and prints ``stdout``, writing no files
    monkeypatch.setattr(tool, "subprocess", SimpleNamespace(
        run=lambda argv, **kw: subprocess.CompletedProcess(
            argv, 0, stdout=stdout, stderr="")))
    assert tool.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 49 and lines[-1] == "0 of 48 runs failed"
    assert all(line.endswith(" error=" + marker) for line in lines[:-1])
    # the CLI's own summary, before the digests
    assert all(" exit=0 value=-1.00 served=0 lost=0 ledger=- events=- " in line
               for line in lines[:-1])
    # a run that printed no summary, as one that fails
    assert tool._summary("") == "value=-"
