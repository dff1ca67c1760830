"""The evidence tools under tools/, run on small report directories."""

import importlib.util
import json
import shutil
import sys
from pathlib import Path

from artifact import cli

TOOLS = Path(__file__).resolve().parent.parent / "tools"
_spec = importlib.util.spec_from_file_location("compare_reports", TOOLS / "compare_reports.py")
compare_reports = sys.modules["compare_reports"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_reports)


def _matrix(outdir: Path) -> Path:
    """A two-report stand-in for a ``report_matrix.py`` directory."""
    outdir.mkdir()
    for name, args in (("verify_hecke", ["verify", "--suite", "hecke", "--n", "2", "--sites", "2"]),
                       ("spectrum_n2_sites3", ["spectrum", "--n", "2", "--sites", "3"])):
        assert cli.main([*args, "--out", str(outdir / f"{name}.json")]) == 0
    return outdir


def test_identical_directories_give_zero_moved_values(tmp_path, capsys):
    parent = _matrix(tmp_path / "parent")
    change = tmp_path / "change"
    shutil.copytree(parent, change)
    assert compare_reports.main([str(parent), str(change)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "2 identical, 0 moved values, 0 pass flips, 0 multiplicity changes, 0 one-sided")


def test_moves_and_flips_are_reported(tmp_path):
    parent = _matrix(tmp_path / "parent")
    change = tmp_path / "change"
    shutil.copytree(parent, change)
    spectrum = json.loads((change / "spectrum_n2_sites3.json").read_text())
    spectrum["eigenvalues"][0][0] += 1e-9
    (change / "spectrum_n2_sites3.json").write_text(json.dumps(spectrum))
    verify = json.loads((change / "verify_hecke.json").read_text())
    verify["checks"][0]["pass"] = not verify["checks"][0]["pass"]
    (change / "verify_hecke.json").write_text(json.dumps(verify))
    out = compare_reports.compare(parent, change)
    assert (out.identical, out.moved, out.flips, out.multiplicity_changes) == ([], 1, 1, 0)
    assert out.failed
