"""Compare two byte-identity matrices written by ``tools/report_matrix.py``.

    python3 tools/compare_reports.py PARENT_DIR CHANGE_DIR

Reports with equal bytes are listed by name. For every other report the
script prints what moved:

* a spectrum report: the worst eigenvalue move under the pairing of the two
  multisets that makes it least, relative to the parent's largest |eigenvalue|,
  and whether the cluster multiplicities and ``hermitian_defect`` are equal;
* a verify report: each check whose residual or scalar moved, with both
  values and their ratio, and each check whose pass status flipped.

The last line counts identical reports, moved values (one per moved residual,
scalar, ``hermitian_defect`` or eigenvalue), pass flips and multiplicity
changes. The exit code is 1 on a pass flip, a multiplicity change or a report
found on one side only, and 0 otherwise; moved values alone do not fail.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment


@dataclass
class Comparison:
    identical: list[str] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)
    moved: int = 0
    flips: int = 0
    multiplicity_changes: int = 0
    one_sided: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.flips or self.multiplicity_changes or self.one_sided)


def _complex(value) -> complex:
    """A number as the reports write it: a real, or [real, imag]."""
    return complex(*value) if isinstance(value, list) else complex(value)


def _same(a, b) -> bool:
    return a == b or (a != a and b != b)  # NaN reads as equal to NaN


def _ratio(old, new) -> str:
    if old is None or new is None or not old:
        return ""
    return f" (x{abs(_complex(new)) / abs(_complex(old)):.3g})"


def _compare_spectrum(name: str, old: dict, new: dict, out: Comparison) -> None:
    want = np.array([_complex(z) for z in old["eigenvalues"]])
    got = np.array([_complex(z) for z in new["eigenvalues"]])
    if want.shape != got.shape:
        out.multiplicity_changes += 1
        out.lines.append(f"{name}: {want.size} eigenvalues -> {got.size}")
        return
    i, j = linear_sum_assignment(np.abs(want[:, None] - got[None, :]))
    moves = np.abs(want[i] - got[j])
    worst = np.max(moves, initial=0.0) / max(np.max(np.abs(want), initial=0.0), 1e-300)
    out.moved += int(np.count_nonzero(moves))
    same_mult = ([c["multiplicity"] for c in old["clusters"]]
                 == [c["multiplicity"] for c in new["clusters"]])
    out.multiplicity_changes += not same_mult
    old_def, new_def = old["hermitian_defect"], new["hermitian_defect"]
    same_def = _same(old_def, new_def)
    out.moved += not same_def
    out.lines.append(
        f"{name}: worst eigenvalue move {worst:.2e} relative; cluster multiplicities "
        f"{'equal' if same_mult else 'CHANGED'}; hermitian_defect "
        + ("equal" if same_def else f"{old_def!r} -> {new_def!r}{_ratio(old_def, new_def)}"))


def _as_list(report) -> list[dict]:
    return report if isinstance(report, list) else [report]


def _compare_verify(name: str, old, new, out: Comparison) -> None:
    before = {(r["suite"], c["id"]): c for r in _as_list(old) for c in r["checks"]}
    after = {(r["suite"], c["id"]): c for r in _as_list(new) for c in r["checks"]}
    rows = []
    for key in sorted(before.keys() | after.keys()):
        check_id = key[1]
        if key not in before or key not in after:
            out.one_sided.append(f"{name}: {check_id}")
            rows.append(f"  {check_id}: only in {'change' if key in after else 'parent'}")
            continue
        a, b = before[key], after[key]
        for what in ("residual", "scalar"):
            if not _same(a[what], b[what]):
                out.moved += 1
                rows.append(f"  {check_id} {what} {a[what]!r} -> {b[what]!r}"
                            f"{_ratio(a[what], b[what])}")
        if a["pass"] != b["pass"]:
            out.flips += 1
            rows.append(f"  {check_id} pass FLIPPED {a['pass']} -> {b['pass']}")
    out.lines.append(f"{name}: {len(rows)} moved or flipped")
    out.lines += rows


def compare(parent: Path, change: Path) -> Comparison:
    out = Comparison()
    before = {p.name: p for p in parent.glob("*.json")}
    after = {p.name: p for p in change.glob("*.json")}
    for fname in sorted(before.keys() ^ after.keys()):
        out.one_sided.append(fname)
        out.lines.append(f"{fname}: only in {'change' if fname in after else 'parent'}")
    for fname in sorted(before.keys() & after.keys()):
        name = fname.removesuffix(".json")
        old_bytes, new_bytes = before[fname].read_bytes(), after[fname].read_bytes()
        if old_bytes == new_bytes:
            out.identical.append(name)
            continue
        old, new = json.loads(old_bytes), json.loads(new_bytes)
        if isinstance(old, dict) and "eigenvalues" in old:
            _compare_spectrum(name, old, new, out)
        else:
            _compare_verify(name, old, new, out)
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/compare_reports.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    out = compare(Path(argv[0]), Path(argv[1]))
    print(f"byte-identical ({len(out.identical)}): {', '.join(out.identical) or '-'}")
    for line in out.lines:
        print(line)
    print(f"{len(out.identical)} identical, {out.moved} moved values, {out.flips} pass flips, "
          f"{out.multiplicity_changes} multiplicity changes, {len(out.one_sided)} one-sided")
    return 1 if out.failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
