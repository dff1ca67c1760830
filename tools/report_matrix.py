"""Write the byte-identity matrix of one checkout: 22 verify and 9 spectrum reports.

    python3 tools/report_matrix.py OUTDIR

Each report comes from its own ``python -m artifact.cli`` process, run on
the ``src/`` next to this script, and lands in OUTDIR as one JSON file. To
compare two checkouts, run each one's copy of this script into its own
directory and ``diff -r`` the two directories; default reports carry no
timings, so equal code gives equal bytes. A checkout older than this script
takes a copy of it in its own ``tools/``.

The verify reports are seeds 0-2 times seven settings: the defaults, three
other (n, sites), a one-sample symmetry run at (3, 5), the transpose-shift
left boundary and the principal gauge; one more verify run reads
``CONFIG``, written into OUTDIR, and overrides its sites by a flag. The
spectrum reports are seven sizes at the defaults and two points on the
non-semisimple locus of the type-B Hecke algebra, where the seminormal
blocks are refused and the weight-sector route is taken: (2, 5) at m = 1,
where the components' Jucys-Murphy values meet, and (3, 5) at mu = pi/4,
where q^8 = 1 inside one component.

The exit code is 0 when every run exited 0, and 1 otherwise; a run that
fails prints its command and stderr.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

VERIFY_SETTINGS = {
    "defaults": [],
    "n4_sites2": ["--n", "4", "--sites", "2"],
    "n2_sites3": ["--n", "2", "--sites", "3"],
    "n3_sites4": ["--n", "3", "--sites", "4"],
    "n3_sites5_symmetry": ["--n", "3", "--sites", "5", "--suite", "symmetry", "--samples", "1"],
    "left_transpose_shift": ["--left", "transpose-shift"],
    "gauge_principal": ["--gauge", "principal"],
}

CONFIG = "n = 2\nsites = 3\ngauge = principal\nseed = 1\n"

SPECTRUM_SIZES = [(3, 6), (2, 10), (2, 6), (3, 4), (4, 3), (2, 1), (3, 1)]


def runs(config: Path) -> list[tuple[str, list[str]]]:
    """(report name, CLI arguments) of every report of the matrix; ``config``
    is the path of the written ``CONFIG``."""
    out = [(f"verify_seed{seed}_{name}", ["verify", "--seed", str(seed), *flags])
           for seed in range(3) for name, flags in VERIFY_SETTINGS.items()]
    out.append(("verify_config_n2_principal_sites2",
                ["verify", "--config", str(config), "--sites", "2"]))
    out += [(f"spectrum_n{n}_sites{sites}", ["spectrum", "--n", str(n), "--sites", str(sites)])
            for n, sites in SPECTRUM_SIZES]
    out.append(("spectrum_n2_sites5_m1", ["spectrum", "--n", "2", "--sites", "5", "--m", "1"]))
    out.append(("spectrum_n3_sites5_mu_pi4",
                ["spectrum", "--n", "3", "--sites", "5", "--mu", "0.7853981633974483"]))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/report_matrix.py OUTDIR", file=sys.stderr)
        return 2
    outdir = Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    config = outdir / "matrix.cfg"
    config.write_text(CONFIG, encoding="utf-8")
    matrix, failed = runs(config), 0
    for name, args in matrix:
        cmd = [sys.executable, "-m", "artifact.cli", *args, "--out", str(outdir / f"{name}.json")]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if proc.returncode:
            failed += 1
            print(f"exit {proc.returncode}: {' '.join(cmd)}\n{proc.stderr}", file=sys.stderr)
    print(f"{len(matrix) - failed} of {len(matrix)} reports written to {outdir}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
