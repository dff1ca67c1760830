"""Command-line front end for the verification suites and the spectrum.

Two subcommands. ``verify`` runs one suite or all of them at the requested
parameters and emits VerificationReport JSON (or a text table); the exit code
is 0 when every check passes, 1 when any fails, 2 on invalid input, 3 on
output I/O failure. ``spectrum`` diagonalizes the open-chain Hamiltonian
block by block and reports eigenvalue clusters: at n = 2 one block per
eigenspace of the boundary charge Q_11, H in its product-state basis read
off H's local terms (``boundary_charges.charge_eigenspace_blocks``);
otherwise, and wherever a site step of Q_11 is defective (integer m), one
per weight sector (``spin_chain.hamiltonian_blocks``); each block is
eigensolved densely.
Identical arguments and seed produce byte-identical JSON: timings are
recorded only under --timings.

Flags override an optional key=value config file (--config); unknown config
keys are errors. Complex values accept "a+bi" syntax.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from .boundary_charges import charge_eigenspace_blocks, verify_symmetry_suite
from .hecke_algebra import verify_hecke_suite
from .params import DegenerateParameters, ModelParams
from .quantum_algebra import verify_algebra_suite
from .reflection_k import LeftBoundaryKind, verify_reflection_suite
from .reporting import (
    SpectrumReport,
    emit_report,
    report_to_dict,
    set_timings_default,
)
from .sampling import require_box_scalars
from .spin_chain import (
    RIGHT_FAMILIES,
    ChainSpec,
    hamiltonian_blocks,
    hermitian_defect,
    verify_chain_suite,
)
from .yang_baxter import Gauge, verify_ybe_suite

# Suite runners in report order, each called as runner(spec, samples=, tol=,
# seed=). The lambdas look the suite functions up by module-global name at
# call time, so a rebinding of those names (e.g. by a profiler) takes effect.
SUITES = {
    "hecke": lambda spec, **kw: verify_hecke_suite(spec.params, **kw),
    "ybe": lambda spec, **kw: verify_ybe_suite(spec.params, **kw),
    "reflection": lambda spec, **kw: verify_reflection_suite(
        spec.params, diag_block=spec.diag_block, xi=spec.xi, **kw),
    "algebra": lambda spec, **kw: verify_algebra_suite(spec.params, **kw),
    "chain": lambda spec, **kw: verify_chain_suite(spec, **kw),
    "symmetry": lambda spec, **kw: verify_symmetry_suite(spec, **kw),
}
SUITE_ORDER = tuple(SUITES)
SPECTRUM_DIM_CAP = 4096
# Largest dense side verify builds: n^(sites+2) for the chain suite's
# double-row intertwiner, n^(sites+1) for the symmetry suite's charges on one
# more site, n^sites for the others, and four-site products in every suite.
VERIFY_DIM_CAP = 4096
_EXTRA_SITES = {"chain": 2, "symmetry": 1}
CLUSTER_TOL = 1e-8

DEFAULTS = {
    "n": 3,
    "sites": 2,
    "mu": 0.41 + 0j,
    "m": 0.9 + 0.2j,
    "zeta": 0.6 + 0j,
    "samples": 5,
    "seed": 0,
    "tol": 1e-9,
    "gauge": "homogeneous",
    "left": "identity",
    "right": "explicit",
    "diag-block": 1,
    "xi": 0.35 + 0j,
    "suite": "all",
    "format": "json",
    "out": None,
    "timings": False,
}

class CliError(Exception):
    """Invalid input; the message goes to stderr and the process exits 2."""


def parse_complex(text: str) -> complex:
    """Accept 'a+bi' (or plain reals, or 'bi') with either i or j.

    The i of "inf" is not the imaginary unit, so "inf" parses; non-finite
    values are then refused by ModelParams and ChainSpec.
    """
    cleaned = re.sub(r"i(?!nf)", "j", text.strip().replace(" ", ""))
    try:
        return complex(cleaned)
    except ValueError:
        raise CliError(f"cannot parse complex value {text!r} (expected a+bi)")


def _check_seed(value: int) -> int:
    if not 0 <= value < 2**64:
        raise CliError("seed must fit in 64 unsigned bits")
    return value


def _complex_flag(text: str) -> complex:
    try:
        return parse_complex(text)
    except CliError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _seed_flag(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}")
    try:
        return _check_seed(value)
    except CliError as exc:
        raise argparse.ArgumentTypeError(str(exc))


_CONVERT = {
    "n": int,
    "sites": int,
    "samples": int,
    "diag-block": int,
    "tol": float,
    "mu": parse_complex,
    "m": parse_complex,
    "zeta": parse_complex,
    "xi": parse_complex,
    "seed": lambda s: _check_seed(int(s)),
}


def read_config(path: str) -> dict:
    """key=value lines; '#' comments and blank lines are skipped."""
    values: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in DEFAULTS:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value
    return values


def _coerce_config_value(key: str, raw: str):
    if key in ("gauge", "left", "right", "suite", "format", "out"):
        allowed = {
            "gauge": {g.value for g in Gauge},
            "left": {k.value for k in LeftBoundaryKind},
            "right": set(RIGHT_FAMILIES),
            "suite": set(SUITE_ORDER) | {"all"},
            "format": {"json", "text"},
        }.get(key)
        if allowed is not None and raw not in allowed:
            raise CliError(f"config value {raw!r} not allowed for {key}")
        return raw
    if key == "timings":
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise CliError(f"config value for timings must be boolean, got {raw!r}")
    try:
        return _CONVERT[key](raw)
    except CliError:
        raise
    except ValueError:
        raise CliError(f"cannot parse config value {raw!r} for {key}")


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, default=None, help="rank (default 3)")
    sub.add_argument("--sites", type=int, default=None, help="chain length (default 2)")
    sub.add_argument("--mu", type=_complex_flag, default=None,
                     help="deformation parameter, q = e^{i mu} (default 0.41)")
    sub.add_argument("--m", type=_complex_flag, default=None,
                     help="boundary exponent, Q = i e^{i mu m} (default 0.9+0.2i)")
    sub.add_argument("--zeta", type=_complex_flag, default=None,
                     help="second boundary parameter (default 0.6)")
    sub.add_argument("--seed", type=_seed_flag, default=None,
                     help="sampler seed (default 0)")
    sub.add_argument("--gauge", choices=[g.value for g in Gauge], default=None)
    sub.add_argument("--left", choices=[k.value for k in LeftBoundaryKind],
                     default=None)
    sub.add_argument("--right", choices=RIGHT_FAMILIES, default=None)
    sub.add_argument("--diag-block", type=int, default=None,
                     help="split row for the diagonal right boundary")
    sub.add_argument("--xi", type=_complex_flag, default=None,
                     help="free scalar of the diagonal right boundary")
    sub.add_argument("--out", default=None, help="write the report here")
    sub.add_argument("--format", choices=["json", "text"], default=None)
    sub.add_argument("--config", default=None, help="key=value defaults file")
    sub.add_argument("--timings", action="store_true", default=None,
                     help="record wall time per check (breaks byte-determinism)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artifact",
        description="verify the boundary-symmetry identities or inspect the spectrum",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    verify = subs.add_parser("verify", help="run the residual checks")
    _add_common_flags(verify)
    verify.add_argument("--suite", choices=list(SUITE_ORDER) + ["all"], default=None)
    verify.add_argument("--samples", type=int, default=None,
                        help="random draws per sampled check (default 5)")
    verify.add_argument("--tol", type=float, default=None,
                        help="default residual tolerance (default 1e-9)")
    spectrum = subs.add_parser("spectrum", help="diagonalize the open Hamiltonian")
    _add_common_flags(spectrum)
    return parser


def _resolve(args: argparse.Namespace) -> dict:
    """Merge CLI > config > built-in defaults into one settings dict."""
    config = read_config(args.config) if args.config else {}
    settings = {}
    for key, default in DEFAULTS.items():
        attr = key.replace("-", "_")
        cli_value = getattr(args, attr, None)
        if cli_value is not None:
            settings[key] = cli_value
        elif key in config:
            settings[key] = _coerce_config_value(key, config[key])
        else:
            settings[key] = default
    return settings


def _model_params(settings: dict) -> ModelParams:
    try:
        return ModelParams(
            n=settings["n"],
            mu=settings["mu"],
            m=settings["m"],
            zeta=settings["zeta"],
            sites=settings["sites"],
        )
    except DegenerateParameters as exc:
        raise CliError(str(exc))


def _chain_spec(settings: dict, params: ModelParams) -> ChainSpec:
    try:
        return ChainSpec(
            params=params,
            gauge=Gauge(settings["gauge"]),
            right_boundary=settings["right"],
            left_boundary=LeftBoundaryKind(settings["left"]),
            diag_block=settings["diag-block"],
            xi=settings["xi"],
        )
    except ValueError as exc:
        raise CliError(str(exc))


def run_verify(settings: dict) -> tuple[int, list]:
    params = _model_params(settings)
    spec = _chain_spec(settings, params)
    samples = settings["samples"]
    tol = settings["tol"]
    suites = SUITE_ORDER if settings["suite"] == "all" else (settings["suite"],)
    if samples < 1:
        raise CliError(f"samples must be at least 1, got {samples}")
    if not (math.isfinite(tol) and tol > 0):
        raise CliError(f"tol must be finite and positive, got {tol}")
    if "hecke" in suites and params.sites < 2:
        raise CliError("the hecke suite needs at least two sites")
    for name in suites:
        power = max(params.sites + _EXTRA_SITES.get(name, 0), 4)
        if params.n**power > VERIFY_DIM_CAP:
            raise CliError(
                f"the {name} suite needs dense matrices of side n^{power} = "
                f"{params.n ** power}, over the cap {VERIFY_DIM_CAP}"
            )
    try:
        require_box_scalars(params, spec.xi)
        reports = [SUITES[name](spec, samples=samples, tol=tol, seed=settings["seed"])
                   for name in suites]
    except DegenerateParameters as exc:
        raise CliError(str(exc))
    code = 0 if all(r.passed for r in reports) else 1
    return code, reports


def _spectrum_blocks(spec: ChainSpec) -> list[np.ndarray]:
    """Blocks of H whose eigenvalues together are H's: the Q_11 eigenspace
    blocks at n = 2, unless a site step of Q_11 is defective or H's local
    terms leak out of the eigenspaces, and the weight-sector blocks
    otherwise."""
    if spec.params.n == 2:
        try:
            return charge_eigenspace_blocks(spec)
        except DegenerateParameters:
            pass  # the weight-sector route needs no eigenspace of Q_11
    return [block for _, block in hamiltonian_blocks(spec)]


def run_spectrum(settings: dict) -> SpectrumReport:
    """Eigenvalues of H from ``_spectrum_blocks``, sorted by real then
    imaginary part, clustered within ``CLUSTER_TOL``, with H's
    ``hermitian_defect``. No n^sites-sided matrix is formed."""
    params = _model_params(settings)
    if params.n**params.sites > SPECTRUM_DIM_CAP:
        raise CliError(
            f"n^sites = {params.n ** params.sites} exceeds the dense-eigensolve "
            f"cap {SPECTRUM_DIM_CAP}"
        )
    spec = _chain_spec(settings, params)
    try:
        blocks = _spectrum_blocks(spec)
        defect = hermitian_defect(spec)
    except (ValueError, DegenerateParameters) as exc:
        raise CliError(str(exc))
    evals = np.concatenate([np.linalg.eigvals(block) for block in blocks])
    order = np.lexsort((evals.imag, evals.real))
    evals = evals[order]
    clusters = []
    for z in evals:
        if clusters and abs(z - clusters[-1][-1]) <= CLUSTER_TOL:
            clusters[-1].append(z)
        else:
            clusters.append([z])
    return SpectrumReport(
        n=params.n,
        sites=params.sites,
        eigenvalues=[complex(z) for z in evals],
        clusters=[
            {"value": complex(np.mean(group)), "multiplicity": len(group)}
            for group in clusters
        ],
        hermitian_defect=defect,
        cluster_tol=CLUSTER_TOL,
    )


def _serialize(reports: list, fmt: str) -> str:
    if fmt == "text":
        return "\n".join(emit_report(r, "text") for r in reports)
    if len(reports) == 1:
        return emit_report(reports[0], "json")
    payload = [report_to_dict(r) for r in reports]
    return json.dumps(payload, indent=2) + "\n"


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = _resolve(args)
        set_timings_default(bool(settings["timings"]))
        if args.command == "verify":
            code, reports = run_verify(settings)
            text = _serialize(reports, settings["format"])
        else:
            report = run_spectrum(settings)
            text = emit_report(report, settings["format"])
            code = 0
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        set_timings_default(False)
    try:
        _write_output(text, settings["out"])
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
