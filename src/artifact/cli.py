"""Command-line front end for the verification suites and the spectrum.

Two subcommands. ``verify`` runs one suite or all of them at the requested
parameters and emits VerificationReport JSON (or a text table); the exit code
is 0 when every check passes, 1 when any fails, 2 on invalid input, 3 on
output I/O failure. ``spectrum`` diagonalizes the open-chain Hamiltonian
block by block and reports eigenvalue clusters: H commutes with the boundary
Hecke generators, so it has one block per irreducible module of the type-B
Hecke algebra, in the module's seminormal basis
(``hecke_algebra.hecke_blocks``), and each block's eigenvalues count as
many times as the module occurs; near the algebra's non-semisimple locus,
where those blocks are refused, one block per weight sector
(``spin_chain.hamiltonian_blocks``). Each block is eigensolved densely.
Identical arguments and seed produce byte-identical JSON: timings are
recorded only under --timings.

Every setting is written once, in ``OPTIONS``: its default, converter,
choices and help. Each subcommand takes the long flags of the settings it
reads (``COMMANDS``; ``spectrum`` only those that change H or the output).
Flags override an optional key=value config file (--config) whose keys are
the same long flags, each value converted and checked as its flag is when
the file is read; errors name path:line. Complex values accept "a+bi" syntax,
a negative one also as the next token (``--m -0.4+0.7i``).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from typing import Callable, NamedTuple

import numpy as np

from .boundary_charges import verify_symmetry_suite
from .hecke_algebra import hecke_blocks, verify_hecke_suite
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
    hamiltonian_coefficients,
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


class CliError(argparse.ArgumentTypeError):
    """Invalid input; the message goes to stderr and the process exits 2.

    Raised by a converter while argparse reads a flag, it is argparse's own
    refusal of the value (usage message, SystemExit(2))."""


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


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise CliError(f"seed must be an integer, got {text!r}")
    if not 0 <= value < 2**64:
        raise CliError("seed must fit in 64 unsigned bits")
    return value


def _boolean(text: str) -> bool:
    """A config value of an on/off flag."""
    low = text.lower()
    if low in ("true", "1", "yes", "false", "0", "no"):
        return low in ("true", "1", "yes")
    raise CliError(f"expected true or false, got {text!r}")


class Option(NamedTuple):
    default: object
    convert: Callable[[str], object] = str
    choices: tuple = ()
    help: str = ""


# Every setting once. Both subcommands' flags (--KEY, or a bare switch where
# the default is False), the config keys and DEFAULTS are read off this table.
OPTIONS = {
    "n": Option(3, int, help="rank"),
    "sites": Option(2, int, help="chain length"),
    "mu": Option(0.41 + 0j, parse_complex, help="deformation parameter, q = e^{i mu}"),
    "m": Option(0.9 + 0.2j, parse_complex, help="boundary exponent, Q = i e^{i mu m}"),
    "zeta": Option(0.6 + 0j, parse_complex, help="second boundary parameter"),
    "samples": Option(5, int, help="random draws per sampled check"),
    "seed": Option(0, _seed, help="sampler seed"),
    "tol": Option(1e-9, float, help="default residual tolerance"),
    "gauge": Option("homogeneous", choices=tuple(g.value for g in Gauge),
                    help="gradation of R and K"),
    "left": Option("identity", choices=tuple(k.value for k in LeftBoundaryKind),
                   help="left boundary matrix"),
    "right": Option("explicit", choices=RIGHT_FAMILIES, help="right boundary family"),
    "diag-block": Option(1, int, help="split row for the diagonal right boundary"),
    "xi": Option(0.35 + 0j, parse_complex, help="free scalar of the diagonal right boundary"),
    "suite": Option("all", choices=SUITE_ORDER + ("all",), help="suite to run"),
    "format": Option("json", choices=("json", "text"), help="report format"),
    "out": Option(None, help="write the report here instead of stdout"),
    "timings": Option(False, _boolean,
                      help="record wall time per check (breaks byte-determinism)"),
}
DEFAULTS = {key: option.default for key, option in OPTIONS.items()}
_COMPLEX_FLAGS = {f"--{key}" for key, option in OPTIONS.items() if option.convert is parse_complex}
# The settings each subcommand reads: spectrum's H depends on the model
# parameters alone (the Hamiltonian's gauge and boundaries are fixed).
COMMANDS = {
    "verify": ("run the residual checks", tuple(OPTIONS)),
    "spectrum": ("diagonalize the open Hamiltonian",
                 ("n", "sites", "mu", "m", "zeta", "out", "format")),
}


def read_config(path: str, keys=tuple(OPTIONS)) -> dict:
    """key=value lines, each key one of ``keys``, converted and checked as
    its flag is; '#' comments and blank lines are skipped. Errors name
    path:line."""
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
        if key not in keys:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
        option = OPTIONS[key]
        try:
            values[key] = option.convert(value)
        except CliError as exc:
            raise CliError(f"{path}:{lineno}: {key}: {exc}")
        except ValueError:
            raise CliError(f"{path}:{lineno}: {key}: cannot parse {value!r}")
        if option.choices and values[key] not in option.choices:
            raise CliError(f"{path}:{lineno}: {key}: {value!r} is not one of "
                           f"{', '.join(option.choices)}")
    return values


def _attach_negative_values(argv: list[str]) -> list[str]:
    """``argv`` with each complex flag followed by a value that starts with
    "-" written as one token, ``--m -0.4+0.7i`` as ``--m=-0.4+0.7i``:
    argparse reads a token that starts with "-" and is not a plain number as
    a flag, so the spaced form would leave the flag without its value."""
    out: list[str] = []
    for token in argv:
        if (out and out[-1] in _COMPLEX_FLAGS and token.startswith("-")
                and _parses_as_complex(token)):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def _parses_as_complex(text: str) -> bool:
    try:
        parse_complex(text)
    except CliError:
        return False
    return True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artifact",
        description="verify the boundary-symmetry identities or inspect the spectrum",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (summary, keys) in COMMANDS.items():
        sub = subs.add_parser(command, help=summary)
        # an absent flag leaves no attribute, so the config and DEFAULTS show through
        for key in keys:
            option = OPTIONS[key]
            shown = "" if option.default is None or option.default is False else (
                f" (default {option.default})")
            kind = ({"action": "store_true"} if option.default is False else
                    {"type": option.convert, "choices": option.choices or None})
            sub.add_argument(f"--{key}", dest=key, default=argparse.SUPPRESS,
                             help=option.help + shown, **kind)
        sub.add_argument("--config", help="key=value file of this command's long flags")
    return parser


def _resolve(args: argparse.Namespace) -> dict:
    """Merge flags > config > built-in defaults into one settings dict."""
    flags = vars(args).copy()
    command, config = flags.pop("command"), flags.pop("config")
    from_config = read_config(config, COMMANDS[command][1]) if config else {}
    return {**DEFAULTS, **from_config, **flags}


def _model_params(settings: dict) -> ModelParams:
    try:
        return ModelParams(n=settings["n"], mu=settings["mu"], m=settings["m"],
                           zeta=settings["zeta"], sites=settings["sites"])
    except DegenerateParameters as exc:
        raise CliError(str(exc))


def _over_cap(n: int, power: int, cap: int) -> bool:
    """n^power > cap, without forming a huge n^power: as n >= 2, every power
    past the cap's bit length is over it."""
    return n ** min(power, cap.bit_length()) > cap


def run_verify(settings: dict) -> tuple[int, list]:
    params = _model_params(settings)
    try:
        spec = ChainSpec(params=params, gauge=Gauge(settings["gauge"]),
                         right_boundary=settings["right"],
                         left_boundary=LeftBoundaryKind(settings["left"]),
                         diag_block=settings["diag-block"], xi=settings["xi"])
    except ValueError as exc:
        raise CliError(str(exc))
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
        if _over_cap(params.n, power, VERIFY_DIM_CAP):
            raise CliError(f"the {name} suite needs dense matrices of side "
                           f"{params.n}^{power}, over the cap {VERIFY_DIM_CAP}")
    try:
        require_box_scalars(params, spec.xi)
        reports = [SUITES[name](spec, samples=samples, tol=tol, seed=settings["seed"])
                   for name in suites]
    except DegenerateParameters as exc:
        raise CliError(str(exc))
    code = 0 if all(r.passed for r in reports) else 1
    return code, reports


def _spectrum_blocks(spec: ChainSpec) -> list[tuple[np.ndarray, int]]:
    """(block, multiplicity) pairs of H whose eigenvalues, each repeated
    multiplicity times, together are H's: H = a sum rho(U_l) + b rho(U_0) + c
    on each seminormal module, or where ``hecke_blocks`` refuses, each weight
    sector once."""
    a, b, c = hamiltonian_coefficients(spec)
    try:
        blocks = hecke_blocks(spec.params)
    except DegenerateParameters:
        return [(block, 1) for _, block in hamiltonian_blocks(spec)]
    for _, boundary, bulk, _ in blocks:  # weighted in place: one copy of each block
        bulk *= a
        bulk[np.diag_indices_from(bulk)] += b * boundary + c
    return [(bulk, multiplicity) for _, _, bulk, multiplicity in blocks]


def run_spectrum(settings: dict) -> SpectrumReport:
    """Eigenvalues of H from ``_spectrum_blocks``, sorted by real then
    imaginary part, clustered within ``CLUSTER_TOL``, with H's
    ``hermitian_defect``. No n^sites-sided matrix is formed."""
    params = _model_params(settings)
    if _over_cap(params.n, params.sites, SPECTRUM_DIM_CAP):
        raise CliError(f"n^sites = {params.n}^{params.sites} exceeds the "
                       f"dense-eigensolve cap {SPECTRUM_DIM_CAP}")
    try:
        spec = ChainSpec(params=params)
        blocks = _spectrum_blocks(spec)
        defect = hermitian_defect(spec)
    except (ValueError, DegenerateParameters) as exc:
        raise CliError(str(exc))
    evals = np.concatenate([np.repeat(np.linalg.eigvals(block), multiplicity)
                            for block, multiplicity in blocks])
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
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        settings = _resolve(args)
        set_timings_default(settings["timings"])
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
