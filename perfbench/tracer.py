"""Span tracer that instruments the ``artifact`` package from outside.

``Tracer.install()`` replaces every public function of the layer modules with
a timing wrapper. The wrapper is bound wherever the original function object
is bound: in the defining module and in every other ``artifact.*`` namespace
that imported it by name (``spin_chain`` imports ``build_r``, ``cli`` imports
the suite runners). ``Operator`` methods and ``ReportBuilder.add``/``add_flag``
are wrapped on their classes. Nothing under ``src/`` is edited;
``uninstall()`` restores every binding.

Spans are kept in memory as ``(name, parent, start, end, outermost)`` and
written out by ``write_spans`` once the run has ended. A span's self time is its duration
minus the time covered by its direct children. ``op_metrics`` turns the spans
of one op into the per-layer metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
from time import perf_counter

# The layers are the package modules. ``params`` and ``sampling`` cost
# nothing measurable, so they are left unwrapped and their time counts as
# self time of whichever layer called them.
LAYERS = (
    "tensor_core",
    "hecke_algebra",
    "yang_baxter",
    "reflection_k",
    "quantum_algebra",
    "spin_chain",
    "boundary_charges",
    "reporting",
    "cli",
)
UNTRACED = ("params", "sampling")

# Methods wrapped on their classes, as (module, class, method names).
CLASS_METHODS = (
    ("tensor_core", "Operator",
     ("__init__", "__matmul__", "__add__", "__sub__", "__mul__", "__rmul__",
      "__neg__", "transpose", "inv", "trace")),
    ("reporting", "ReportBuilder", ("add", "add_flag")),
)

SUITES = (
    ("hecke_algebra", "verify_hecke_suite"),
    ("yang_baxter", "verify_ybe_suite"),
    ("reflection_k", "verify_reflection_suite"),
    ("quantum_algebra", "verify_algebra_suite"),
    ("spin_chain", "verify_chain_suite"),
    ("boundary_charges", "verify_symmetry_suite"),
)

# Every per-layer metric: (name, unit, better, workload it is read on,
# end-to-end metric a change to this layer should move there).
_E2E = "op_s"
_E2E_RSS = "op_s,peak_rss_mb"
PER_LAYER = (
    ("yang_baxter.build_r.calls", "count", "lower", "verify-defaults", _E2E),
    ("yang_baxter.build_r.self_s", "s", "lower", "verify-defaults", _E2E),
    ("yang_baxter.fit_crossing_shift.incl_s", "s", "lower", "verify-defaults", _E2E),
    ("yang_baxter.fit_crossing_shift.evals_per_fit", "count", "lower",
     "verify-defaults", _E2E),
    ("tensor_core.Operator.constructions", "count", "lower", "verify-defaults", _E2E),
    ("tensor_core.embed_at.calls", "count", "lower", "verify-defaults", _E2E),
    ("reporting.emit_report.incl_s", "s", "lower", "verify-defaults", _E2E),
    ("reporting.report_to_dict.incl_s", "s", "lower", "verify-defaults", _E2E),
    ("reporting.checks", "count", "higher", "verify-defaults", _E2E),
    *((f"{mod}.{fn}.incl_s", "s", "lower", "verify-defaults", _E2E)
      for mod, fn in SUITES),
    ("tensor_core.Operator.matmul.calls", "count", "lower", "chain-reach", _E2E_RSS),
    ("tensor_core.Operator.matmul.self_s", "s", "lower", "chain-reach", _E2E_RSS),
    ("tensor_core.Operator.matmul.gflop", "gflop", "lower", "chain-reach", _E2E_RSS),
    ("tensor_core.embed_at.self_s", "s", "lower", "chain-reach", _E2E_RSS),
    ("tensor_core.embed_at.out_mb", "MB", "lower", "chain-reach", _E2E_RSS),
    ("tensor_core.embed_at.density", "ratio", "higher", "chain-reach", _E2E_RSS),
    ("spin_chain.build_transfer.calls", "count", "lower", "chain-reach", _E2E_RSS),
    ("spin_chain.build_transfer.incl_s", "s", "lower", "chain-reach", _E2E_RSS),
    ("spin_chain.build_double_row.incl_s", "s", "lower", "chain-reach", _E2E_RSS),
    ("spin_chain.build_hamiltonian.hecke_form.incl_s", "s", "lower",
     "chain-reach", _E2E_RSS),
    ("spin_chain.build_hamiltonian.transfer_derivative.incl_s", "s", "lower",
     "chain-reach", _E2E_RSS),
    ("boundary_charges.build_boundary_charges.incl_s", "s", "lower",
     "chain-reach", _E2E_RSS),
    ("hecke_algebra.rep_bulk.incl_s", "s", "lower", "spectrum", _E2E_RSS),
    ("hecke_algebra.rep_boundary.incl_s", "s", "lower", "spectrum", _E2E_RSS),
    ("cli.run_spectrum.self_s", "s", "lower", "spectrum", _E2E_RSS),
    *((f"quantum_algebra.{fn}.{kind}", unit, "lower",
       "verify-defaults,chain-reach", _E2E)
      for fn in ("coproduct_rep", "t_element_rep")
      for kind, unit in (("calls", "count"), ("self_s", "s"))),
    *((f"{layer}.self_s", "s", "lower", "all", _E2E) for layer in LAYERS),
    ("trace.overhead", "ratio", "lower", "all", "none (traced op_s / untraced op_s)"),
)

_MB = 1e6
_COMPLEX_BYTES = 16


def _route_name(args, kwargs) -> str:
    """The Hamiltonian's two routes are timed apart, as layers of their own."""
    route = kwargs.get("route", args[1] if len(args) > 1 else "hecke_form")
    return f"spin_chain.build_hamiltonian.{route}"


class Tracer:
    """Wraps the package's public functions and records one span per call.

    Spans are recorded between ``install`` and ``uninstall``; ``install``
    drops the spans of the previous recording.
    """

    def __init__(self):
        self.spans: list = []
        self.embeds: list = []  # (output side, identity-pad dimension)
        self.matmuls: list = []  # side of each Operator product
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._restore: list = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        del self.spans[:], self.embeds[:], self.matmuls[:]
        modules = {
            name: importlib.import_module(f"artifact.{name}")
            for name in LAYERS + UNTRACED
        }
        modules[""] = importlib.import_module("artifact")
        wrapped = {}
        for layer in LAYERS:
            module = modules[layer]
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        # Rebind in every namespace that holds the same function object.
        for module in modules.values():
            namespace = vars(module)
            for attr, obj in list(namespace.items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, hit[1])
        for layer, cls_name, methods in CLASS_METHODS:
            cls = getattr(modules[layer], cls_name)
            for meth in methods:
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        namer = _route_name if name == "spin_chain.build_hamiltonian" else None
        is_embed = name == "tensor_core.embed_at"
        is_matmul = name == "tensor_core.Operator.__matmul__"
        spans, stack, active = self.spans, self._stack, self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = namer(args, kwargs) if namer else name
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            outermost = active.get(span_name, 0) == 0
            active[span_name] = active.get(span_name, 0) + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[span_name] -= 1
                spans[idx] = (span_name, parent, start, end, outermost)
            if is_embed:
                side = result.mat.shape[0]
                self.embeds.append((side, side // math.prod(args[0].dims)))
            elif is_matmul:
                self.matmuls.append(result.mat.shape[0])
            return result

        return wrapper

    # -- recording ---------------------------------------------------------

    def op_metrics(self) -> dict:
        """Per-layer metrics of the spans of the last recording."""
        spans = self.spans
        count = len(spans)
        duration = [s[3] - s[2] for s in spans]
        child = [0.0] * count
        for i, s in enumerate(spans):
            if s[1] >= 0:
                child[s[1]] += duration[i]
        self_time = [duration[i] - child[i] for i in range(count)]

        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        incl_s: dict[str, float] = {}
        for i, s in enumerate(spans):
            name = s[0]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + self_time[i]
            if s[4]:
                incl_s[name] = incl_s.get(name, 0.0) + duration[i]

        # build_r calls under each crossing fit (nearest fit ancestor).
        fit = "yang_baxter.fit_crossing_shift"
        fit_of = [-1] * count
        under_fit: dict[int, int] = {}
        for i, s in enumerate(spans):
            parent = s[1]
            fit_of[i] = i if s[0] == fit else (fit_of[parent] if parent >= 0 else -1)
            if s[0] == "yang_baxter.build_r" and fit_of[i] >= 0:
                under_fit[fit_of[i]] = under_fit.get(fit_of[i], 0) + 1
        fits = calls.get(fit, 0)

        matmul = "tensor_core.Operator.__matmul__"
        # 8 d^3 real flops per dense complex d x d product.
        gflop = sum(8.0 * d**3 for d in self.matmuls) / 1e9
        out_entries = sum(side * side for side, _ in self.embeds)
        nonzero = sum(side * side / pad for side, pad in self.embeds)

        out = {
            "yang_baxter.fit_crossing_shift.evals_per_fit":
                sum(under_fit.values()) / 2 / fits if fits else 0.0,
            "tensor_core.Operator.constructions": calls.get("tensor_core.Operator.__init__", 0),
            "tensor_core.Operator.matmul.calls": calls.get(matmul, 0),
            "tensor_core.Operator.matmul.self_s": self_s.get(matmul, 0.0),
            "tensor_core.Operator.matmul.gflop": gflop,
            "tensor_core.embed_at.out_mb": out_entries * _COMPLEX_BYTES / _MB,
            "tensor_core.embed_at.density": nonzero / out_entries if out_entries else 0.0,
            "reporting.checks": calls.get("reporting.ReportBuilder.add", 0)
            + calls.get("reporting.ReportBuilder.add_flag", 0),
        }
        for name, *_ in PER_LAYER:
            if name in out or name == "trace.overhead":
                continue
            base, _, kind = name.rpartition(".")
            if base in LAYERS and kind == "self_s":
                prefix = base + "."
                out[name] = sum(v for k, v in self_s.items() if k.startswith(prefix))
            elif kind == "calls":
                out[name] = calls.get(base, 0)
            elif kind == "self_s":
                out[name] = self_s.get(base, 0.0)
            elif kind == "incl_s":
                out[name] = incl_s.get(base, 0.0)
            else:
                raise KeyError(f"no rule for per-layer metric {name}")
        return out

    def write_spans(self, path) -> None:
        """One line per span: index, parent, name, start and end in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\n")
            for i, (name, parent, start, end, _outer) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")


def counts(metrics: dict) -> dict:
    """The metrics that are counts, not times: they repeat exactly per seed."""
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


def median_metrics(per_op: list[dict]) -> dict:
    """Median of each time over the traced ops; counts are the same in every
    op, so they are taken from the first."""
    return {k: statistics.median(op[k] for op in per_op) if k.endswith("_s") else v
            for k, v in per_op[0].items()}
