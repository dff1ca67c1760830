"""Evaluation representations of the quantum affine algebra and Lax operators.

Single-site images of the Chevalley generators e_i, f_i, q^{h_i/2}, q^{eps_i/2}
(index n is the affine pair, carrying the spectral phases e^{-+2 lambda} in the
homogeneous gradation and e^{-+2 lambda/n} in the principal one), L-fold
coproducts in both orders, the recursively defined root elements and the
dressed matrix elements t_ij / t-hat_ij they generate, Lax operators built from
those elements, and the closed-form block matrices for (pi_lambda x id^N) of
the primed coproducts.

Conventions that the checks pin down empirically:

* the averaged root recursion divides by (|i-j| - 1) and takes q^{-1} in the
  cross term for lowering elements (q^{+1} for the hatted family); getting a
  sign wrong breaks the factorized coproduct sums below;
* the coproduct sums: D(t_ij) = sum_k t_kj (x) t_ik for i < j, D(t-hat_ji) =
  sum_k t-hat_jk (x) t-hat_ki, and the minus families transposed accordingly;
* affine elements: D(y) = t_11 (x) y + y (x) t_nn;
* the primed split of a tower entry is the plain one (``_coproduct_pairs``)
  with its legs exchanged; the Chevalley coproducts keep both orders typed
  out, because ``algebra.prime_is_swap`` compares them.

Everything is realized as dense matrices on (C^n)^{(x) L}; the first tensor
slot optionally carries the spectral parameter, all the others sit at 0.
A ``Tower`` fixes (params, L, first-site lambda), always in the homogeneous
gradation, and builds each plain generator coproduct, root element and tower
entry once; every L-site image any module reads comes from one, and
``t_element_rep`` is its one-shot wrapper. The checks that compare
independent routes call ``coproduct_rep`` (both orders) and
``_coproduct_recursive`` directly. ``intertwine_residual`` is the linear
intertwining relation Delta'(g) X = X Delta(g), written once for R, the
monodromy and its hatted partner.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum
from functools import reduce

import numpy as np

from .params import DegenerateParameters, ModelParams
from .reporting import ReportBuilder, VerificationReport
from .sampling import rng_from_seed, sample_model, sample_spectral
from .tensor_core import (
    RESIDUAL_FLOOR,
    Operator,
    aux_blocks,
    basis_matrix,
    embed_at,
    frob,
    identity_op,
    permutation_swap,
    prop_check,
    rel_residual,
    rtt_residual,
    sym_residual,
    worst_of,
)
from .yang_baxter import Gauge, build_gauge_V, build_r, build_rcheck

__all__ = [
    "GeneratorKind",
    "GeneratorLabel",
    "TElementFamily",
    "TElementLabel",
    "Tower",
    "eval_generator",
    "coproduct_rep",
    "t_element_rep",
    "t_coproduct_sum",
    "build_lax",
    "build_lax_hat",
    "block_closed_rep",
    "intertwine_residual",
    "verify_algebra_suite",
]


class GeneratorKind(str, Enum):
    E = "e"
    F = "f"
    KCARTAN = "k"   # q^{+- eps_i / 2}
    HCARTAN = "h"   # q^{+- h_i / 2}


@dataclass(frozen=True)
class GeneratorLabel:
    kind: GeneratorKind
    index: int
    inverse: bool = False

    def name(self) -> str:
        return f"{self.kind.value}{self.index}" + ("inv" if self.inverse else "")


class TElementFamily(str, Enum):
    t = "t"
    t_minus = "t_minus"
    t_hat = "t_hat"
    t_hat_minus = "t_hat_minus"
    t0_n1 = "t0_n1"
    t0hat_1n = "t0hat_1n"
    t0_minus_1n = "t0_minus_1n"
    t0hat_minus_n1 = "t0hat_minus_n1"


@dataclass(frozen=True)
class TElementLabel:
    family: TElementFamily
    i: int
    j: int


def _qpow(params: ModelParams, x: complex) -> complex:
    # q^x on the principal branch, q = e^{i mu}
    return cmath.exp(1j * params.mu * x)


def _root_qfac(params: ModelParams, i: int, j: int, hat: bool) -> complex:
    """Cross-term factor of the averaged root recursion for E_ij: q^{-1} for
    lowering elements (i > j) and q for raising ones, the reverse when hatted."""
    lowering = i > j
    return _qpow(params, 1.0 if lowering == hat else -1.0)


def _check_index(params: ModelParams, label: GeneratorLabel) -> None:
    if not (1 <= label.index <= params.n):
        raise ValueError(f"generator index {label.index} out of range for n={params.n}")


def eval_generator(
    params: ModelParams,
    label: GeneratorLabel,
    lam: complex = 0.0,
    gauge: Gauge = Gauge.homogeneous,
) -> Operator:
    """Single-site image of a Chevalley generator at spectral parameter lam.

    F_i(lam) is E_i(-lam) transposed; negating lam is exact, so the phases
    are bit for bit those of the lowering formulas.
    """
    _check_index(params, label)
    n, i = params.n, label.index
    if label.kind == GeneratorKind.E:
        if i < n:
            mat = basis_matrix(n, i, i + 1).astype(np.complex128)
            phase = 1.0 if gauge == Gauge.homogeneous else cmath.exp(-2 * lam / n)
        else:
            mat = basis_matrix(n, n, 1).astype(np.complex128)
            phase = (
                cmath.exp(-2 * lam)
                if gauge == Gauge.homogeneous
                else cmath.exp(-2 * lam / n)
            )
        return Operator(phase * mat, (n,))
    if label.kind == GeneratorKind.F:
        raising = GeneratorLabel(GeneratorKind.E, i)
        return eval_generator(params, raising, -lam, gauge).transpose()
    sign = -1.0 if label.inverse else 1.0
    d = np.ones(n, dtype=np.complex128)
    if label.kind == GeneratorKind.KCARTAN:
        d[i - 1] = _qpow(params, sign * 0.5)
    else:  # HCARTAN: q^{(e_ii - e_jj)/2} with j = i+1, wrapping at the affine node
        j = i + 1 if i < n else 1
        d[i - 1] = _qpow(params, sign * 0.5)
        d[j - 1] = _qpow(params, -sign * 0.5)
    return Operator(np.diag(d), (n,))


# ---------------------------------------------------------------------------
# L-fold coproducts
# ---------------------------------------------------------------------------


def _site_lams(L: int, first_site_lambda) -> list[complex]:
    first = 0.0 if first_site_lambda is None else first_site_lambda
    return [first] + [0.0] * (L - 1)


def coproduct_rep(
    params: ModelParams,
    label: GeneratorLabel,
    L: int,
    variant: str = "delta",
    first_site_lambda=None,
    gauge: Gauge = Gauge.homogeneous,
) -> Operator:
    """Image of the L-fold coproduct on (C^n)^{(x) L}.

    variant "delta" puts q^{-h/2} factors left of the single e/f insertion and
    q^{h/2} right; "delta_prime" is the recursively primed version (which for
    L > 2 is NOT a simple reversal). Cartan images are group-like either way.
    """
    _check_index(params, label)
    if L < 1:
        raise ValueError("fold count must be >= 1")
    if variant not in ("delta", "delta_prime"):
        raise ValueError(f"unknown coproduct variant {variant!r}")
    n = params.n
    lams = _site_lams(L, first_site_lambda)

    def site(lab: GeneratorLabel, s: int) -> np.ndarray:
        return eval_generator(params, lab, lams[s], gauge).mat

    if label.kind in (GeneratorKind.KCARTAN, GeneratorKind.HCARTAN):
        mats = [site(label, s) for s in range(L)]
        return Operator(reduce(np.kron, mats), (n,) * L)

    h_plus = GeneratorLabel(GeneratorKind.HCARTAN, label.index)
    h_minus = GeneratorLabel(GeneratorKind.HCARTAN, label.index, inverse=True)
    total = np.zeros((n**L, n**L), dtype=np.complex128)
    for l in range(L):
        if variant == "delta":
            labs = [h_minus] * l + [label] + [h_plus] * (L - 1 - l)
        else:
            if l == 0:
                labs = [label] + [h_minus] * (L - 1)
            else:
                labs = [h_plus] + [h_minus] * (l - 1) + [label] + [h_plus] * (L - 1 - l)
        total += reduce(np.kron, [site(lab, s) for s, lab in enumerate(labs)])
    return Operator(total, (n,) * L)


# ---------------------------------------------------------------------------
# root elements and the t families
# ---------------------------------------------------------------------------


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class Tower:
    """Memoized homogeneous images on L sites at one first-site lambda.

    ``gen`` holds the plain L-fold coproducts of the Chevalley generators,
    ``root`` the root elements of the averaged recursion and ``t_image`` the
    tower entries, ``t(i, j)`` and ``h(i, j)`` being the t and t-hat ones.
    Each image is built once and every later read returns the same array,
    made read-only because it is shared. A tower lives as long as the builder
    call that made it; nothing is cached across calls.
    """

    def __init__(self, params, L=1, first_site_lambda=None):
        self.params = params
        self.L = L
        self.first_site_lambda = first_site_lambda
        self._gen: dict = {}
        self._roots: dict = {}
        self._t: dict = {}

    def gen(self, kind: GeneratorKind, index: int, inverse: bool = False) -> np.ndarray:
        key = (kind, index, inverse)
        if key not in self._gen:
            self._gen[key] = _frozen(coproduct_rep(
                self.params,
                GeneratorLabel(kind, index, inverse),
                self.L,
                "delta",
                self.first_site_lambda,
            ).mat)
        return self._gen[key]

    def root(self, i: int, j: int, hat: bool) -> np.ndarray:
        """E_ij (or the hatted variant) through the averaged recursion."""
        key = (i, j, hat)
        if key in self._roots:
            return self._roots[key]
        if i == j or not (1 <= i <= self.params.n and 1 <= j <= self.params.n):
            raise ValueError(f"root element indices ({i},{j}) invalid")
        if abs(i - j) == 1:
            out = (
                self.gen(GeneratorKind.E, i)
                if j == i + 1
                else self.gen(GeneratorKind.F, j)
            )
        else:
            qfac = _root_qfac(self.params, i, j, hat)
            lo, hi = min(i, j), max(i, j)
            acc = np.zeros_like(self.gen(GeneratorKind.KCARTAN, 1))
            for k in range(lo + 1, hi):
                a, b = self.root(i, k, hat), self.root(k, j, hat)
                acc += a @ b - qfac * (b @ a)
            out = acc / (abs(i - j) - 1)
        self._roots[key] = _frozen(out)
        return out

    def t(self, i: int, j: int) -> np.ndarray:
        return self.t_image(TElementLabel(TElementFamily.t, i, j))

    def h(self, i: int, j: int) -> np.ndarray:
        return self.t_image(TElementLabel(TElementFamily.t_hat, i, j))

    def t_image(self, label: TElementLabel) -> np.ndarray:
        if label not in self._t:
            self._t[label] = _frozen(self._build_t(label))
        return self._t[label]

    def _build_t(self, label: TElementLabel) -> np.ndarray:
        p, n = self.params, self.params.n
        fam, i, j = label.family, label.i, label.j
        w = p.w
        plus_pref = w * _qpow(p, -0.5)
        minus_pref = -w * _qpow(p, 0.5)

        def dress(a: int, b: int, sign: float) -> np.ndarray:
            return self.gen(GeneratorKind.KCARTAN, a, sign < 0) @ self.gen(
                GeneratorKind.KCARTAN, b, sign < 0
            )

        if fam in (TElementFamily.t, TElementFamily.t_minus,
                   TElementFamily.t_hat, TElementFamily.t_hat_minus):
            if i == j:
                inv = fam in (TElementFamily.t_minus, TElementFamily.t_hat_minus)
                half = self.gen(GeneratorKind.KCARTAN, i, inv)
                return half @ half
            if fam == TElementFamily.t:
                if i > j:
                    raise ValueError("t_ij needs i <= j")
                return plus_pref * dress(i, j, +1) @ self.root(j, i, hat=False)
            if fam == TElementFamily.t_minus:
                if i < j:
                    raise ValueError("t-minus_ij needs i >= j")
                return minus_pref * dress(i, j, -1) @ self.root(j, i, hat=False)
            if fam == TElementFamily.t_hat:
                if i < j:
                    raise ValueError("t-hat_ij needs i >= j")
                return plus_pref * dress(i, j, +1) @ self.root(j, i, hat=True)
            if i > j:
                raise ValueError("t-hat-minus_ij needs i <= j")
            return minus_pref * dress(i, j, -1) @ self.root(j, i, hat=True)

        # affine elements: fixed corner indices, Chevalley core e_n or f_n
        expect = {
            TElementFamily.t0_n1: (n, 1, GeneratorKind.F, plus_pref, +1),
            TElementFamily.t0hat_1n: (1, n, GeneratorKind.E, plus_pref, +1),
            TElementFamily.t0_minus_1n: (1, n, GeneratorKind.E, minus_pref, -1),
            TElementFamily.t0hat_minus_n1: (n, 1, GeneratorKind.F, minus_pref, -1),
        }[fam]
        ei, ej, core_kind, pref, sign = expect
        if (i, j) != (ei, ej):
            raise ValueError(f"{fam.value} carries fixed indices ({ei},{ej})")
        return pref * dress(1, n, sign) @ self.gen(core_kind, n)


def t_element_rep(
    params: ModelParams, label: TElementLabel, L: int = 1, first_site_lambda=None
) -> Operator:
    return Operator(Tower(params, L, first_site_lambda).t_image(label), (params.n,) * L)


def _coproduct_pairs(n: int, label: TElementLabel) -> list:
    """(first-leg, second-leg) labels of the terms of a two-fold coproduct.

    D(t_ij) = sum_k t_kj (x) t_ik and D(t-hat_ij) = sum_k t-hat_ik (x) t-hat_kj,
    k running from min(i, j) to max(i, j), the minus families alike; affine
    corners: D(y) = t_11 (x) y + y (x) t_nn. The primed coproduct is the same
    sum with each pair's legs exchanged. Indices are validated by t_image.
    """
    fam, i, j = label.family, label.i, label.j
    ks = range(min(i, j), max(i, j) + 1)
    if fam in (TElementFamily.t, TElementFamily.t_minus):
        return [(TElementLabel(fam, k, j), TElementLabel(fam, i, k)) for k in ks]
    if fam in (TElementFamily.t_hat, TElementFamily.t_hat_minus):
        return [(TElementLabel(fam, i, k), TElementLabel(fam, k, j)) for k in ks]
    if fam in (TElementFamily.t0_n1, TElementFamily.t0hat_1n):
        return [(TElementLabel(TElementFamily.t, 1, 1), label),
                (label, TElementLabel(TElementFamily.t, n, n))]
    raise ValueError(f"no factorized coproduct recorded for {fam.value}")


def t_coproduct_sum(
    params: ModelParams, label: TElementLabel, first_site_lambda=None
) -> Operator:
    """Right-hand side of the factorized two-fold coproduct sums: the sum of
    first (x) second over the label pairs of ``_coproduct_pairs``."""
    n = params.n
    first = Tower(params, 1, first_site_lambda)
    second = Tower(params, 1)
    acc = sum(
        np.kron(first.t_image(a), second.t_image(b))
        for a, b in _coproduct_pairs(n, label)
    )
    return Operator(acc, (n, n))


# ---------------------------------------------------------------------------
# Lax operators
# ---------------------------------------------------------------------------


def build_lax(
    params: ModelParams, lam: complex, gauge: Gauge = Gauge.homogeneous
) -> Operator:
    """Lax matrix on aux (x) one quantum site.

    Homogeneous: e^{lam} (upper-triangular t part) - e^{-lam} (lower t-minus
    part). Principal: diagonal 'e^{lam} t_ii - e^{-lam} t_ii^{-1}', gauge
    phases on the off-diagonal entries, affine corner elements in place of
    t_1n / t-minus_n1.
    """
    n = params.n
    tower = Tower(params)
    total = np.zeros((n * n, n * n), dtype=np.complex128)
    blocks = aux_blocks(total, n)

    def put(i, j, coeff, block):
        blocks[i - 1, :, j - 1, :] += coeff * block

    minus = TElementFamily.t_minus
    ep, em = cmath.exp(lam), cmath.exp(-lam)
    if gauge == Gauge.homogeneous:
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                put(i, j, ep, tower.t(i, j))
        for i in range(1, n + 1):
            for j in range(1, i + 1):
                put(i, j, -em, tower.t_image(TElementLabel(minus, i, j)))
        return Operator(total, (n, n))

    for i in range(1, n + 1):
        tii_inv = tower.t_image(TElementLabel(minus, i, i))
        put(i, i, 1.0, ep * tower.t(i, i) - em * tii_inv)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (i, j) == (1, n):
                continue
            coeff = cmath.exp(((i - j) * 2.0 / n + 1.0) * lam)
            put(i, j, coeff, tower.t(i, j))
    put(n, 1, cmath.exp(lam - 2.0 * lam / n),
        tower.t_image(TElementLabel(TElementFamily.t0_n1, n, 1)))
    for i in range(1, n + 1):
        for j in range(1, i):
            if (i, j) == (n, 1):
                continue
            coeff = cmath.exp(((i - j) * 2.0 / n - 1.0) * lam)
            put(i, j, -coeff, tower.t_image(TElementLabel(minus, i, j)))
    put(1, n, -cmath.exp(-lam + 2.0 * lam / n),
        tower.t_image(TElementLabel(TElementFamily.t0_minus_1n, 1, n)))
    return Operator(total, (n, n))


def build_lax_hat(
    params: ModelParams, lam: complex, gauge: Gauge = Gauge.homogeneous
) -> Operator:
    """Inverse of the Lax matrix at -lam; rejects near-singular points."""
    a = build_lax(params, -lam, gauge)
    cond = np.linalg.cond(a.mat)
    if not np.isfinite(cond) or cond > 1e12:
        raise DegenerateParameters(
            f"Lax matrix at {-lam} is numerically singular (cond={cond:.2e}); "
            "resample the spectral point"
        )
    return Operator(np.linalg.inv(a.mat), a.dims)


# ---------------------------------------------------------------------------
# closed-form block matrices for the primed (N+1)-fold coproducts
# ---------------------------------------------------------------------------


def block_closed_rep(
    params: ModelParams,
    which: str | tuple,
    N: int,
    lam: complex,
    index: int | None = None,
    charges=None,
) -> Operator:
    """Block-matrix closed forms of (pi_lam (x) pi_0^N) primed coproducts.

    which: chevalley_e | chevalley_f | cartan_eps (need index), or the
    position of a boundary charge Q: (1, 1), (1, 2), (2, 1) (n=3 only) or
    (n, n). A Q form needs ``charges``, the N-site
    ``boundary_charges.ChargeSet``; its blocks read the charges by position
    and the Cartan squares from the set's tower.
    """
    n = params.n
    if N < 1:
        raise ValueError("need at least one quantum site")
    q = params.q
    qh = _qpow(params, 0.5)
    tower = Tower(params, N) if charges is None else charges.tower
    zero = np.zeros((n**N, n**N), dtype=np.complex128)
    blocks = [[zero] * n for _ in range(n)]

    if which in ("chevalley_e", "chevalley_f"):
        if index is None or not (1 <= index <= n):
            raise ValueError("chevalley form needs a generator index in 1..n")
        i = index
        kind = GeneratorKind.E if which == "chevalley_e" else GeneratorKind.F
        diag = tower.gen(kind, i)
        hinv = tower.gen(GeneratorKind.HCARTAN, i, inverse=True)
        for k in range(n):
            blocks[k][k] = diag
        if i < n:
            blocks[i - 1][i - 1] = qh * diag
            blocks[i][i] = diag / qh
            if which == "chevalley_e":
                blocks[i - 1][i] = hinv
            else:
                blocks[i][i - 1] = hinv
        else:
            blocks[0][0] = diag / qh
            blocks[n - 1][n - 1] = qh * diag
            if which == "chevalley_e":
                blocks[n - 1][0] = cmath.exp(-2 * lam) * hinv
            else:
                blocks[0][n - 1] = cmath.exp(2 * lam) * hinv
    elif which == "cartan_eps":
        if index is None or not (1 <= index <= n):
            raise ValueError("cartan form needs an index in 1..n")
        e_full = tower.t(index, index)
        for k in range(n):
            blocks[k][k] = e_full
        blocks[index - 1][index - 1] = q * e_full
    elif which in ((1, 1), (1, 2), (2, 1), (n, n)):
        if charges is None:
            raise ValueError(f"Q at {which} needs the N-site charge set")
        if which != (n, n) and n != 3:
            raise ValueError(f"Q at {which}: closed form is recorded for n=3 only")
        w = params.w
        if which == (n, n):
            tnn = charges.charge(which)
            corner = tower.t(1, 1) @ tower.t(n, n)
            for k in range(n):
                blocks[k][k] = tnn
            blocks[n - 1][n - 1] = q * q * tnn
            blocks[0][n - 1] = -1j * cmath.exp(2 * lam) * q * w * corner
            blocks[n - 1][0] = -1j * cmath.exp(-2 * lam) * q * w * corner
        else:
            t11, t12, t21 = (charges.charge(pos) for pos in ((1, 1), (1, 2), (2, 1)))
            e22sq = tower.t(2, 2) @ tower.t(2, 2)
            corners = tower.t(1, 1) @ tower.t(3, 3)
            em = cmath.exp(1j * params.mu * params.m)
            if which == (1, 1):
                blocks[0][0] = q * q * t11
                blocks[0][1] = w * q * t12
                blocks[0][2] = -1j * w * q * corners
                blocks[1][0] = w * q * t21
                blocks[1][1] = t11 + em * w * w * e22sq
                blocks[2][0] = -1j * w * q * corners
                blocks[2][2] = t11
            elif which == (1, 2):
                blocks[0][0] = q * t12
                blocks[1][0] = em * w * e22sq
                blocks[1][1] = q * t12
                blocks[1][2] = -1j * w * corners
                blocks[2][2] = t12
            else:
                blocks[0][0] = q * t21
                blocks[0][1] = em * w * e22sq
                blocks[1][1] = q * t21
                blocks[2][1] = -1j * w * corners
                blocks[2][2] = t21
    else:
        raise ValueError(f"unknown closed form {which!r}")

    return Operator(np.block(blocks), (n,) * (N + 1))


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------


def _all_labels(n: int) -> list[GeneratorLabel]:
    labs = []
    for i in range(1, n + 1):
        labs.append(GeneratorLabel(GeneratorKind.E, i))
        labs.append(GeneratorLabel(GeneratorKind.F, i))
        labs.append(GeneratorLabel(GeneratorKind.KCARTAN, i))
        labs.append(GeneratorLabel(GeneratorKind.HCARTAN, i))
    return labs


def intertwine_residual(params, label, x: Operator, lam, gauge, primed_left=True) -> float:
    """sym_residual of Delta'(g) X = X Delta(g), or of Delta(g) X = X Delta'(g)
    when ``primed_left`` is False, for the generator ``label``: both
    coproducts are len(x.dims)-fold with the first site evaluated at ``lam``."""
    dp, d = (coproduct_rep(params, label, len(x.dims), variant, lam, gauge)
             for variant in ("delta_prime", "delta"))
    left, right = (dp, d) if primed_left else (d, dp)
    return sym_residual(left @ x, x @ right)


def _serre_residual(params, tower: Tower, kind, i, j) -> float:
    xi = tower.gen(kind, i)
    xj = tower.gen(kind, j)
    if abs(i - j) == 1:
        box = params.q + 1.0 / params.q
        lhs = xi @ xi @ xj - box * (xi @ xj @ xi) + xj @ xi @ xi
    else:
        lhs = xi @ xj - xj @ xi
    scale = max(frob(xi @ xi @ xj), frob(xi @ xj), RESIDUAL_FLOOR)
    return frob(lhs) / scale


def _ef_relation_residual(params, tower: Tower, i, j) -> float:
    e = tower.gen(GeneratorKind.E, i)
    f = tower.gen(GeneratorKind.F, j)
    h = tower.gen(GeneratorKind.HCARTAN, i)
    lhs = e @ f - f @ e
    if i == j:
        rhs = (h @ h - np.linalg.inv(h @ h)) / (params.q - 1.0 / params.q)
    else:
        rhs = np.zeros_like(lhs)
    return frob(lhs - rhs) / max(frob(e) * frob(f), RESIDUAL_FLOOR)


def _coproduct_recursive(params, label, L, lams_gauge) -> np.ndarray:
    """(id (x) Delta^{L-1}) applied to the two-fold splitting, for cross-checks."""
    lam, gauge = lams_gauge
    if L == 1:
        return eval_generator(params, label, lam, gauge).mat
    if label.kind in (GeneratorKind.KCARTAN, GeneratorKind.HCARTAN):
        head = eval_generator(params, label, lam, gauge).mat
        tail = _coproduct_recursive(params, label, L - 1, (0.0, gauge))
        return np.kron(head, tail)
    h_m = GeneratorLabel(GeneratorKind.HCARTAN, label.index, inverse=True)
    h_p = GeneratorLabel(GeneratorKind.HCARTAN, label.index)
    a = np.kron(
        eval_generator(params, h_m, lam, gauge).mat,
        _coproduct_recursive(params, label, L - 1, (0.0, gauge)),
    )
    b = np.kron(
        eval_generator(params, label, lam, gauge).mat,
        _coproduct_recursive(params, h_p, L - 1, (0.0, gauge)),
    )
    return a + b


def verify_algebra_suite(
    params: ModelParams,
    samples: int = 5,
    tol: float = 1e-10,
    seed: int = 0,
) -> VerificationReport:
    n = params.n
    rng = rng_from_seed(seed)
    rb = ReportBuilder(
        "algebra", {"n": n, "samples": samples, "seed": seed, "tol": tol}
    )

    # ---- per-sample spectral checks -------------------------------------
    for s in range(samples):
        p = params if s == 0 else sample_model(rng, n)
        (lam,) = sample_spectral(rng, p, 1)
        for gauge in (Gauge.homogeneous, Gauge.principal):
            r = build_r(p, lam, gauge)
            rb.add(f"algebra.inter.{gauge.value}.s{s}", worst_of(
                intertwine_residual(p, lab, r, lam, gauge) for lab in _all_labels(n)
            ), tol)

        # affine intertwiner with mismatched gauge pairing must fail
        mis = intertwine_residual(p, GeneratorLabel(GeneratorKind.E, n),
                                  build_r(p, lam, Gauge.homogeneous), lam, Gauge.principal)
        rb.add_flag(f"algebra.inter_mismatch.s{s}", mis > 1e-3, mis)

        # RLL relation and the Lax/R identification
        lam, lam2 = sample_spectral(rng, p, 2)
        for gauge in (Gauge.homogeneous, Gauge.principal):
            lax1 = build_lax(p, lam, gauge)
            rb.add(f"algebra.rll.{gauge.value}.s{s}", rtt_residual(
                build_r(p, lam - lam2, gauge), lax1, build_lax(p, lam2, gauge)), tol)
            pr = prop_check(lax1, build_r(p, lam, gauge), tol)
            rb.add(f"algebra.lax_is_r.{gauge.value}.s{s}", pr.residual, tol,
                   scalar=pr.scalar)
            rb.add(f"algebra.lax_scale.{gauge.value}.s{s}",
                   abs(pr.scalar - 2.0), 1e-9)

        # gauge relation between both Lax forms
        v1 = embed_at(build_gauge_V(p, lam), [1], [n, n])
        v1m = embed_at(build_gauge_V(p, -lam), [1], [n, n])
        rb.add(
            f"algebra.lax_gauge.s{s}",
            rel_residual(v1 @ build_lax(p, lam) @ v1m,
                         build_lax(p, lam, Gauge.principal)),
            1e-12,
        )

        # coproduct maps on the Lax entries are given by the slot products;
        # their consistency shows up as the exchange relation for the
        # two-site product L_{a,2} L_{a,1} and the inverse pairing of the two
        # product orders
        def dl(u):
            lax = build_lax(p, u)
            return embed_at(lax, [1, 3], [n] * 3) @ embed_at(lax, [1, 2], [n] * 3)

        rb.add(f"algebra.lax_cop.s{s}",
               rtt_residual(build_r(p, lam - lam2), dl(lam), dl(lam2)), tol)
        try:
            hat1 = build_lax_hat(p, lam)
            dlhat = embed_at(hat1, [1, 2], [n, n, n]) @ embed_at(
                hat1, [1, 3], [n, n, n]
            )
            rb.add(f"algebra.laxhat_cop.s{s}",
                   rel_residual(dlhat @ dl(-lam), identity_op([n, n, n])), 1e-11)
            rb.add(
                f"algebra.laxhat_inv.s{s}",
                rel_residual(hat1 @ build_lax(p, -lam), identity_op([n, n])),
                1e-12,
            )
        except DegenerateParameters:
            rb.add_flag(f"algebra.laxhat_skip.s{s}", True)

        # bulk commutation of the braid R with fold-N coproducts
        sites = max(2, params.sites)
        rc = build_rcheck(p, lam)
        tower = Tower(p, sites)
        res = []
        for l in range(1, sites):
            rcl = embed_at(rc, [l, l + 1], [n] * sites).mat
            for lab in _all_labels(n):
                if lab.kind in (GeneratorKind.E, GeneratorKind.F) and lab.index == n:
                    continue  # affine generators are excluded from this symmetry
                x = tower.gen(lab.kind, lab.index, lab.inverse)
                num = frob(rcl @ x - x @ rcl)
                res.append(num / max(frob(x) * frob(rc), RESIDUAL_FLOOR))
        rb.add(f"algebra.rcheck_comm.s{s}", worst_of(res), tol)

    # ---- structural checks (parameter set of the call, once) -------------
    tower1 = Tower(params, 1)
    tower2 = Tower(params, 2)

    rb.add("algebra.root_pi0", worst_of(
        rel_residual(tower1.root(i, j, hat), basis_matrix(n, i, j))
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
        for hat in (False, True)
    ), 1e-12)

    rb.add("algebra.ef_relation", worst_of(
        _ef_relation_residual(params, tower, i, j)
        for tower in (tower1, tower2)
        for i in range(1, n)
        for j in range(1, n)
    ), 1e-12)

    if n >= 3:
        rb.add("algebra.serre", worst_of(
            _serre_residual(params, tower, kind, i, j)
            for kind in (GeneratorKind.E, GeneratorKind.F)
            for i in range(1, n)
            for j in range(1, n)
            if i != j
            for tower in (tower1, tower2)
        ), 1e-12)

    # primed two-fold coproduct is the swapped one
    pswap = permutation_swap(n)
    rb.add("algebra.prime_is_swap", worst_of(
        rel_residual(pswap @ coproduct_rep(params, lab, 2, "delta") @ pswap,
                     coproduct_rep(params, lab, 2, "delta_prime"))
        for lab in _all_labels(n)
    ), 1e-13)

    # explicit L-fold forms match the recursive construction, both variants at
    # L <= 4 (the primed variant is pinned through the charge recursions later)
    lam0 = 0.37 + 0.11j
    coassoc_labels = (
        GeneratorLabel(GeneratorKind.E, 1),
        GeneratorLabel(GeneratorKind.F, max(1, n - 1)),
        GeneratorLabel(GeneratorKind.E, n),
        GeneratorLabel(GeneratorKind.KCARTAN, n),
        GeneratorLabel(GeneratorKind.HCARTAN, 1, inverse=True),
    )
    rb.add("algebra.coassoc", worst_of(
        rel_residual(coproduct_rep(params, lab, L, "delta", lam0).mat,
                     _coproduct_recursive(params, lab, L, (lam0, Gauge.homogeneous)))
        for L in (2, 3, 4)
        for lab in coassoc_labels
    ), 1e-12)

    # factorized coproduct sums for every valid index pair; the value says
    # whether the family lives above the diagonal
    upper = {TElementFamily.t: True, TElementFamily.t_hat: False,
             TElementFamily.t_minus: False, TElementFamily.t_hat_minus: True}
    for fam, above in upper.items():
        labels = [TElementLabel(fam, i, j)
                  for i in range(1, n + 1)
                  for j in range(1, n + 1)
                  if i != j and (i < j) == above]
        rb.add(f"algebra.tcop.{fam.value}", worst_of(
            rel_residual(t_element_rep(params, lab, 2), t_coproduct_sum(params, lab))
            for lab in labels
        ), 1e-12)

    rb.add("algebra.tcop.affine", worst_of(
        rel_residual(t_element_rep(params, lab, 2, first_site_lambda=0.23),
                     t_coproduct_sum(params, lab, first_site_lambda=0.23))
        for lab in (TElementLabel(TElementFamily.t0_n1, n, 1),
                    TElementLabel(TElementFamily.t0hat_1n, 1, n))
    ), 1e-12)

    # root-element coproduct closed form (lowering, gap >= 2)
    res = []
    w = params.w
    qmh = _qpow(params, -0.5)
    for i in range(3, n + 1):
        for j in range(1, i - 1):
            lhs = tower2.root(i, j, hat=False)

            def kq(idx, sgn):
                return tower1.gen(GeneratorKind.KCARTAN, idx, sgn < 0)

            rhs = np.kron(kq(j, -1) @ np.linalg.inv(kq(i, -1)), tower1.root(i, j, False))
            rhs += np.kron(tower1.root(i, j, False), kq(j, +1) @ np.linalg.inv(kq(i, +1)))
            for k in range(j + 1, i):
                left = kq(j, -1) @ kq(k, +1) @ tower1.root(i, k, False)
                right = kq(k, +1) @ kq(i, -1) @ tower1.root(k, j, False)
                rhs += qmh * w * np.kron(left, right)
            res.append(rel_residual(lhs, rhs))
    if n >= 3:
        rb.add("algebra.root_cop", worst_of(res), 1e-12)

    # averaged recursion agrees with any single intermediate index
    res = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if abs(i - j) < 2:
                continue
            for hat in (False, True):
                avg = tower1.root(i, j, hat)
                qfac = _root_qfac(params, i, j, hat)
                for k in range(min(i, j) + 1, max(i, j)):
                    a, b = tower1.root(i, k, hat), tower1.root(k, j, hat)
                    single = a @ b - qfac * (b @ a)
                    res.append(rel_residual(avg, single))
    if n >= 3:
        rb.add("algebra.root_single_k", worst_of(res), 1e-12)

    # closed-form block matrices against the generic primed coproduct
    res = []
    lamD = 0.29 - 0.17j
    for N in (1, 2):
        for i in range(1, n + 1):
            for which, kind in (("chevalley_e", GeneratorKind.E),
                                ("chevalley_f", GeneratorKind.F)):
                a = block_closed_rep(params, which, N, lamD, index=i)
                b = coproduct_rep(params, GeneratorLabel(kind, i), N + 1,
                                  "delta_prime", lamD)
                res.append(rel_residual(a, b))
            half = coproduct_rep(params,
                                 GeneratorLabel(GeneratorKind.KCARTAN, i),
                                 N + 1, "delta_prime", lamD)
            a = block_closed_rep(params, "cartan_eps", N, lamD, index=i)
            res.append(rel_residual(a, half @ half))
    rb.add("algebra.blockform", worst_of(res), 1e-11)

    return rb.report()
