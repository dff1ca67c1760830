"""Evaluation representations of the quantum affine algebra and Lax operators.

Single-site images of the Chevalley generators e_i, f_i, q^{h_i/2}, q^{eps_i/2}
(index n is the affine pair, carrying the spectral phases e^{-+2 lambda} in the
homogeneous gradation and e^{-+2 lambda/n} in the principal one), L-fold
coproducts in both orders, the recursively defined root elements and the
dressed matrix elements t_ij / t-hat_ij they generate, Lax operators built from
those elements, and the closed-form block matrices for (pi_lambda x id^N) of
the primed Chevalley and Cartan coproducts.

Conventions that the checks pin down empirically:

* the averaged root recursion divides by (|i-j| - 1) and takes q^{-1} in the
  cross term for lowering elements (q^{+1} for the hatted family); getting a
  sign wrong breaks the factorized coproduct sums below;
* the coproduct sums: D(t_ij) = sum_k t_kj (x) t_ik for i < j, D(t-hat_ji) =
  sum_k t-hat_jk (x) t-hat_ki, and the minus families transposed accordingly;
* affine elements: D(y) = t_11 (x) y + y (x) t_nn;
* as matrices over the auxiliary space the two sums read T+ = T+_rest
  T+_first and T-hat = T-hat_first T-hat_rest, the first site in the first
  tensor slot; the primed order reverses both products. The boundary
  charges' recursion uses that form, so no primed tower entry is built. The
  Chevalley coproducts keep both orders typed out, because
  ``algebra.prime_is_swap`` compares them.

Everything is realized as plain arrays on (C^n)^{(x) L}, except the Lax
operators, which the chain embeds and so are ``Operator``s; the first tensor
slot carries a spectral parameter, 0.0 unless given, and the others sit at 0.
A ``Tower`` fixes (params, L, first-site lambda), always in the homogeneous
gradation, and builds each plain generator coproduct, root element and tower
entry once; above ``CSR_ABOVE`` rows it stores each as a ``tensor_core``
entry list, built from its entries, never from a dense array, and sums,
multiplies and densifies them with ``tensor_core``'s functions. Its public
reads and product sums are dense arrays, each written once. Every L-site
image any module reads comes from one, and ``LaxFamily`` reads the Lax
operators off a one-site tower.

``coproduct_stack`` is the one writer of L-fold coproducts: it forms the
images of a whole list of labels, in either order, as one (g, n^L, n^L)
array, one assignment for the Cartans and one for the e/f words. Every
entry of a word diag (x) x e_ab (x) diag is q^{k/2}, k the signed sum of
the site h-weights, times the insertion's phase, and every Cartan entry is
q^{k/2} too, so the writer reads each k from an index plan made once per
(n, L) (the exponent tables and the rows whose insertion digit is a) and
forms no kron chain. ``coproduct_rep`` is its one-label read, and an
entry-list ``Tower`` takes the same entries. The checks that compare it
with independent routes (``_coproduct_recursive``, the closed block forms,
the swapped two-fold order) read whole stacks. ``intertwine_residual`` is
the linear intertwining relation Delta'(g) X = X Delta(g) over a list of
labels, written once for R, the monodromy and its hatted partner, its
coproducts multiplied by X as stacks.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .params import DegenerateParameters, ModelParams
from .reporting import ReportBuilder, VerificationReport
from .sampling import rng_from_seed, sample_model, sample_spectral
from .tensor_core import (
    RESIDUAL_FLOOR,
    Operator,
    aux_blocks,
    basis_matrix,
    coalesce,
    densify,
    diagonal_entries,
    embed_at,
    frob,
    identity_op,
    permutation_swap,
    product_terms,
    prop_check,
    rel_residual,
    rtt_residual,
    stack_chunks,
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
    "coproduct_stack",
    "coproduct_rep",
    "t_coproduct_sum",
    "LaxFamily",
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
) -> np.ndarray:
    """Single-site image of a Chevalley generator at spectral parameter lam."""
    _check_index(params, label)
    if label.kind in (GeneratorKind.E, GeneratorKind.F):
        a, b, phase = _insertion(params, label, lam, gauge)
        mat = np.zeros((params.n, params.n), dtype=np.complex128)
        mat[a, b] = phase
        return mat
    return np.diag(_cartan_diagonal(params, label))


def _insertion(params: ModelParams, label: GeneratorLabel, lam: complex,
               gauge: Gauge) -> tuple[int, int, complex]:
    """The one nonzero (a, b), 0-based, of an e/f generator's single-site
    image at lam, and its value: e_i at (i-1, i), e_n at the corner (n-1, 0),
    with the spectral phase of the gradation. F_i(lam) is E_i(-lam)
    transposed; negating lam is exact, so the phases are bit for bit those of
    the lowering formulas."""
    n, i = params.n, label.index
    if label.kind == GeneratorKind.F:
        a, b, phase = _insertion(params, GeneratorLabel(GeneratorKind.E, i), -lam, gauge)
        return b, a, phase
    if gauge == Gauge.principal:
        phase = cmath.exp(-2 * lam / n)
    else:
        phase = 1.0 if i < n else cmath.exp(-2 * lam)
    return (i - 1, i, phase) if i < n else (n - 1, 0, phase)


def _cartan_diagonal(params: ModelParams, label: GeneratorLabel) -> np.ndarray:
    """The diagonal of a Cartan generator's single-site image, which depends
    on neither lam nor the gauge."""
    n, i = params.n, label.index
    sign = -1.0 if label.inverse else 1.0
    d = np.ones(n, dtype=np.complex128)
    d[i - 1] = _qpow(params, sign * 0.5)
    if label.kind == GeneratorKind.HCARTAN:
        # q^{(e_ii - e_jj)/2} with j = i+1, wrapping at the affine node
        d[i % n] = _qpow(params, -sign * 0.5)
    return d


# ---------------------------------------------------------------------------
# L-fold coproducts
# ---------------------------------------------------------------------------


_VARIANTS = ("delta", "delta_prime")


class _WordPlan(NamedTuple):
    """Index tables of (C^n)^{(x) L} for the coproduct writer, made once per
    (n, L) by ``_word_plan``; row r has digit r // n^(L-1-s) % n on site s,
    and the label index i counts from 1.

    ``weights[h, inverse, i-1, r]`` is the exponent k of row r's q^{k/2} in
    the Cartan image of q^{+-eps_i/2} (h = 0) or q^{+-h_i/2} (h = 1): the
    number of sites with digit i-1, less, for h_i, those with digit i mod n,
    negated for the inverse. ``rows[l, a]`` are the rows with digit a on
    site l, ascending, ``cols[l, a, b]`` the same rows with that digit moved
    to b, and ``exponents[variant][l, a, i-1]`` the exponent k on those rows
    of the word whose insertion e_ab sits on site l: each other site weighs
    its digit as q^{h_i/2} would, signed by the word's Cartan half there.
    "delta" has q^{-h/2} left of the insertion and q^{h/2} right of it; in
    "delta_prime" the first word has q^{-h/2} on every later site and every
    other word q^{h/2} on the first site.
    """

    weights: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    exponents: dict


@functools.cache
def _word_plan(n: int, L: int) -> _WordPlan:
    stride = n ** np.arange(L - 1, -1, -1)
    digits = np.arange(n**L) // stride[:, None] % n
    # onehot[s, c, r]: row r has digit c on site s; a digit's h_i weight is
    # [c = i-1] - [c = i mod n], read at c = i-1 after the roll
    onehot = (digits[:, None, :] == np.arange(n)[:, None]).astype(np.intp)
    count = onehot.sum(axis=0)
    h_count = count - np.roll(count, -1, axis=0)
    rows = np.argsort(digits, axis=1, kind="stable").reshape(L, n, -1)
    shift = (np.arange(n) - np.arange(n)[:, None])[:, :, None] * stride[:, None, None, None]
    # signs[l, s]: the sign of word l's Cartan half on site s, 0 at l
    signs = {"delta": np.sign(np.arange(L) - np.arange(L)[:, None])}
    signs["delta_prime"] = np.vstack([-signs["delta"][:1], signs["delta"][1:]])
    signs["delta_prime"][1:, 0] = 1
    site, index = np.arange(L)[:, None, None, None], np.arange(n)[:, None]
    exponents = {}
    for variant in _VARIANTS:
        signed = np.einsum("ls,scr->lcr", signs[variant], onehot)
        signed -= np.roll(signed, -1, axis=1)
        exponents[variant] = signed[site, index, rows[:, :, None, :]]
    plan = _WordPlan(np.array([[count, -count], [h_count, -h_count]]), rows,
                     rows[:, :, None, :] + shift, exponents)
    for table in (plan.weights, plan.rows, plan.cols, *exponents.values()):
        _frozen(table)  # shared by every writer call
    return plan


def _coproduct_entries(params, labels, L, variant, first_site_lambda, gauge) -> list:
    """The nonzeros of the L-fold coproducts of ``labels`` as a list of
    (position in ``labels``, rows, cols, values) arrays, the first three
    broadcasting against the values; each (position, row, col) comes once.

    Every value is q^{k/2}, its integer k read from the ``_WordPlan`` and
    q^{k/2} from one table, times, on the first site of an e/f word, the
    insertion's phase at ``first_site_lambda`` (at the other sites, at
    lambda 0, it is 1). A Cartan is diagonal; the e/f word with the
    insertion e_ab on site l sits on the rows with digit a on site l and
    moves that digit to b."""
    if L < 1:
        raise ValueError("fold count must be >= 1")
    if variant not in _VARIANTS:
        raise ValueError(f"unknown coproduct variant {variant!r}")
    plan = _word_plan(params.n, L)
    qhalf = np.array([_qpow(params, 0.5 * k) for k in range(-L, L + 1)])  # q^{k/2} at k + L
    cartan, words = [], []
    for pos, label in enumerate(labels):
        _check_index(params, label)
        if label.kind in (GeneratorKind.E, GeneratorKind.F):
            words.append((pos, label.index - 1,
                          *_insertion(params, label, first_site_lambda, gauge)))
        else:
            cartan.append((pos, int(label.kind == GeneratorKind.HCARTAN), int(label.inverse),
                           label.index - 1))
    parts = []
    if cartan:
        which, h, inverse, index = (list(field) for field in zip(*cartan))
        diag = np.arange(params.n**L)
        parts.append((np.array(which)[:, None], diag, diag,
                      qhalf[plan.weights[h, inverse, index] + L]))
    if words:
        which, index, a, b, phase = (list(field) for field in zip(*words))
        vals = qhalf[plan.exponents[variant][:, a, index] + L]
        vals[0] *= np.array(phase)[:, None]
        parts.append((np.array(which)[:, None], plan.rows[:, a], plan.cols[:, a, b], vals))
    return parts


def coproduct_stack(
    params: ModelParams,
    labels,
    L: int,
    variant: str = "delta",
    first_site_lambda: complex = 0.0,
    gauge: Gauge = Gauge.homogeneous,
) -> np.ndarray:
    """The images of the L-fold coproducts of ``labels`` on (C^n)^{(x) L}, as
    one (len(labels), n^L, n^L) array, the first site evaluated at
    ``first_site_lambda``.

    variant "delta" puts q^{-h/2} factors left of the single e/f insertion and
    q^{h/2} right; "delta_prime" is the recursively primed version (which for
    L > 2 is NOT a simple reversal). Cartan images are group-like either way.
    The entries of ``_coproduct_entries`` are written in one assignment
    per kind (Cartan, e/f): no kron chain and no loop over labels or words.
    """
    d = params.n**L
    out = np.zeros((len(labels), d, d), dtype=np.complex128)
    for which, rows, cols, vals in _coproduct_entries(params, labels, L, variant,
                                                      first_site_lambda, gauge):
        out[which, rows, cols] = vals
    return out


def coproduct_rep(
    params: ModelParams,
    label: GeneratorLabel,
    L: int,
    variant: str = "delta",
    first_site_lambda: complex = 0.0,
    gauge: Gauge = Gauge.homogeneous,
) -> np.ndarray:
    """Image of one label's L-fold coproduct: ``coproduct_stack`` of
    [label]."""
    return coproduct_stack(params, [label], L, variant, first_site_lambda, gauge)[0]


# ---------------------------------------------------------------------------
# root elements and the t families
# ---------------------------------------------------------------------------


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# Rows of a tower image (d = n^L) above which a Tower stores its images as
# entry lists, kept in compressed-sparse-row order. The root elements and
# tower entries have a handful of nonzeros per row, so their products are
# far cheaper on entries from a few sites on, while on the smallest towers
# the per-call overhead outweighs the saving. One build_boundary_charges,
# dense against entry lists (medians of 21 alternating builds, 2-vCPU
# x86-64, numpy 2.4): 1.7 vs 2.5 ms at d = 27 (n = 3), 1.9 vs 1.8 ms at
# d = 32 (n = 2), 6.8 vs 9.4 ms at d = 36 (n = 6), 14.3 vs 9.9 ms at d = 49
# (n = 7), 5.7 vs 3.5 ms at d = 64 (n = 4), 4.1 vs 2.1 ms at d = 81, 34 vs
# 6.3 ms at d = 125, 6.6 vs 2.1 ms at d = 128, 42 vs 5.8 ms at d = 243. The
# two tie at d = 32 and entry lists win from d = 49 on.
CSR_ABOVE = 40


class Tower:
    """Memoized homogeneous images on L sites at one first-site lambda.

    ``gen`` holds the plain L-fold coproducts of the Chevalley generators,
    ``root`` the root elements of the averaged recursion and ``t_image`` the
    tower entries, ``t(i, j)`` and ``h(i, j)`` being the t and t-hat ones.
    Each image is built once. A tower on d = n^L > ``CSR_ABOVE`` rows stores
    its images as numpy entry lists (rows, cols, vals), each (row, col) once
    and row-major, built from their entries, never from a dense array: a
    generator coproduct from the entries ``coproduct_stack`` writes, a t_ii
    as the square of a Cartan diagonal, the root recursion expands its
    products (``tensor_core.product_terms``) and coalesces their terms once,
    and the Cartan dressing scales the core's values by row. Smaller towers store dense arrays from ``coproduct_rep``.
    Either way every public read returns a dense read-only array, the same
    one on every read (for an entry list it is written on the first read),
    and ``product_sum`` multiplies stored images in their storage and
    returns the sum dense: no stored image leaves the tower. A tower lives
    as long as the object that holds it (a builder call, or the
    ``ChargeSet`` that keeps it for its checks); nothing is cached across
    towers.
    """

    def __init__(self, params, L=1, first_site_lambda: complex = 0.0):
        self.params = params
        self.L = L
        self.first_site_lambda = first_site_lambda
        self.dim = params.n**L
        self.sparse = self.dim > CSR_ABOVE
        self._images: dict = {}
        self._reads: dict = {}

    def gen(self, kind: GeneratorKind, index: int, inverse: bool = False) -> np.ndarray:
        return self._read(GeneratorLabel(kind, index, inverse))

    def root(self, i: int, j: int, hat: bool) -> np.ndarray:
        """E_ij (or the hatted variant) through the averaged recursion."""
        return self._read((i, j, hat))

    def t(self, i: int, j: int) -> np.ndarray:
        return self.t_image(TElementLabel(TElementFamily.t, i, j))

    def h(self, i: int, j: int) -> np.ndarray:
        return self.t_image(TElementLabel(TElementFamily.t_hat, i, j))

    def t_image(self, label: TElementLabel) -> np.ndarray:
        return self._read(label)

    def product_sum(self, terms) -> np.ndarray:
        """sum c (A @ B) over the (c, key_a, key_b) triples of ``terms``, the
        keys as for ``_stored``, multiplied in this tower's storage and
        returned as one dense array. On entry lists the terms of every
        product are coalesced together and written into that array once."""
        if not self.sparse:
            return sum(c * (self._stored(a) @ self._stored(b)) for c, a, b in terms)
        return densify(self.dim, coalesce([self._terms(*term) for term in terms], self.dim))

    def _read(self, key) -> np.ndarray:
        if key not in self._reads:
            image = self._stored(key)
            self._reads[key] = _frozen(densify(self.dim, image) if self.sparse else image)
        return self._reads[key]

    def _terms(self, c: complex, key_a, key_b) -> tuple:
        """The terms of c (A @ B) for two stored entry lists, not coalesced."""
        rows, cols, vals = product_terms(self._stored(key_a), self._stored(key_b), self.dim)
        return rows, cols, c * vals

    def _stored(self, key):
        """The image under ``key`` in this tower's storage, built once: a
        ``GeneratorLabel``, a root element (i, j, hat) or a ``TElementLabel``."""
        if key not in self._images:
            if isinstance(key, GeneratorLabel):
                image = self._build_gen(key)
            elif isinstance(key, TElementLabel):
                image = self._build_t(key)
            else:
                image = self._build_root(*key)
            self._images[key] = image
        return self._images[key]

    def _build_gen(self, label: GeneratorLabel):
        p, L = self.params, self.L
        if not self.sparse:
            return coproduct_rep(p, label, L, "delta", self.first_site_lambda)
        [(_, rows, cols, vals)] = _coproduct_entries(p, [label], L, "delta",
                                                     self.first_site_lambda, Gauge.homogeneous)
        return coalesce([(rows.ravel(), cols.ravel(), vals.ravel())], self.dim)

    def _build_root(self, i: int, j: int, hat: bool):
        if i == j or not (1 <= i <= self.params.n and 1 <= j <= self.params.n):
            raise ValueError(f"root element indices ({i},{j}) invalid")
        if abs(i - j) == 1:
            return self._stored(
                GeneratorLabel(GeneratorKind.E, i)
                if j == i + 1
                else GeneratorLabel(GeneratorKind.F, j)
            )
        qfac = _root_qfac(self.params, i, j, hat)
        lo, hi = min(i, j), max(i, j)
        if not self.sparse:
            acc = 0
            for k in range(lo + 1, hi):
                a, b = self._stored((i, k, hat)), self._stored((k, j, hat))
                acc = acc + (a @ b - qfac * (b @ a))
            return acc / (abs(i - j) - 1)
        terms = []
        for k in range(lo + 1, hi):
            terms += [self._terms(1.0, (i, k, hat), (k, j, hat)),
                      self._terms(-qfac, (k, j, hat), (i, k, hat))]
        rows, cols, vals = coalesce(terms, self.dim)
        return rows, cols, vals / (abs(i - j) - 1)

    def _build_t(self, label: TElementLabel):
        p, n = self.params, self.params.n
        fam, i, j = label.family, label.i, label.j
        w = p.w
        plus_pref = w * _qpow(p, -0.5)
        minus_pref = -w * _qpow(p, 0.5)

        def half(a: int, inverse: bool) -> np.ndarray:
            image = self._stored(GeneratorLabel(GeneratorKind.KCARTAN, a, inverse))
            return image[2] if self.sparse else image.diagonal()

        def dressed(pref: complex, a: int, b: int, sign: float, core):
            # the Cartan dressing K_a K_b is diagonal: scale the core's rows
            scale = pref * (half(a, sign < 0) * half(b, sign < 0))
            if not self.sparse:
                return scale[:, None] * core
            rows, cols, vals = core
            return rows, cols, vals * scale[rows]

        if fam in (TElementFamily.t, TElementFamily.t_minus,
                   TElementFamily.t_hat, TElementFamily.t_hat_minus):
            if i == j:
                inv = fam in (TElementFamily.t_minus, TElementFamily.t_hat_minus)
                square = half(i, inv) * half(i, inv)
                return diagonal_entries(square) if self.sparse else np.diag(square)
            if fam == TElementFamily.t:
                if i > j:
                    raise ValueError("t_ij needs i <= j")
                return dressed(plus_pref, i, j, +1, self._stored((j, i, False)))
            if fam == TElementFamily.t_minus:
                if i < j:
                    raise ValueError("t-minus_ij needs i >= j")
                return dressed(minus_pref, i, j, -1, self._stored((j, i, False)))
            if fam == TElementFamily.t_hat:
                if i < j:
                    raise ValueError("t-hat_ij needs i >= j")
                return dressed(plus_pref, i, j, +1, self._stored((j, i, True)))
            if i > j:
                raise ValueError("t-hat-minus_ij needs i <= j")
            return dressed(minus_pref, i, j, -1, self._stored((j, i, True)))

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
        return dressed(pref, 1, n, sign, self._stored(GeneratorLabel(core_kind, n)))


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


def t_coproduct_sum(first: Tower, second: Tower, label: TElementLabel) -> np.ndarray:
    """Right-hand side of the factorized two-fold coproduct sums: the sum of
    first (x) second over the label pairs of ``_coproduct_pairs``, each leg
    read from its one-site tower (the first at the first-site lambda)."""
    return sum(
        np.kron(first.t_image(a), second.t_image(b))
        for a, b in _coproduct_pairs(first.params.n, label)
    )


# ---------------------------------------------------------------------------
# Lax operators
# ---------------------------------------------------------------------------


class LaxFamily:
    """The Lax matrix L(lam) on aux (x) one quantum site and L-hat(lam), at
    any lam and in both gauges, from the images of one ``Tower(params)``.

    Homogeneous: e^{lam} (upper-triangular t part) - e^{-lam} (lower t-minus
    part). Principal: diagonal 'e^{lam} t_ii - e^{-lam} t_ii^{-1}', gauge
    phases on the off-diagonal entries, affine corner elements in place of
    t_1n / t-minus_n1. Only the scalar weights of the blocks depend on lam:
    the images are read once and stacked as (n, n, n, n) arrays, block
    (i, j) of the auxiliary space at ``[i, :, j, :]``, one stack per weight:
    homogeneous (t_ij for i <= j, t-minus_ij for i >= j), principal (the
    off-diagonal blocks, t_ii, t-minus_ii). L(lam) adds weight times stack
    into zeros, one stack at a time, which gives every block the sum, in the
    same order, that adding its weighted images one by one would.
    """

    def __init__(self, params: ModelParams):
        n = self.n = params.n
        tower = Tower(params)

        def stack(families: dict) -> np.ndarray:
            out = np.zeros((n, n, n, n), dtype=np.complex128)
            for (i, j), fam in families.items():
                out[i - 1, :, j - 1, :] = tower.t_image(TElementLabel(fam, i, j))
            return out

        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        t, t_minus = TElementFamily.t, TElementFamily.t_minus
        # the affine corners (n, 1) and (1, n) replace the t and t-minus there
        off = {(i, j): t if i < j else t_minus for i, j in pairs if i != j}
        off.update({(n, 1): TElementFamily.t0_n1, (1, n): TElementFamily.t0_minus_1n})
        self._stacks = {
            Gauge.homogeneous: (stack({(i, j): t for i, j in pairs if i <= j}),
                                stack({(i, j): t_minus for i, j in pairs if i >= j})),
            Gauge.principal: (stack(off), stack({(i, i): t for i in range(1, n + 1)}),
                              stack({(i, i): t_minus for i in range(1, n + 1)})),
        }

    def lax(self, lam: complex, gauge: Gauge = Gauge.homogeneous) -> Operator:
        n = self.n
        ep, em = cmath.exp(lam), cmath.exp(-lam)
        if gauge == Gauge.homogeneous:
            weights = (ep, -em)
        else:
            # the gauge phase of each off-diagonal block
            phase = np.array([[0.0 if i == j else
                               cmath.exp(((i - j) * 2.0 / n + 1.0) * lam) if i < j else
                               -cmath.exp(((i - j) * 2.0 / n - 1.0) * lam)
                               for j in range(1, n + 1)] for i in range(1, n + 1)])
            phase[n - 1, 0] = cmath.exp(lam - 2.0 * lam / n)
            phase[0, n - 1] = -cmath.exp(-lam + 2.0 * lam / n)
            weights = (phase[:, None, :, None], ep, -em)
        total = np.zeros((n * n, n * n), dtype=np.complex128)
        blocks = aux_blocks(total, n)
        for weight, stack in zip(weights, self._stacks[gauge]):
            blocks += weight * stack
        return Operator(total, (n, n))

    def lax_hat(self, lam: complex, gauge: Gauge = Gauge.homogeneous) -> Operator:
        """Inverse of L(-lam); rejects near-singular points."""
        a = self.lax(-lam, gauge)
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
    tower: Tower,
    which: str,
    lam: complex,
    index: int | None = None,
) -> np.ndarray:
    """Block-matrix closed forms of (pi_lam (x) pi_0^N) primed coproducts,
    N the site count of ``tower``, whose N-fold images they read.

    which: chevalley_e | chevalley_f | cartan_eps, each with a generator
    index in 1..n.
    """
    params, N = tower.params, tower.L
    n = params.n
    if N < 1:
        raise ValueError("need at least one quantum site")
    q = params.q
    qh = _qpow(params, 0.5)
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
    else:
        raise ValueError(f"unknown closed form {which!r}")

    return np.block(blocks)


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


def intertwine_residual(params, labels, x: Operator, lam, gauge, primed_left=True) -> float:
    """The worst sym_residual over ``labels`` of Delta'(g) X = X Delta(g), or
    of Delta(g) X = X Delta'(g) when ``primed_left`` is False: both
    coproducts are len(x.dims)-fold with the first site evaluated at ``lam``,
    formed as stacks and multiplied by X as stacks."""
    mat = x.mat

    def worst(chunk) -> float:
        dp, d = (coproduct_stack(params, chunk, len(x.dims), variant, lam, gauge)
                 for variant in ("delta_prime", "delta"))
        left, right = (dp, d) if primed_left else (d, dp)
        return sym_residual(left @ mat, mat @ right)

    return worst_of(worst(chunk) for chunk in stack_chunks(labels, mat.shape[0]))


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
        return eval_generator(params, label, lam, gauge)
    if label.kind in (GeneratorKind.KCARTAN, GeneratorKind.HCARTAN):
        head = eval_generator(params, label, lam, gauge)
        tail = _coproduct_recursive(params, label, L - 1, (0.0, gauge))
        return np.kron(head, tail)
    h_m = GeneratorLabel(GeneratorKind.HCARTAN, label.index, inverse=True)
    h_p = GeneratorLabel(GeneratorKind.HCARTAN, label.index)
    a = np.kron(
        eval_generator(params, h_m, lam, gauge),
        _coproduct_recursive(params, label, L - 1, (0.0, gauge)),
    )
    b = np.kron(
        eval_generator(params, label, lam, gauge),
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
            rb.add(f"algebra.inter.{gauge.value}.s{s}",
                   intertwine_residual(p, _all_labels(n), r, lam, gauge), tol)

        # affine intertwiner with mismatched gauge pairing must fail
        mis = intertwine_residual(p, [GeneratorLabel(GeneratorKind.E, n)],
                                  build_r(p, lam, Gauge.homogeneous), lam, Gauge.principal)
        rb.add_flag(f"algebra.inter_mismatch.s{s}", mis > 1e-3, mis)

        # RLL relation and the Lax/R identification; every Lax matrix of the
        # sample is weighted from one tower's images
        laxes = LaxFamily(p)
        lam, lam2 = sample_spectral(rng, p, 2)
        for gauge in (Gauge.homogeneous, Gauge.principal):
            lax1 = laxes.lax(lam, gauge)
            rb.add(f"algebra.rll.{gauge.value}.s{s}", rtt_residual(
                build_r(p, lam - lam2, gauge), lax1, laxes.lax(lam2, gauge)), tol)
            pr = prop_check(lax1, build_r(p, lam, gauge))
            rb.add(f"algebra.lax_is_r.{gauge.value}.s{s}", pr.residual, tol,
                   scalar=pr.scalar)
            rb.add(f"algebra.lax_scale.{gauge.value}.s{s}",
                   abs(pr.scalar - 2.0), 1e-9)

        # gauge relation between both Lax forms
        v1 = embed_at(build_gauge_V(p, lam), [1], [n, n])
        v1m = embed_at(build_gauge_V(p, -lam), [1], [n, n])
        rb.add(
            f"algebra.lax_gauge.s{s}",
            rel_residual(v1 @ laxes.lax(lam) @ v1m,
                         laxes.lax(lam, Gauge.principal)),
            1e-12,
        )

        # coproduct maps on the Lax entries are given by the slot products;
        # their consistency shows up as the exchange relation for the
        # two-site product L_{a,2} L_{a,1} and the inverse pairing of the two
        # product orders
        def dl(u):
            lax = laxes.lax(u)
            return embed_at(lax, [1, 3], [n] * 3) @ embed_at(lax, [1, 2], [n] * 3)

        rb.add(f"algebra.lax_cop.s{s}",
               rtt_residual(build_r(p, lam - lam2), dl(lam), dl(lam2)), tol)
        try:
            hat1 = laxes.lax_hat(lam)
            dlhat = embed_at(hat1, [1, 2], [n, n, n]) @ embed_at(
                hat1, [1, 3], [n, n, n]
            )
            rb.add(f"algebra.laxhat_cop.s{s}",
                   rel_residual(dlhat @ dl(-lam), identity_op([n, n, n])), 1e-11)
            rb.add(
                f"algebra.laxhat_inv.s{s}",
                rel_residual(hat1 @ laxes.lax(-lam), identity_op([n, n])),
                1e-12,
            )
        except DegenerateParameters:
            rb.add_flag(f"algebra.laxhat_skip.s{s}", True)

        # bulk commutation of the braid R with fold-N coproducts; the affine
        # generators are excluded from this symmetry
        sites = max(2, params.sites)
        rc = build_rcheck(p, lam)
        rcls = [embed_at(rc, [l, l + 1], [n] * sites).mat for l in range(1, sites)]
        labels = [lab for lab in _all_labels(n)
                  if lab.kind not in (GeneratorKind.E, GeneratorKind.F) or lab.index < n]
        res = []
        for chunk in stack_chunks(labels, n**sites):
            xs = coproduct_stack(p, chunk, sites)
            scale = np.maximum(frob(xs) * frob(rc), RESIDUAL_FLOOR)
            res += [frob(rcl @ xs - xs @ rcl) / scale for rcl in rcls]
        rb.add(f"algebra.rcheck_comm.s{s}", worst_of(np.concatenate(res)), tol)

    # ---- structural checks (parameter set of the call, once) -------------
    # one tower per (sites, first-site lambda), shared by every check below
    tower1 = Tower(params, 1)
    tower2 = Tower(params, 2)
    lam_t = 0.23
    tower1_at, tower2_at = Tower(params, 1, lam_t), Tower(params, 2, lam_t)

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
    pswap = permutation_swap(n).mat
    rb.add("algebra.prime_is_swap",
           rel_residual(pswap @ coproduct_stack(params, _all_labels(n), 2, "delta") @ pswap,
                        coproduct_stack(params, _all_labels(n), 2, "delta_prime")), 1e-13)

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
        rel_residual(coproduct_stack(params, chunk, L, "delta", lam0),
                     np.stack([_coproduct_recursive(params, lab, L, (lam0, Gauge.homogeneous))
                               for lab in chunk]))
        for L in (2, 3, 4)
        for chunk in stack_chunks(coassoc_labels, n**L)
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
            rel_residual(tower2.t_image(lab), t_coproduct_sum(tower1, tower1, lab))
            for lab in labels
        ), 1e-12)

    rb.add("algebra.tcop.affine", worst_of(
        rel_residual(tower2_at.t_image(lab), t_coproduct_sum(tower1_at, tower1, lab))
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

    # closed-form block matrices against the generic primed coproduct; the
    # Cartan form is of the square of q^{eps_i/2}
    res = []
    lamD = 0.29 - 0.17j
    forms = [(which, GeneratorLabel(kind, i))
             for which, kind in (("chevalley_e", GeneratorKind.E),
                                 ("chevalley_f", GeneratorKind.F),
                                 ("cartan_eps", GeneratorKind.KCARTAN))
             for i in range(1, n + 1)]
    for tower in (tower1, tower2):
        for chunk in stack_chunks(forms, n ** (tower.L + 1)):
            primed = coproduct_stack(params, [lab for _, lab in chunk], tower.L + 1,
                                     "delta_prime", lamD)
            halves = [k for k, (which, _) in enumerate(chunk) if which == "cartan_eps"]
            primed[halves] = primed[halves] @ primed[halves]
            closed = np.stack([block_closed_rep(tower, which, lamD, index=lab.index)
                               for which, lab in chunk])
            res.append(rel_residual(closed, primed))
    rb.add("algebra.blockform", worst_of(res), 1e-11)

    return rb.report()
