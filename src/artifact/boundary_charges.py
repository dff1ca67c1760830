"""Non-local boundary charges of the open chain and their symmetry checks.

At large spectral parameter the double-row operator degenerates, block by
block in the auxiliary space, into a fixed matrix of operators on the quantum
sites alone. Those blocks are the boundary charges: quadratic combinations of
the coproduct tower entries dressed by the right boundary data. They commute
with every Hecke generator of the boundary representation, hence with the
Hamiltonian, and with the whole transfer matrix at every spectral parameter.
The lone exception is the (n, n) entry, which picks up the affine corners and
fails to commute by an exactly computable defect proportional to the extreme
off-diagonal blocks of the double row.

The same charges arise three independent ways and the suite confronts all of
them pairwise:

* products of N-fold coproducts of the tower entries with the boundary
  weights inserted (the defining formulas),
* the one-site coproduct recursion that peels the first site off,
* numerical extraction from the double row at large real spectral parameter.

In the homogeneous gradation the extraction is a straight block read-off.
In the principal gradation every matrix entry is graded by exp(2*lam/n)
and the charge matrix splits across two consecutive grades, so the blocks
are separated by evaluating at lam + i*pi*k for k = 0, 1, 2 and projecting
the grade classes with a discrete Fourier sum. That keeps the real part of
lam moderate and avoids subtractive loss between grades of very different
size.

Every tower entry, generator coproduct and Cartan square on a given site
count and first-site lambda is read from one ``quantum_algebra.Tower``. A
``ChargeSet`` carries the tower its charges were read from, so every check
on the charge set (exchange relations, the affine defect, the block closed
forms, the braid exchange) reads the same images. The coproduct recursion
builds its own towers, one per (sites, first-site lambda) for a whole call
(the suite shares one such memo across its three recursion checks), and
never reads a ``ChargeSet``: it is the independent route. One least-squares
ray fit (``_ray_scalar``, ``_ray_defect``) serves both asymptotic read-offs.

The recursion has a plain and a primed order. The primed one-site split is
the plain split with its two legs exchanged, so each split is written once
(``_split_terms`` for the charges, ``quantum_algebra._coproduct_pairs`` for
the tower entries) and read both ways; ``cyclic_shift`` stays an
independent reference for the primed order.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import cache, partial
from typing import Callable, NamedTuple

import numpy as np

from .hecke_algebra import build_bulk_generator, rep_boundary, rep_bulk
from .params import DegenerateParameters, ModelParams
from .quantum_algebra import (
    GeneratorKind,
    TElementFamily,
    TElementLabel,
    Tower,
    _coproduct_pairs,
    _qpow,
    block_closed_rep,
)
from .reflection_k import LeftBoundaryKind, build_k_explicit
from .reporting import ReportBuilder, VerificationReport
from .sampling import rng_from_seed, sample_spectral
from .spin_chain import (
    ChainSpec,
    build_double_row,
    build_hamiltonian,
    build_transfer,
)
from .tensor_core import (
    RESIDUAL_FLOOR,
    Operator,
    aux_blocks,
    basis_matrix,
    comm_residual,
    embed_at,
    frob,
    permutation_swap,
    rel_residual,
    sym_residual,
    worst_of,
)
from .yang_baxter import Gauge


_T = TElementFamily


def boundary_entry_indices(n: int) -> tuple[tuple[int, int], ...]:
    """Auxiliary-space positions where the boundary charges live.

    The full first row and first column survive, together with the interior
    square 2..n-1 in both indices. Positions (n, k) and (k, n) with k >= 2
    vanish identically; (n, n) is the affine charge and is kept separate.
    """
    idx = [(1, 1)]
    for i in range(2, n + 1):
        idx.append((1, i))
        idx.append((i, 1))
    for k in range(2, n):
        for l in range(2, n):
            idx.append((k, l))
    return tuple(idx)


def _charge_positions(n: int) -> tuple[tuple[int, int], ...]:
    """Every position that carries a charge: the entries and the affine (n, n)."""
    return boundary_entry_indices(n) + ((n, n),)


@dataclass(frozen=True)
class ChargeSet:
    """Boundary charges on ``sites`` quantum spaces, with the tower they came from.

    ``entries`` maps auxiliary positions from :func:`boundary_entry_indices`
    to operators; every one of them commutes with the boundary Hecke
    representation and with the open transfer matrix. ``affine`` is the
    (n, n) charge, the only entry carrying the affine corner generators, and
    the only one with a nonvanishing transfer-matrix defect. ``tower`` is the
    ``Tower`` on the same sites that every charge was read from.
    """

    params: ModelParams
    sites: int
    entries: dict
    affine: Operator
    tower: Tower

    def charge(self, pos: tuple) -> np.ndarray:
        """Matrix at any auxiliary position: the affine charge at (n, n), zero
        where no charge lives."""
        if pos in self.entries:
            return self.entries[pos].mat
        n = self.params.n
        if pos == (n, n):
            return self.affine.mat
        return np.zeros((n**self.sites,) * 2, dtype=np.complex128)


# ---------------------------------------------------------------------------
# charges as products of the coproduct tower entries
# ---------------------------------------------------------------------------


def build_affine_charge(tower: Tower) -> Operator:
    """The (n, n) boundary charge on the sites of ``tower``.

    Quadratic in the last Cartan with both affine corners attached; the
    boundary parameter zeta enters only here, through the cosh weight in
    front of the Cartan square.
    """
    p = tower.params
    n = p.n
    tnn = tower.t(n, n)
    c2 = 2.0 * cmath.cosh(2j * p.mu * p.zeta)
    mat = (
        -c2 * (tnn @ tnn)
        - 1j * (tnn @ tower.t_image(TElementLabel(_T.t0hat_1n, 1, n)))
        - 1j * (tower.t_image(TElementLabel(_T.t0_n1, n, 1)) @ tower.h(n, n))
    )
    return Operator(mat, (n,) * tower.L)


def build_boundary_charges(
    params: ModelParams, N: int, first_site_lambda: complex | None = None
) -> ChargeSet:
    """Assemble the full charge set from products of coproduct towers.

    Every entry reads the upper-triangular ``t`` and lower-triangular hatted
    entries of one ``Tower`` on the N sites. The first row and column mix the
    two towers through the right boundary weights; the interior block is a
    plain quadratic sum. All entries are spectral-parameter independent once
    the sites are fixed (the optional first-site evaluation point only matters
    for the affine corners).
    """
    n = params.n
    tower = Tower(params, N, first_site_lambda)
    t, h = tower.t, tower.h
    em = cmath.exp(1j * params.mu * params.m)
    ch2 = em + 1.0 / em
    dims = (n,) * N
    d = n**N

    entries: dict = {}
    acc = ch2 * (t(1, 1) @ h(1, 1))
    acc -= 1j * (t(1, n) @ h(1, 1))
    acc -= 1j * (t(1, 1) @ h(n, 1))
    for j in range(2, n):
        acc = acc + em * (t(1, j) @ h(j, 1))
    entries[(1, 1)] = Operator(acc, dims)
    for i in range(2, n + 1):
        acc = -1j * (t(1, 1) @ h(n, i))
        for j in range(i, n):
            acc = acc + em * (t(1, j) @ h(j, i))
        entries[(1, i)] = Operator(acc, dims)
        acc = -1j * (t(i, n) @ h(1, 1))
        for j in range(i, n):
            acc = acc + em * (t(i, j) @ h(j, 1))
        entries[(i, 1)] = Operator(acc, dims)
    for k in range(2, n):
        for l in range(2, n):
            acc = np.zeros((d, d), dtype=np.complex128)
            for j in range(max(k, l), n):
                acc = acc + em * (t(k, j) @ h(j, l))
            entries[(k, l)] = Operator(acc, dims)
    affine = build_affine_charge(tower)
    return ChargeSet(params=params, sites=N, entries=entries, affine=affine, tower=tower)


# ---------------------------------------------------------------------------
# single-site closed forms
# ---------------------------------------------------------------------------


def eval_Q_rep(params: ModelParams, which: tuple, lam: complex = 0.0) -> Operator:
    """Single-site charge under the evaluation representation.

    The first row and column close in matrix units with simple boundary
    weights; the (1, n) and (n, 1) entries coincide and are group-like up to
    the scalar -i. Only the (n, n) entry remembers the evaluation point,
    through the affine corners. The interior block has no displayed closed
    form and is built from the defining quadratic products instead.
    """
    n = params.n
    q = params.q
    w = params.w
    i, j = which
    if which not in _charge_positions(n):
        raise ValueError(f"no boundary charge at position {which} for n={n}")
    em = cmath.exp(1j * params.mu * params.m)
    ish = 0.5j * w  # i sinh(i mu)

    def e(a, b):
        return basis_matrix(n, a, b)

    qcorner = np.eye(n, dtype=np.complex128)
    qcorner[0, 0] = q
    qcorner[n - 1, n - 1] *= q
    if which == (1, 1):
        hdown = np.eye(n, dtype=np.complex128)
        hdown[0, 0] = q
        hdown[n - 1, n - 1] = 1.0 / q
        inner = -(cmath.cosh(1j * params.mu * params.m) / ish) * hdown
        inner += e(n, 1) + e(1, n)
        for k in range(2, n):
            inner += 1j * w * em * e(k, k)
        mat = -1j * w * (qcorner @ inner)
    elif i == 1 and 2 <= j <= n - 1:
        mat = -1j * w * (1j * em * e(j, 1) + e(j, n))
    elif j == 1 and 2 <= i <= n - 1:
        mat = -1j * w * (1j * em * e(1, i) + e(n, i))
    elif which in ((1, n), (n, 1)):
        mat = -1j * qcorner
    elif which == (n, n):
        hup = np.eye(n, dtype=np.complex128)
        hup[0, 0] = 1.0 / q
        hup[n - 1, n - 1] = q
        inner = (cmath.cosh(2j * params.mu * params.zeta) / ish) * hup
        inner += cmath.exp(-2 * lam) * e(n, 1) + cmath.exp(2 * lam) * e(1, n)
        mat = -1j * w * (qcorner @ inner)
    else:
        tower = Tower(params, 1, lam)
        mat = np.zeros((n, n), dtype=np.complex128)
        for jj in range(max(i, j), n):
            mat += em * (tower.t(i, jj) @ tower.h(jj, j))
    return Operator(mat, (n,))


# ---------------------------------------------------------------------------
# coproduct recursion
# ---------------------------------------------------------------------------


def _t_prime_rep(first: Tower, rest: Tower, label: TElementLabel) -> np.ndarray:
    """Primed coproduct image of a tower entry on the 1 + rest.L sites.

    Only the top split is primed: it is the plain two-fold split of
    ``_coproduct_pairs`` with the legs exchanged, the distinguished site
    (the one-site ``first``) in the first tensor slot and the plain coproduct
    on ``rest`` below it.
    """
    return sum(
        np.kron(first.t_image(b), rest.t_image(a))
        for a, b in _coproduct_pairs(first.params.n, label)
    )


class _Leg(NamedTuple):
    """One leg of a split: its charge image ``q(position)`` and the ``t`` and
    ``h`` methods of its ``Tower``."""

    q: Callable[[tuple], np.ndarray]
    t: Callable[[int, int], np.ndarray]
    h: Callable[[int, int], np.ndarray]


def _split_terms(params: ModelParams, which: tuple) -> list:
    """Plain one-site split of the charge at ``which``: (n, n), (1, 1) or the
    rest of the first row and column.

    Each term is (coefficient, charge-leg factor, tower-leg factor), a factor
    being a function of a ``_Leg``. The plain split is the sum of
    c * kron(charge-leg factor(first), tower-leg factor(rest)); the primed one
    exchanges the legs, c * kron(tower-leg factor(first), charge-leg
    factor(rest)).
    """
    n = params.n
    i, j = which
    em = cmath.exp(1j * params.mu * params.m)
    if which == (n, n):
        c2 = 2.0 * cmath.cosh(2j * params.mu * params.zeta)
        return [
            (1.0, lambda g: g.q((n, n)) + c2 * (g.t(1, 1) @ g.t(n, n)),
             lambda g: g.t(n, n) @ g.t(n, n)),
            (1.0, lambda g: g.t(1, 1) @ g.t(n, n), lambda g: g.q((n, n))),
        ]
    terms = [(1.0, lambda g, k=k: g.q((1, k)), lambda g, k=k: g.t(1, 1) @ g.h(k, j))
             for k in range(j, n) if i == 1]
    terms += [(1.0, lambda g, k=k: g.q((k, 1)), lambda g, k=k: g.t(i, k) @ g.t(1, 1))
              for k in range(max(i, 2), n) if j == 1]
    terms += [
        (em, lambda g, k=k, jj=jj, l=l: g.t(k, jj) @ g.h(jj, l),
         lambda g, k=k, l=l: g.t(i, k) @ g.h(l, j))
        for jj in range(max(i, j, 2), n)
        for k in range(max(i, 2), jj + 1)
        for l in range(max(j, 2), jj + 1)
    ]
    if which == (1, 1):
        corner = (lambda g: g.t(1, 1) @ g.t(n, n),
                  lambda g: g.t(1, n) @ g.t(1, 1) + g.t(1, 1) @ g.h(n, 1))
    elif i == 1:
        corner = (lambda g: g.t(1, 1) @ g.t(n, n), lambda g: g.t(1, 1) @ g.h(n, j))
    else:
        corner = (lambda g: g.t(n, n) @ g.t(1, 1), lambda g: g.t(i, n) @ g.t(1, 1))
    return terms + [(-1j, *corner)]


def coproduct_charges(
    params: ModelParams,
    L: int,
    which: tuple,
    variant: str = "delta",
    first_site_lambda: complex | None = None,
) -> Operator:
    """Charge on L sites through the one-site splitting of the coproduct.

    Peels the first site off: the top split carries single-site charges and
    tower entries, everything below is a plain (L-1)-fold coproduct. The
    primed variant is the plain top split with its two legs exchanged (see
    ``_split_terms``). Entries without a displayed recursion, namely (1, n),
    (n, 1) and the interior block, go through the homomorphism property of
    the (primed) coproduct instead. One call builds one ``Tower`` per
    (sites, first-site lambda) and shares it across every level.
    """
    n = params.n
    if which not in _charge_positions(n):
        raise ValueError(f"no boundary charge at position {which} for n={n}")
    if variant not in ("delta", "delta_prime"):
        raise ValueError(f"unknown coproduct variant {variant!r}")
    if L < 1:
        raise ValueError("need at least one tensor factor")
    tower = cache(partial(Tower, params))
    mat = _recursive_charge(params, L, which, variant, first_site_lambda, tower)
    return Operator(mat, (n,) * L)


def _recursive_charge(
    params: ModelParams,
    L: int,
    which: tuple,
    variant: str,
    first_site_lambda: complex | None,
    tower: Callable[[int, complex | None], Tower],
) -> np.ndarray:
    """Matrix of ``coproduct_charges``; ``tower(sites, first_site_lambda)``
    returns the one memoized ``Tower`` of the whole call."""
    n = params.n
    lam0 = 0.0 if first_site_lambda is None else first_site_lambda
    if L == 1:
        return eval_Q_rep(params, which, lam0).mat
    i, j = which
    em = cmath.exp(1j * params.mu * params.m)
    dfull = n**L

    first = tower(1, first_site_lambda)
    rest = tower(L - 1, None)
    interior = 2 <= i <= n - 1 and 2 <= j <= n - 1
    if which in ((1, n), (n, 1)) or interior:
        if variant == "delta":
            img = tower(L, first_site_lambda).t_image
        else:
            img = partial(_t_prime_rep, first, rest)
        if which == (1, n):
            return -1j * img(TElementLabel(_T.t, 1, 1)) @ img(TElementLabel(_T.t_hat, n, n))
        if which == (n, 1):
            return -1j * img(TElementLabel(_T.t, n, n)) @ img(TElementLabel(_T.t_hat, 1, 1))
        mat = np.zeros((dfull, dfull), dtype=np.complex128)
        for jj in range(max(i, j), n):
            mat += em * (img(TElementLabel(_T.t, i, jj))
                         @ img(TElementLabel(_T.t_hat, jj, j)))
        return mat

    first_leg = _Leg(lambda pos: eval_Q_rep(params, pos, lam0).mat, first.t, first.h)
    rest_leg = _Leg(lambda pos: _recursive_charge(params, L - 1, pos, "delta", None, tower),
                    rest.t, rest.h)
    mat = np.zeros((dfull, dfull), dtype=np.complex128)
    for c, charge_leg, tower_leg in _split_terms(params, which):
        if variant == "delta":
            mat += c * np.kron(charge_leg(first_leg), tower_leg(rest_leg))
        else:
            mat += c * np.kron(tower_leg(first_leg), charge_leg(rest_leg))
    return mat


def cyclic_shift(n: int, N: int) -> Operator:
    """Permutation bringing the last of N sites to the front.

    Conjugation by this operator realizes the primed coproduct when every
    site carries the same representation, which pins the primed recursion
    against the plain one without reusing any of its code.
    """
    dims = [n] * N
    c = Operator(np.eye(n**N, dtype=np.complex128), tuple(dims))
    for k in range(1, N):
        c = c @ embed_at(permutation_swap(n), [k, k + 1], dims)
    return c


# ---------------------------------------------------------------------------
# asymptotic extraction from the double row
# ---------------------------------------------------------------------------


def _ray_scalar(pairs) -> complex:
    """Least-squares s with block = s * charge over (charge, block) pairs."""
    num = 0.0j
    den = 0.0
    for qm, b in pairs:
        num += np.vdot(qm, b)
        den += np.vdot(qm, qm).real
    return num / den


def _ray_defect(s: complex, pairs, vanishing=()) -> float:
    """sqrt(sum ||block - s charge||^2 + sum ||vanishing||^2) over
    sqrt(sum ||block||^2): how far the blocks sit from the ray s * charges."""
    err = 0.0
    norm = 0.0
    for qm, b in pairs:
        err += np.linalg.norm(b - s * qm) ** 2
        norm += np.linalg.norm(b) ** 2
    for b in vanishing:
        err += np.linalg.norm(b) ** 2
    return float(np.sqrt(err / norm))


def asymptotic_charges_residual(charges: ChargeSet) -> tuple[float, complex]:
    """Homogeneous-gradation read-off of the charges from the double row.

    At large real spectral parameter the auxiliary blocks on the surviving
    positions approach the corresponding charges times one overall scalar;
    the remaining positions vanish at that order. The (n, n) block sits one
    order down: it approaches the affine charge times the same scalar
    suppressed by exactly exp(-2*lam), and the fit enforces that with no
    extra freedom. The double row is built on the sites of ``charges``, at
    lam = 15.
    """
    p = replace(charges.params, sites=charges.sites)
    lam = complex(15.0)
    n = p.n
    blk = double_row_blocks(ChainSpec(params=p), lam)
    pairs = [(charges.charge(pos), blk[pos]) for pos in blk if pos != (n, n)]
    s = _ray_scalar(pairs)
    res_aff = rel_residual(s * charges.affine.mat, blk[n, n] / cmath.exp(-2 * lam))
    return worst_of((_ray_defect(s, pairs), res_aff)), complex(s)


def principal_asymptotic_residual(charges: ChargeSet) -> float:
    """Principal-gradation split of the double row against the charges.

    For n = 3 the leading order occupies the antidiagonal blocks (1,3),
    (2,2), (3,1) and the next grade down, suppressed by exp(-2*lam/3),
    occupies (1,2), (2,1) and the affine (3,3). One common scalar must fit
    both orders. Grade classes are separated exactly by evaluating at
    lam + i*pi*k and Fourier-projecting over k = 0, 1, 2; the remaining
    within-class truncation falls off like exp(-2*lam). The double row is
    built on the sites of ``charges``, at lam = 12.
    """
    if charges.params.n != 3:
        raise ValueError("the principal asymptotic split is recorded for n=3")
    n = 3
    p = replace(charges.params, sites=charges.sites)
    spec = ChainSpec(params=p, gauge=Gauge.principal)
    re_lambda = 12.0
    mats = [
        build_double_row(spec, complex(re_lambda, np.pi * k)).mat for k in range(3)
    ]

    def project(g):
        acc = np.zeros_like(mats[0])
        for k in range(3):
            acc = acc + cmath.exp(-2j * np.pi * k * g / 3) * mats[k]
        return acc / 3.0

    lead_pos = ((1, 3), (2, 2), (3, 1))
    corr_pos = ((1, 2), (2, 1), (3, 3))
    zero_pos = ((1, 1), (2, 3), (3, 2))

    def block(m, i, j):
        return aux_blocks(m, n)[i - 1, :, j - 1, :]

    # the overall scalar carries its own grade; find it as the class where
    # the leading blocks actually live
    proj = [project(g) for g in range(3)]
    weights = [
        sum(np.linalg.norm(block(proj[g], i, j)) for (i, j) in lead_pos)
        for g in range(3)
    ]
    g0 = int(np.argmax(weights))
    lead = proj[g0]
    corr = proj[(g0 - 1) % 3]
    eps = cmath.exp(-2.0 * re_lambda / 3.0)

    lead_pairs = [(charges.charge(pos), block(lead, *pos)) for pos in lead_pos]
    corr_pairs = [(charges.charge(pos), block(corr, *pos) / eps) for pos in corr_pos]
    vanishing = [b for pos in zero_pos for b in (block(lead, *pos), block(corr, *pos) / eps)]
    return _ray_defect(_ray_scalar(lead_pairs), lead_pairs + corr_pairs, vanishing)


# ---------------------------------------------------------------------------
# braid exchange of the charge matrix
# ---------------------------------------------------------------------------


def braid_exchange_residuals(charges: ChargeSet) -> tuple[float, float]:
    """Four-term exchange of the braid image with the charge matrix.

    The charge matrix, spread over two auxiliary legs, plays the role of a
    constant boundary solution braided by P g^{+-1} on the leg pair. Both
    signs of the braid generator are exchanged against the plus realization
    on the inner factors. No spectral parameter enters.
    """
    params = charges.params
    n = params.n
    dq = n**charges.sites
    idq = np.eye(dq, dtype=np.complex128)
    idn = np.eye(n, dtype=np.complex128)
    u = build_bulk_generator(params).mat
    g = {
        +1: u + params.q * np.eye(n * n, dtype=np.complex128),
        -1: u + np.eye(n * n, dtype=np.complex128) / params.q,
    }
    pswap = permutation_swap(n).mat
    r = {s: np.kron(pswap @ g[s], idq) for s in (+1, -1)}
    rhat = {s: np.kron(g[s] @ pswap, idq) for s in (+1, -1)}
    t1 = np.zeros((n * n * dq,) * 2, dtype=np.complex128)
    t2 = np.zeros_like(t1)
    for (i, j), op in charges.entries.items():
        t1 += np.kron(basis_matrix(n, i, j), np.kron(idn, op.mat))
        t2 += np.kron(idn, np.kron(basis_matrix(n, i, j), op.mat))

    def res(sign):
        return sym_residual(
            r[sign] @ t1 @ rhat[+1] @ t2, t2 @ r[+1] @ t1 @ rhat[sign]
        )

    return res(+1), res(-1)


# ---------------------------------------------------------------------------
# transfer-matrix commutators and the displayed exchange relations
# ---------------------------------------------------------------------------


def double_row_blocks(spec: ChainSpec, lam: complex) -> dict:
    """Auxiliary-space blocks of the double row at one spectral parameter."""
    n = spec.params.n
    blocks = aux_blocks(build_double_row(spec, lam).mat, n)
    return {
        (i, j): blocks[i - 1, :, j - 1, :]
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    }


def affine_transfer_defect(
    spec: ChainSpec, lam: complex, charges: ChargeSet
) -> tuple[float, float]:
    """Defect of the affine charge against the open transfer matrix.

    Returns the residual of the closed form, which involves only the extreme
    off-diagonal blocks of the double row, and the size of the commutator
    itself; both are relative to frob(t) frob(charge). The commutator must
    come out nonzero: the affine charge is genuinely outside the symmetry.
    """
    p = spec.params
    n = p.n
    t = build_transfer(spec, lam).mat
    tnn = charges.affine.mat
    e11enn = charges.tower.t(1, 1) @ charges.tower.t(n, n)
    blk = double_row_blocks(spec, lam)
    closed = (
        2j * p.w * cmath.sinh(2 * lam + 1j * n * p.mu) * ((blk[1, n] - blk[n, 1]) @ e11enn)
    )
    scale = max(frob(t) * frob(tnn), RESIDUAL_FLOOR)
    return frob(t @ tnn - tnn @ t - closed) / scale, comm_residual(t, tnn)


def exchange_relation_residuals(spec: ChainSpec, lam: complex, charges: ChargeSet) -> dict:
    """Displayed exchange relations between double-row blocks and the
    unbroken quantum-group generators, grouped by display.

    The tower of ``charges``, on the chain's sites, supplies the coproducts
    of e_i, f_i and q^{+-h_i/2}, and the Cartan squares t(i, i); q^{1/2} is
    e^{i mu / 2}, the branch the tower's half Cartans take. Relations whose
    index range is empty at the given n are simply absent from the result;
    at n = 3 the middle-index family degenerates to the diagonal
    statements, which are kept.
    """
    p = spec.params
    n = p.n
    q = p.q
    w = p.w
    em = cmath.exp(1j * p.mu * p.m)
    qh = _qpow(p, 0.5)
    tower = charges.tower
    blk = double_row_blocks(spec, lam)
    a_blk = {i: blk[(i, i)] for i in range(1, n + 1)}
    out: dict = {}

    E, F, H = GeneratorKind.E, GeneratorKind.F, GeneratorKind.HCARTAN
    res: list = []
    for jj in range(2, n - 1):
        ecur = tower.gen(E, jj)
        hm = tower.gen(H, jj, True)
        c = blk[(jj + 1, jj)]
        res.append(sym_residual(ecur @ a_blk[jj] - a_blk[jj] @ ecur, -1.0 / qh * hm @ c))
        res.append(
            sym_residual(ecur @ a_blk[jj + 1] - a_blk[jj + 1] @ ecur, qh * c @ hm)
        )
        for other in range(1, n + 1):
            if other in (jj, jj + 1):
                continue
            res.append(comm_residual(ecur, a_blk[other]))
    if res:
        out["com2"] = worst_of(res)

    res = []
    for jj in range(2, n - 1):
        fcur = tower.gen(F, jj)
        hm = tower.gen(H, jj, True)
        b = blk[(jj, jj + 1)]
        res.append(sym_residual(fcur @ a_blk[jj] - a_blk[jj] @ fcur, 1.0 / qh * b @ hm))
        res.append(
            sym_residual(fcur @ a_blk[jj + 1] - a_blk[jj + 1] @ fcur, -qh * hm @ b)
        )
        for other in range(1, n + 1):
            if other in (jj, jj + 1):
                continue
            res.append(comm_residual(fcur, a_blk[other]))
    if res:
        out["com3"] = worst_of(res)

    res = []
    for jj in range(2, n):
        for other in range(1, n + 1):
            res.append(comm_residual(tower.t(jj, jj), a_blk[other]))
    for jj in range(2, n - 1):
        hp, hm = tower.gen(H, jj), tower.gen(H, jj, True)
        b = blk[(jj, jj + 1)]
        c = blk[(jj + 1, jj)]
        res.append(sym_residual(qh * hp @ b, 1.0 / qh * b @ hp))
        res.append(sym_residual(1.0 / qh * hm @ b, qh * b @ hm))
        res.append(sym_residual(1.0 / qh * hp @ c, qh * c @ hp))
        res.append(sym_residual(qh * hm @ c, 1.0 / qh * c @ hm))
    if res:
        out["com4"] = worst_of(res)

    res = []
    tsum = np.zeros_like(a_blk[1])
    for idx in range(1, n + 1):
        tsum = tsum + q ** (n - 2 * idx + 1) * a_blk[idx]
    for jj in range(2, n - 1):
        ecur, fcur = tower.gen(E, jj), tower.gen(F, jj)
        hm = tower.gen(H, jj, True)
        b = blk[(jj, jj + 1)]
        c = blk[(jj + 1, jj)]
        pref = q ** (n - 2 * jj)
        # Both sides of these weighted-sum relations cancel to zero at
        # generic parameters (the right side by the half-Cartan exchange
        # rules, the left because tsum is the transfer matrix), so the
        # residual is measured against the uncancelled constituents.
        lhs_e = ecur @ tsum - tsum @ ecur
        rhs_e = pref * (-qh * hm @ c + 1.0 / qh * c @ hm)
        den_e = max(
            frob(ecur) * frob(tsum), abs(pref) * frob(hm) * frob(c), RESIDUAL_FLOOR
        )
        res.append(frob(lhs_e - rhs_e) / den_e)
        lhs_f = fcur @ tsum - tsum @ fcur
        rhs_f = pref * (qh * b @ hm - 1.0 / qh * hm @ b)
        den_f = max(
            frob(fcur) * frob(tsum), abs(pref) * frob(hm) * frob(b), RESIDUAL_FLOOR
        )
        res.append(frob(lhs_f - rhs_f) / den_f)
    if res:
        out["com4b"] = worst_of(res)

    if n == 3:
        e22sq = tower.t(2, 2) @ tower.t(2, 2)
        corners = tower.t(1, 1) @ tower.t(3, 3)
        t12 = charges.entries[(1, 2)].mat
        t21 = charges.entries[(2, 1)].mat
        t11 = charges.entries[(1, 1)].mat
        b12, b13, b23 = blk[(1, 2)], blk[(1, 3)], blk[(2, 3)]
        c21, c31, c32 = blk[(2, 1)], blk[(3, 1)], blk[(3, 2)]

        def comm(x, y):
            return x @ y - y @ x

        out["com5"] = worst_of((
            sym_residual(comm(a_blk[1], t12), -em * w / q * b12 @ e22sq),
            sym_residual(comm(a_blk[3], t12), 1j * w * c32 @ corners),
            sym_residual(
                comm(a_blk[2], t12),
                em * w / q * e22sq @ b12 - 1j * w / q * corners @ c32,
            ),
            sym_residual(
                comm(t12, c21),
                1j * w / q * corners @ c31
                - em * w / q * e22sq @ a_blk[1]
                + em * w / q * a_blk[2] @ e22sq,
            ),
        ))
        out["com6"] = worst_of((
            sym_residual(comm(a_blk[1], t21), em * w / q * e22sq @ c21),
            sym_residual(comm(a_blk[3], t21), -1j * w * corners @ b23),
            sym_residual(
                comm(a_blk[2], t21),
                -em * w / q * c21 @ e22sq + 1j * w / q * b23 @ corners,
            ),
            sym_residual(
                comm(t21, b12),
                -1j * w / q * b13 @ corners
                + em * w / q * a_blk[1] @ e22sq
                - em * w / q * e22sq @ a_blk[2],
            ),
        ))
        out["com7"] = worst_of((
            sym_residual(
                comm(a_blk[1], t11),
                -w / q * b12 @ t21
                + 1j * w / q * b13 @ corners
                + w / q * t12 @ c21
                - 1j * w / q * corners @ c31,
            ),
            sym_residual(
                comm(a_blk[2], t11),
                -w * q * c21 @ t12
                + w * q * t21 @ b12
                + em * w * w * (e22sq @ a_blk[2] - a_blk[2] @ e22sq),
            ),
            sym_residual(
                comm(a_blk[3], t11),
                -1j * w * q * corners @ b13 + 1j * w * q * c31 @ corners,
            ),
        ))
        out["com9"] = worst_of((
            sym_residual(q * corners @ c32, c32 @ corners),
            sym_residual(e22sq @ b12, q * q * b12 @ e22sq),
            sym_residual(corners @ b23, q * b23 @ corners),
            sym_residual(q * q * e22sq @ c21, c21 @ e22sq),
            comm_residual(corners, b13),
            comm_residual(corners, c31),
        ))

    e11enn = tower.t(1, 1) @ tower.t(n, n)
    b1n = blk[(1, n)]
    cn1 = blk[(n, 1)]
    tnn = charges.affine.mat
    ep, emm = cmath.exp(2 * lam), cmath.exp(-2 * lam)
    res = [
        sym_residual(
            a_blk[1] @ tnn - tnn @ a_blk[1],
            1j * w * q * ep * (b1n @ e11enn - e11enn @ cn1),
        ),
        sym_residual(
            a_blk[n] @ tnn - tnn @ a_blk[n],
            1j * w / q * emm * (cn1 @ e11enn - e11enn @ b1n),
        ),
    ]
    for jj in range(2, n):
        res.append(comm_residual(a_blk[jj], tnn))
    out["com8"] = worst_of(res)
    out["com11"] = worst_of((comm_residual(e11enn, b1n), comm_residual(e11enn, cn1)))
    return out


# ---------------------------------------------------------------------------
# spectral degeneracy witness
# ---------------------------------------------------------------------------


def degeneracy_witness(charges: ChargeSet, cluster_tol: float = 1e-8) -> float:
    """Largest off-ray defect of any charge on an isolated eigenvector.

    The charges commute with the Hamiltonian, so wherever a charge turns an
    eigenvector away from its own ray the eigenvalue must be degenerate.
    Contrapositively, every eigenvector attached to an isolated eigenvalue
    has to be a joint eigenvector of the whole charge set; the returned
    defect measures how far the worst one is from that, relative to the
    spectral norm of the charge, and should sit at solver noise. With no
    isolated eigenvalue there is nothing to witness and the result is NaN,
    so a check on it cannot pass. The Hamiltonian is built on the sites of
    ``charges``.
    """
    p = replace(charges.params, sites=charges.sites)
    h = build_hamiltonian(ChainSpec(params=p)).mat
    evals, vecs = np.linalg.eig(h)
    scale = max(1.0, float(np.max(np.abs(evals))))
    ops = [op.mat for op in charges.entries.values()]
    opnorms = [np.linalg.norm(m, 2) for m in ops]
    defects = []
    for a in range(evals.size):
        close = np.abs(evals - evals[a]) < cluster_tol * scale
        if int(close.sum()) > 1:
            continue
        v = vecs[:, a]
        v = v / np.linalg.norm(v)
        for m, nm in zip(ops, opnorms):
            y = m @ v
            off = y - v * np.vdot(v, y)
            defects.append(np.linalg.norm(off) / max(nm, RESIDUAL_FLOOR))
    return worst_of(defects) if defects else math.nan


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------


def verify_symmetry_suite(
    spec: ChainSpec, samples: int = 5, tol: float = 1e-9, seed: int = 0
) -> VerificationReport:
    """Run every boundary-charge check at the configured size.

    The symmetry statements are made for the homogeneous gradation with a
    trivial left boundary and the explicit right boundary, so the suite pins
    that setting internally; the incoming spec contributes the model
    parameters, the site count, and the diagonal-family data used by the
    residual-symmetry checks.
    """
    p = spec.params
    n, N = p.n, p.sites
    rng = rng_from_seed(seed)
    rb = ReportBuilder(
        "symmetry",
        {"n": n, "sites": N, "samples": samples, "seed": seed, "tol": tol,
         "diag_block": spec.diag_block},
    )

    hspec = ChainSpec(params=p)
    aspec = ChainSpec(params=p, left_boundary=LeftBoundaryKind.affine_limit)
    tspec = ChainSpec(params=p, right_boundary="trivial")
    dspec = ChainSpec(
        params=p, right_boundary="diagonal", diag_block=spec.diag_block, xi=spec.xi
    )
    charges = build_boundary_charges(p, N)
    tower = charges.tower
    all_positions = list(charges.entries.keys())

    # (a) every charge entry commutes with every boundary Hecke generator
    for l in range(N):
        gen = rep_boundary(p) if l == 0 else rep_bulk(p, l)
        res = worst_of(
            comm_residual(gen.mat, charges.entries[pos].mat) for pos in all_positions
        )
        rb.add(f"symmetry.prop41_l{l}", res, tol)

    # (b) hence with the Hamiltonian
    try:
        h = build_hamiltonian(hspec)
        res = worst_of(
            comm_residual(h.mat, charges.entries[pos].mat) for pos in all_positions
        )
        rb.add("symmetry.corollary", res, tol)
    except DegenerateParameters:
        rb.add_flag("symmetry.corollary_skipped_degenerate", True)

    # single-site closed forms against the defining products
    lam0 = sample_spectral(rng, p, 1)[0]
    one_site = build_boundary_charges(p, 1, first_site_lambda=lam0)
    res = worst_of(sym_residual(eval_Q_rep(p, pos, lam0).mat, one_site.charge(pos))
                   for pos in _charge_positions(n))
    rb.add("symmetry.evalq", res, 1e-11)

    res = worst_of(
        sym_residual(eval_Q_rep(p, (i, 1), lam0).mat, eval_Q_rep(p, (1, i), lam0).mat.T)
        for i in range(2, n + 1)
    )
    rb.add("symmetry.evalq_transpose", res, 1e-12)

    # coproduct recursion against the product construction, both variants;
    # the recursion's towers are its own, shared by these three checks and
    # never the charge set's
    rec_tower = cache(partial(Tower, p))
    shift = cyclic_shift(n, N)
    shift_inv = shift.transpose()  # permutation, so the transpose inverts it
    res = worst_of(sym_residual(_recursive_charge(p, N, pos, "delta", None, rec_tower),
                                charges.charge(pos))
                   for pos in _charge_positions(n))
    rb.add("symmetry.recursion", res, 1e-11)

    res = worst_of(
        sym_residual(_recursive_charge(p, N, pos, "delta_prime", None, rec_tower),
                     (shift @ Operator(charges.charge(pos), (n,) * N) @ shift_inv).mat)
        for pos in _charge_positions(n)
    )
    rb.add("symmetry.recursion_prime", res, 1e-11)

    # block closed forms of the primed coproducts with one evaluated site
    res = worst_of(
        sym_residual(
            _recursive_charge(p, N + 1, pos, "delta_prime", lam0, rec_tower),
            block_closed_rep(p, pos, N, lam0, charges=charges).mat,
        )
        for pos in ([(n, n), (1, 1), (1, 2), (2, 1)] if n == 3 else [(n, n)])
    )
    rb.add("symmetry.block_closed", res, 1e-11)

    # asymptotic read-off, both gradations
    res, _ = asymptotic_charges_residual(charges)
    rb.add("symmetry.asym_hom", res, 1e-8)
    if n == 3:
        rb.add("symmetry.asym_principal", principal_asymptotic_residual(charges), 1e-8)

    # braid exchange of the charge matrix; gates at one site, reported as a
    # diagnostic at two where the display leaves the normalization open. The
    # entries it reads do not depend on the one-site set's lam0.
    rp, rm = braid_exchange_residuals(one_site)
    rb.add("symmetry.rr_plus", rp, tol)
    rb.add("symmetry.rr_minus", rm, tol)
    if N >= 2:
        rp2, rm2 = braid_exchange_residuals(
            charges if N == 2 else build_boundary_charges(p, 2))
        rb.add_flag("symmetry.rr_n2_diagnostic", True, residual=worst_of((rp2, rm2)))

    E, F = GeneratorKind.E, GeneratorKind.F
    gl_small = [tower.gen(E, i) for i in range(2, n - 1)]
    gl_small += [tower.gen(F, i) for i in range(2, n - 1)]
    gl_small += [tower.t(i, i) for i in range(2, n)]
    gl_full = [tower.gen(E, i) for i in range(1, n)]
    gl_full += [tower.gen(F, i) for i in range(1, n)]
    gl_full += [tower.t(i, i) for i in range(1, n + 1)]
    lblock = spec.diag_block
    gl_pair = [tower.gen(E, i) for i in range(1, n) if i != lblock]
    gl_pair += [tower.gen(F, i) for i in range(1, n) if i != lblock]
    gl_pair += [tower.t(i, i) for i in range(1, n + 1)]

    lams = sample_spectral(rng, p, samples)
    for s, lam in enumerate(lams):
        t_open = build_transfer(hspec, lam).mat
        if gl_small:
            res = worst_of(comm_residual(t_open, gen) for gen in gl_small)
            rb.add(f"symmetry.prop42.s{s}", res, tol)
        res = worst_of(
            comm_residual(t_open, charges.entries[pos].mat) for pos in all_positions
        )
        rb.add(f"symmetry.prop43.s{s}", res, tol)

        res, size = affine_transfer_defect(hspec, lam, charges)
        rb.add(f"symmetry.com12.s{s}", res, tol)
        rb.add_flag(f"symmetry.com12_nonzero.s{s}", size > 1e-3, residual=size)

        t_aff = build_transfer(aspec, lam).mat
        rb.add(
            f"symmetry.fin_affine.s{s}", comm_residual(t_aff, charges.affine.mat), tol
        )
        if gl_small:
            res = worst_of(comm_residual(t_aff, gen) for gen in gl_small)
            rb.add(f"symmetry.fin_gl.s{s}", res, tol)
        if n == 3:
            size = comm_residual(t_aff, charges.entries[(1, 2)].mat)
            rb.add_flag(f"symmetry.fin_witness.s{s}", size > 1e-3, residual=size)

        t_triv = build_transfer(tspec, lam).mat
        res = worst_of(comm_residual(t_triv, gen) for gen in gl_full)
        rb.add(f"symmetry.trivial_k.s{s}", res, tol)

        t_diag = build_transfer(dspec, lam).mat
        res = worst_of(comm_residual(t_diag, gen) for gen in gl_pair)
        rb.add(f"symmetry.diagonal_k.s{s}", res, tol)

        kmat = build_k_explicit(p, lam, Gauge.homogeneous).mat
        res = worst_of(
            sym_residual(eval_Q_rep(p, pos, lam).mat @ kmat,
                         kmat @ eval_Q_rep(p, pos, -lam).mat)
            for pos in _charge_positions(n)
        )
        rb.add(f"symmetry.ik.s{s}", res, 1e-11)

        for name, value in exchange_relation_residuals(hspec, lam, charges).items():
            rb.add(f"symmetry.{name}.s{s}", value, tol)

    if n == 3 and N == 2:
        rb.add("symmetry.degeneracy", degeneracy_witness(charges), 1e-8)

    return rb.report()
