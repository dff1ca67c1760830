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

* the product Q = T+ K T-hat of the N-fold coproducts of the tower entries,
  K being the large-lambda limit of the explicit right K up to a scalar (the
  defining formulas, Sklyanin's coproduct of the reflection algebra),
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
count and first-site lambda (a plain value, 0.0 unless given, as in every
builder here) is read from one ``quantum_algebra.Tower``. A
``ChargeSet`` carries the tower its charges were read from, so every check
on the charge set (exchange relations, the affine defect, the block closed
forms, the braid exchange) reads the same images. The coproduct recursion
builds its own towers, one per (sites, first-site lambda) for a whole call
(the suite shares one such memo across its three recursion checks), and
never reads a ``ChargeSet``: it is the independent route. One least-squares
ray fit (``_ray_scalar``, ``_ray_defect``) serves both asymptotic read-offs.

Each route is one sum. The product route is Q_ij = sum_ab K[a, b] t_ia
t-hat_bj over the nonzeros of K, and the affine (n, n) charge, outside
T+ K T-hat, is one more sum of three tower products; each is one
``Tower.product_sum``, so how the tower stores its images stays inside it.
The recursion uses that the tower matrices factor over the first site and
the rest, so in the plain order Q_ij = sum_ab Q1_ab (x) t_ia t-hat_bj, with
the one-site closed forms ``eval_Q_rep`` on the first site and the (L-1)-site
tower entries on the rest; the primed order is the same sum with the legs
exchanged, the plain (L-1)-site charges on the rest. There the affine charge
keeps a two-term split. ``cyclic_shift`` stays an independent reference for
the primed order, and ``charge_block_closed`` holds the closed block forms of
the primed charges with one evaluated site.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import cache, partial
from typing import Callable

import numpy as np

from .hecke_algebra import build_bulk_generator, rep_boundary, rep_bulk
from .params import DegenerateParameters, ModelParams
from .quantum_algebra import (
    GeneratorKind,
    TElementFamily,
    TElementLabel,
    Tower,
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


def build_boundary_charges(
    params: ModelParams, N: int, first_site_lambda: complex = 0.0
) -> ChargeSet:
    """Assemble the full charge set as the product T+ K T-hat of one ``Tower``.

    Q_ij = sum_ab K[a, b] t_ia t-hat_bj over the nonzeros of K, the large-lambda
    limit of the explicit right K up to a scalar: 2 cosh(i mu m) at (1, 1), -i
    at (n, 1) and (1, n), e^{i mu m} on the interior diagonal. Only a >= i and
    b >= j contribute, t being upper and t-hat lower triangular. The affine
    (n, n) charge is quadratic in the last Cartan with both affine corners
    attached, -2 cosh(2 i mu zeta) t_nn t_nn - i t_nn t0-hat_1n - i t0_n1
    t-hat_nn; the boundary parameter zeta enters only there. All entries are
    spectral-parameter independent once the sites are fixed (the optional
    first-site evaluation point only matters for the affine corners). Each
    charge is one ``Tower.product_sum``, returned dense as its ``Operator``.
    """
    n = params.n
    tower = Tower(params, N, first_site_lambda)
    t, h = partial(TElementLabel, _T.t), partial(TElementLabel, _T.t_hat)
    em = cmath.exp(1j * params.mu * params.m)
    k_inf = {(1, 1): em + 1.0 / em, (n, 1): -1j, (1, n): -1j}
    k_inf.update({(a, a): em for a in range(2, n)})
    dims = (n,) * N
    entries = {
        (i, j): Operator(tower.product_sum(
            (c, t(i, a), h(b, j)) for (a, b), c in k_inf.items() if a >= i and b >= j), dims)
        for i, j in boundary_entry_indices(n)
    }
    c2 = 2.0 * cmath.cosh(2j * params.mu * params.zeta)
    affine = tower.product_sum((
        (-c2, t(n, n), t(n, n)),
        (-1j, t(n, n), TElementLabel(_T.t0hat_1n, 1, n)),
        (-1j, TElementLabel(_T.t0_n1, n, 1), h(n, n)),
    ))
    return ChargeSet(params=params, sites=N, entries=entries,
                     affine=Operator(affine, dims), tower=tower)


# ---------------------------------------------------------------------------
# single-site closed forms
# ---------------------------------------------------------------------------


def eval_Q_rep(params: ModelParams, which: tuple, lam: complex = 0.0) -> np.ndarray:
    """Single-site charge under the evaluation representation.

    The first row and column close in matrix units with simple boundary
    weights; the (1, n) and (n, 1) entries coincide and are group-like up to
    the scalar -i. Only the (n, n) entry remembers the evaluation point,
    through the affine corners. The interior block follows from the one-site
    tower entries t_ik = w E_ki, t-hat_ki = w E_ik (i < k) and t_ii = q^{E_ii}:
    e^{i mu m} w E_ji off the diagonal, e^{i mu m} (q^{2 E_ii} + w^2 sum_k
    E_kk, i < k < n) on it.
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
    elif i != j:
        mat = em * w * e(j, i)
    else:
        d = np.ones(n, dtype=np.complex128)
        d[i - 1] = q * q
        d[i:n - 1] += w * w
        mat = em * np.diag(d)
    return mat


# ---------------------------------------------------------------------------
# coproduct recursion
# ---------------------------------------------------------------------------


def coproduct_charges(
    params: ModelParams,
    L: int,
    which: tuple,
    variant: str = "delta",
    first_site_lambda: complex = 0.0,
) -> np.ndarray:
    """Charge on L sites through the one-site splitting of the coproduct.

    Reads the position ``which`` of ``_recursive_charges``. One call builds
    one ``Tower`` per (sites, first-site lambda) and shares it across every
    level.
    """
    n = params.n
    if which not in _charge_positions(n):
        raise ValueError(f"no boundary charge at position {which} for n={n}")
    if variant not in ("delta", "delta_prime"):
        raise ValueError(f"unknown coproduct variant {variant!r}")
    if L < 1:
        raise ValueError("need at least one tensor factor")
    tower = cache(partial(Tower, params))
    return _recursive_charges(params, L, variant, first_site_lambda, tower)[which]


def _recursive_charges(
    params: ModelParams,
    L: int,
    variant: str,
    first_site_lambda: complex,
    tower: Callable[[int, complex], Tower],
    affine_only: bool = False,
) -> dict:
    """Every charge on L sites, by position, through the reflection algebra's
    coproduct; ``tower(sites, first_site_lambda)`` returns the one memoized
    ``Tower`` of the whole call. With ``affine_only`` the dict holds the
    (n, n) charge alone.

    The tower matrices factor over the first site and the rest, T+ = T+_rest
    T+_first and T-hat = T-hat_first T-hat_rest, so the plain charge is
    Q_ij = sum_ab Q1_ab (x) t_ia t-hat_bj: the one-site closed forms
    ``eval_Q_rep`` on the first site, the entries of the (L-1)-site tower on
    the rest. The primed coproduct exchanges the legs: t_ia t-hat_bj of the
    first site (x) the plain (L-1)-site charge Q_ab. The affine (n, n) charge
    is outside that product and keeps its two-term split, written once for
    the charge leg x and the tower leg y. The plain order reads only the
    (n, n) charge of the rest, so it carries that one down.
    """
    n = params.n
    positions = ((n, n),) if affine_only else _charge_positions(n)
    one = {pos: eval_Q_rep(params, pos, first_site_lambda) for pos in positions}
    if L == 1:
        return one
    below = _recursive_charges(params, L - 1, "delta", 0.0, tower,
                               affine_only=affine_only or variant == "delta")
    first, rest = tower(1, first_site_lambda), tower(L - 1, 0.0)
    if variant == "delta":
        (qx, tx), (qy, ty), join = (one, first), (below, rest), np.kron
    else:
        (qx, tx), (qy, ty) = (below, rest), (one, first)

        def join(x, y):
            return np.kron(y, x)

    out = {} if affine_only else {
        (i, j): sum(join(qx[a, b], ty.t(i, a) @ ty.h(b, j))
                    for a, b in boundary_entry_indices(n) if a >= i and b >= j)
        for i, j in boundary_entry_indices(n)
    }
    c2 = 2.0 * cmath.cosh(2j * params.mu * params.zeta)
    corners_x = tx.t(1, 1) @ tx.t(n, n)
    out[n, n] = (join(qx[n, n] + c2 * corners_x, ty.t(n, n) @ ty.t(n, n))
                 + join(corners_x, qy[n, n]))
    return out


def cyclic_shift(n: int, N: int) -> np.ndarray:
    """Permutation bringing the last of N sites to the front.

    Conjugation by this operator realizes the primed coproduct when every
    site carries the same representation, which pins the primed recursion
    against the plain one without reusing any of its code.
    """
    c = np.eye(n**N, dtype=np.complex128)
    for k in range(1, N):
        c = c @ embed_at(permutation_swap(n), [k, k + 1], [n] * N).mat
    return c


def charge_block_closed(charges: ChargeSet, which: tuple, lam: complex) -> np.ndarray:
    """Block-matrix closed form of (pi_lam (x) pi_0^N) of a primed charge.

    ``which`` is (n, n), or (1, 1), (1, 2) or (2, 1) at n = 3 only; N is the
    site count of ``charges``. The blocks read the N-site charges by position
    and the Cartan squares from the set's tower.
    """
    p, tower = charges.params, charges.tower
    n, q, w = p.n, p.q, p.w
    if which not in ((1, 1), (1, 2), (2, 1), (n, n)):
        raise ValueError(f"no closed form for a charge at {which!r}")
    if which != (n, n) and n != 3:
        raise ValueError(f"Q at {which}: closed form is recorded for n=3 only")
    zero = np.zeros((n**charges.sites,) * 2, dtype=np.complex128)
    blocks = [[zero] * n for _ in range(n)]
    if which == (n, n):
        tnn = charges.charge(which)
        corner = tower.t(1, 1) @ tower.t(n, n)
        for k in range(n):
            blocks[k][k] = tnn
        blocks[n - 1][n - 1] = q * q * tnn
        blocks[0][n - 1] = -1j * cmath.exp(2 * lam) * q * w * corner
        blocks[n - 1][0] = -1j * cmath.exp(-2 * lam) * q * w * corner
        return np.block(blocks)
    t11, t12, t21 = (charges.charge(pos) for pos in ((1, 1), (1, 2), (2, 1)))
    e22sq = tower.t(2, 2) @ tower.t(2, 2)
    corners = tower.t(1, 1) @ tower.t(3, 3)
    em = cmath.exp(1j * p.mu * p.m)
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
    return np.block(blocks)


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
    t: np.ndarray, blk: dict, lam: complex, charges: ChargeSet
) -> tuple[float, float]:
    """Defect of the affine charge against the open transfer matrix.

    ``t`` is the open transfer matrix and ``blk`` the ``double_row_blocks``
    of its double row, both at ``lam`` on the sites of ``charges``. Returns
    the residual of the closed form, which involves only the extreme
    off-diagonal blocks of the double row, and the size of the commutator
    itself; both are relative to frob(t) frob(charge). The commutator must
    come out nonzero: the affine charge is genuinely outside the symmetry.
    """
    p = charges.params
    n = p.n
    tnn = charges.affine.mat
    e11enn = charges.tower.t(1, 1) @ charges.tower.t(n, n)
    closed = (
        2j * p.w * cmath.sinh(2 * lam + 1j * n * p.mu) * ((blk[1, n] - blk[n, 1]) @ e11enn)
    )
    scale = max(frob(t) * frob(tnn), RESIDUAL_FLOOR)
    return frob(t @ tnn - tnn @ t - closed) / scale, comm_residual(t, tnn)


def exchange_relation_residuals(blk: dict, lam: complex, charges: ChargeSet) -> dict:
    """Displayed exchange relations between double-row blocks and the
    unbroken quantum-group generators, grouped by display.

    ``blk`` holds the ``double_row_blocks`` at ``lam`` on the sites of
    ``charges``. The tower of ``charges``, on the chain's sites, supplies the coproducts
    of e_i, f_i and q^{+-h_i/2}, and the Cartan squares t(i, i); q^{1/2} is
    e^{i mu / 2}, the branch the tower's half Cartans take. Relations whose
    index range is empty at the given n are simply absent from the result;
    at n = 3 the middle-index family degenerates to the diagonal
    statements, which are kept.
    """
    p = charges.params
    n = p.n
    q = p.q
    w = p.w
    em = cmath.exp(1j * p.mu * p.m)
    qh = cmath.exp(1j * p.mu * 0.5)
    tower = charges.tower
    a_blk = {i: blk[(i, i)] for i in range(1, n + 1)}
    out: dict = {}

    E, F, H = GeneratorKind.E, GeneratorKind.F, GeneratorKind.HCARTAN
    tsum = np.zeros_like(a_blk[1])
    for idx in range(1, n + 1):
        tsum = tsum + q ** (n - 2 * idx + 1) * a_blk[idx]
    com2, com3, com4b = [], [], []
    com4 = [comm_residual(tower.t(jj, jj), a_blk[other])
            for jj in range(2, n) for other in range(1, n + 1)]
    for jj in range(2, n - 1):
        ecur, fcur = tower.gen(E, jj), tower.gen(F, jj)
        hp, hm = tower.gen(H, jj), tower.gen(H, jj, True)
        b = blk[(jj, jj + 1)]
        c = blk[(jj + 1, jj)]
        com2.append(sym_residual(ecur @ a_blk[jj] - a_blk[jj] @ ecur, -1.0 / qh * hm @ c))
        com2.append(sym_residual(ecur @ a_blk[jj + 1] - a_blk[jj + 1] @ ecur, qh * c @ hm))
        com3.append(sym_residual(fcur @ a_blk[jj] - a_blk[jj] @ fcur, 1.0 / qh * b @ hm))
        com3.append(sym_residual(fcur @ a_blk[jj + 1] - a_blk[jj + 1] @ fcur, -qh * hm @ b))
        for other in range(1, n + 1):
            if other not in (jj, jj + 1):
                com2.append(comm_residual(ecur, a_blk[other]))
                com3.append(comm_residual(fcur, a_blk[other]))
        com4.append(sym_residual(qh * hp @ b, 1.0 / qh * b @ hp))
        com4.append(sym_residual(1.0 / qh * hm @ b, qh * b @ hm))
        com4.append(sym_residual(1.0 / qh * hp @ c, qh * c @ hp))
        com4.append(sym_residual(qh * hm @ c, 1.0 / qh * c @ hm))
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
        com4b.append(frob(lhs_e - rhs_e) / den_e)
        lhs_f = fcur @ tsum - tsum @ fcur
        rhs_f = pref * (qh * b @ hm - 1.0 / qh * hm @ b)
        den_f = max(
            frob(fcur) * frob(tsum), abs(pref) * frob(hm) * frob(b), RESIDUAL_FLOOR
        )
        com4b.append(frob(lhs_f - rhs_f) / den_f)
    for name, res in (("com2", com2), ("com3", com3), ("com4", com4), ("com4b", com4b)):
        if res:
            out[name] = worst_of(res)

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
    res = worst_of(sym_residual(eval_Q_rep(p, pos, lam0), one_site.charge(pos))
                   for pos in _charge_positions(n))
    rb.add("symmetry.evalq", res, 1e-11)

    res = worst_of(
        sym_residual(eval_Q_rep(p, (i, 1), lam0), eval_Q_rep(p, (1, i), lam0).T)
        for i in range(2, n + 1)
    )
    rb.add("symmetry.evalq_transpose", res, 1e-12)

    # coproduct recursion against the product construction, both variants;
    # the recursion's towers are its own, shared by these three checks and
    # never the charge set's
    rec_tower = cache(partial(Tower, p))
    shift = cyclic_shift(n, N)
    shift_inv = shift.T  # permutation, so the transpose inverts it
    plain = _recursive_charges(p, N, "delta", 0.0, rec_tower)
    res = worst_of(sym_residual(plain[pos], charges.charge(pos))
                   for pos in _charge_positions(n))
    rb.add("symmetry.recursion", res, 1e-11)

    primed = _recursive_charges(p, N, "delta_prime", 0.0, rec_tower)
    res = worst_of(sym_residual(primed[pos], shift @ charges.charge(pos) @ shift_inv)
                   for pos in _charge_positions(n))
    rb.add("symmetry.recursion_prime", res, 1e-11)

    # block closed forms of the primed coproducts with one evaluated site
    evaluated = _recursive_charges(p, N + 1, "delta_prime", lam0, rec_tower, affine_only=n != 3)
    res = worst_of(
        sym_residual(evaluated[pos], charge_block_closed(charges, pos, lam0))
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
        blk = double_row_blocks(hspec, lam)
        if gl_small:
            res = worst_of(comm_residual(t_open, gen) for gen in gl_small)
            rb.add(f"symmetry.prop42.s{s}", res, tol)
        res = worst_of(
            comm_residual(t_open, charges.entries[pos].mat) for pos in all_positions
        )
        rb.add(f"symmetry.prop43.s{s}", res, tol)

        res, size = affine_transfer_defect(t_open, blk, lam, charges)
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
            sym_residual(eval_Q_rep(p, pos, lam) @ kmat,
                         kmat @ eval_Q_rep(p, pos, -lam))
            for pos in _charge_positions(n)
        )
        rb.add(f"symmetry.ik.s{s}", res, 1e-11)

        for name, value in exchange_relation_residuals(blk, lam, charges).items():
            rb.add(f"symmetry.{name}.s{s}", value, tol)

    if n == 3 and N == 2:
        try:
            rb.add("symmetry.degeneracy", degeneracy_witness(charges), 1e-8)
        except DegenerateParameters:
            rb.add_flag("symmetry.degeneracy_skipped_degenerate", True)

    return rb.report()
