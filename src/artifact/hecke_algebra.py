"""Bulk and boundary Hecke generators, their chain representations, and the
irreducible modules of the type-B Hecke algebra they generate.

The bulk generator U acts on C^n (x) C^n,

    U = sum_{i != j} ( e_ij (x) e_ji  -  q^{-sgn(i-j)} e_ii (x) e_jj ),

and satisfies U^2 = delta U with delta = -(q + q^{-1}), the braid relation
with its neighbours, and distant commutativity: the chain operators
rho(U_l) = U acting on sites (l, l+1) represent the quadratic Hecke algebra.

The boundary generator on C^n,

    U0 = -Q^{-1} e_11 - Q e_nn + e_1n + e_n1,        Q = i e^{i mu m},

is represented on site 1 after rescaling by 1/(2i sinh i mu). With that
rescaling the boundary quadratic, the mixed four-term relation and the
two-term quotient hold with delta0' = -sinh(i mu m)/sinh(i mu) and
kappa' = sinh(i mu (m-1))/sinh(i mu); the scale-invariant ratio
delta0/kappa is checked against the unrescaled constants as well.

The chain splits into irreducible modules of that algebra, whose matrices
are known in closed form in Hoefsmit's seminormal basis
(``seminormal_modules``); any combination of the generators, such as the
open Hamiltonian, has one block per module (``hecke_blocks``).
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .params import DegenerateParameters, ModelParams
from .reporting import ReportBuilder, VerificationReport
from .sampling import rng_from_seed, sample_model
from .tensor_core import (RESIDUAL_FLOOR, Operator, basis_matrix, comm_residual, embed_at,
                          frob, prop_check, sym_residual, weight_preserving)

__all__ = [
    "build_bulk_generator",
    "rep_bulk",
    "build_boundary_generator",
    "rep_boundary",
    "seminormal_modules",
    "hecke_blocks",
    "verify_hecke_suite",
]


def build_bulk_generator(params: ModelParams) -> Operator:
    q = params.q
    return weight_preserving(params.n, lambda i: 0.0,
                             lambda i, j: -q ** (-1 if i > j else 1), lambda i, j: 1.0)


def rep_bulk(params: ModelParams, l: int) -> Operator:
    """rho(U_l) acting on sites (l, l+1) of the N-site chain."""
    n, N = params.n, params.sites
    if not (1 <= l <= N - 1):
        raise ValueError(f"bulk generator index {l} out of range 1..{N-1}")
    return embed_at(build_bulk_generator(params), [l, l + 1], [n] * N)


def build_boundary_generator(params: ModelParams) -> Operator:
    n, Q = params.n, params.Q
    u0 = np.zeros((n, n), dtype=np.complex128)
    u0 -= (1.0 / Q) * basis_matrix(n, 1, 1)
    u0 -= Q * basis_matrix(n, n, n)
    u0 += basis_matrix(n, 1, n)
    u0 += basis_matrix(n, n, 1)
    return Operator(u0, (n,))


def rep_boundary(params: ModelParams) -> Operator:
    """rho(U_0): the rescaled boundary generator acting on site 1."""
    n, N = params.n, params.sites
    u0 = build_boundary_generator(params)
    return embed_at(u0, [1], [n] * N) * (1.0 / params.boundary_scale)


# ---------------------------------------------------------------------------
# seminormal representation of the type-B Hecke algebra
# ---------------------------------------------------------------------------

# Smallest |b - a|/|a| over the 2 x 2 blocks of the T_k below which the
# seminormal blocks are refused, by site count. Against 30-digit eigenvalues
# of the same blocks (mpmath), the blocks' eigenvalues leave 1e-11
# |lambda|_max + eps ||H||_2 kappa (kappa the eigenvalue's condition number
# in H) between these two separations: at n = 2, zeta = 0.6, m = 1 + i delta,
# 2.2e-3 and 4.4e-3 at N = 4, 2.2e-2 and 4.3e-2 at N = 5 and 6, 6.4e-2 and
# 8.4e-2 at N = 7 and 8, 0.15 and 0.16 at N = 9 (mu = 1.1; at mu = 0.41 below
# 2.5e-4, 4.9e-3, 1.6e-2, 3.2e-2 and 4.8e-2 for N = 4..8); at (3, 5) with
# mu = pi/4 + eps, 2.4e-3 and 8.0e-3. The gate sits over every crossing and
# under the CLI defaults' 0.169. N >= 10 is unmeasured against 30 digits; at
# N = 10 the blocks stay within a quarter of the dense eigensolve's bound at
# separations 0.17 to 0.33.
def _seminormal_gap(sites: int) -> float:
    return 0.1 if sites <= 8 else 0.16


class HeckeModule(NamedTuple):
    """One irreducible module S^(lambda1, lambda2) in Hoefsmit's seminormal
    basis, one basis vector per standard bitableau: ``jm[t, k - 1]`` is the
    Jucys-Murphy value L_k on bitableau t, ``generators[k - 1]`` the entry
    list (rows, cols, vals) of T_k, and ``multiplicity`` the number of
    copies of the module in (C^n)^N."""
    label: tuple
    jm: np.ndarray
    generators: list
    multiplicity: int


def _bitableaux(n: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The standard bitableaux of N boxes whose lambda1 has at most n - 1
    rows and lambda2 one row, as (words, lengths): word t gives the row of
    each letter 1..N (rows 0..n-2 are lambda1's, row n-1 is lambda2's), in
    lexicographic order, and lengths[t] its row lengths. A letter may start
    a component's first row or go below a longer row of its component."""
    words = np.zeros((1, 0), dtype=np.intp)
    lengths = np.zeros((1, n), dtype=np.intp)
    starts = np.isin(np.arange(n), (0, n - 1))
    for _ in range(N):
        word, row = np.nonzero(starts | (np.roll(lengths, 1, axis=1) > lengths))
        words = np.column_stack([words[word], row])
        lengths = lengths[word]
        lengths[np.arange(row.size), row] += 1
    return words, lengths


def _gl_dimension(shape: tuple, a: int) -> int:
    """dim V_shape(gl_a): the product over the boxes of (a + content)/hook."""
    cols = [sum(r > j for r in shape) for j in range(shape[0] if shape else 0)]
    boxes = [(i, j) for i, r in enumerate(shape) for j in range(r)]
    return (math.prod(a + j - i for i, j in boxes)
            // math.prod(shape[i] - j + cols[j] - i - 1 for i, j in boxes))


def seminormal_modules(params: ModelParams) -> list[HeckeModule]:
    """The irreducible modules of H_N(q; Q1, Q2) that (C^n)^N holds, in
    Hoefsmit's seminormal form (Ariki & Koike, Adv. Math. 106 (1994) 216).

    T_l = rho(U_l) + q satisfies (T_l - q)(T_l + 1/q) = 0, and
    T_0 = 2 sinh(i mu) rho(U_0') + Q1 satisfies (T_0 - Q1)(T_0 - Q2) = 0 and
    T_0 T_1 T_0 T_1 = T_1 T_0 T_1 T_0, with Q1 = e^{i mu m} and
    Q2 = e^{-i mu m}: on one site U_0 has the eigenvalue 0 on an
    (n - 1)-dimensional kernel and -(Q + 1/Q) once. By Schur-Weyl duality
    (C^n)^N is the sum of S^(lambda1, lambda2) (x) V_lambda1(gl_(n-1)) over
    the bipartitions of N with lambda1 of at most n - 1 rows and lambda2 of
    one row, Q1 labelling lambda1's component. The seminormal basis of S is
    indexed by the standard bitableaux t. The Jucys-Murphy elements
    L_1 = T_0, L_(k+1) = T_k L_k T_k act on it diagonally, L_k by
    Q_c q^(2 content) of the box holding k, c its component; so T_0 is
    diagonal. T_k is the scalar q where k and k + 1 share a row, -1/q where
    they share a column, and otherwise, with a = L_k and b = L_(k+1) on t,
    the 2 x 2 block on (t, s_k t) with diagonal alpha = (q - 1/q) b/(b - a)
    and delta = -(q - 1/q) a/(b - a), T_k t = alpha t + s_k t where k sits
    in the earlier row of t, and (alpha delta + 1) s_k t otherwise.

    The denominators b - a vanish on the non-semisimple locus: across the
    components where e^{2i mu (m + s)} = 1 for an integer s, and inside one
    (n >= 3 only) where q^(2d) = 1 with 2 <= d < N. Raises
    DegenerateParameters where some |b - a|/|a| is below
    ``_seminormal_gap(N)``, before dividing by it.
    """
    n, N, q, w = params.n, params.sites, params.q, params.w
    z = cmath.exp(1j * params.mu * params.m)
    words, lengths = _bitableaux(n, N)
    shapes, group = np.unique(lengths, axis=0, return_inverse=True)
    group = group.reshape(-1)
    codes = words @ n ** np.arange(N - 1, -1, -1)
    # the column of a letter is the number of letters before it in its row
    before = np.cumsum(words[:, :, None] == np.arange(n), axis=1)
    col = np.take_along_axis(before, words[:, :, None], 2)[:, :, 0] - 1
    lam1 = words < n - 1  # the letter is in lambda1
    jm = np.where(lam1, z, 1 / z) * q ** (2 * (col - np.where(lam1, words, 0)))
    out = []
    for g, shape in enumerate(shapes):
        sel = group == g
        t_words, t_codes, t_col, t_lam1, t_jm = (
            words[sel], codes[sel], col[sel], lam1[sel], jm[sel])
        every = np.arange(t_words.shape[0])
        generators = []
        for k in range(1, N):
            r1, r2, a, b = t_words[:, k - 1], t_words[:, k], t_jm[:, k - 1], t_jm[:, k]
            same_row = r1 == r2
            same_col = t_lam1[:, k - 1] & t_lam1[:, k] & (t_col[:, k - 1] == t_col[:, k])
            pair = np.flatnonzero(~(same_row | same_col))
            a, b, r1, r2 = a[pair], b[pair], r1[pair], r2[pair]
            gap = np.min(np.abs(b - a) / np.abs(a), initial=np.inf)
            if not gap >= _seminormal_gap(N):
                raise DegenerateParameters(
                    f"the Hecke algebra is near its non-semisimple locus, |b - a|/|a| = "
                    f"{gap:.2g}, at mu = {params.mu}, m = {params.m}")
            alpha, delta = w * b / (b - a), -w * a / (b - a)
            diag = np.where(same_row, q, -1 / q)
            diag[pair] = alpha
            swapped = t_codes[pair] + (r2 - r1) * (n ** (N - k) - n ** (N - k - 1))
            generators.append((np.concatenate([every, np.searchsorted(t_codes, swapped)]),
                               np.concatenate([every, pair]),
                               np.concatenate([diag, np.where(r1 < r2, 1, alpha * delta + 1)])))
        label = (tuple(int(r) for r in shape[:-1] if r), tuple(int(r) for r in shape[-1:] if r))
        out.append(HeckeModule(label, t_jm, generators, _gl_dimension(label[0], n - 1)))
    return out


def hecke_blocks(params: ModelParams) -> list[tuple[tuple, np.ndarray, np.ndarray, int]]:
    """(label, boundary, bulk, multiplicity) for each ``seminormal_modules``
    module: ``boundary`` is the diagonal of rho(U_0') = (T_0 - Q1)/(2 sinh(i mu))
    and ``bulk`` the matrix of sum_l (T_l - q) = sum_l rho(U_l), so any
    a sum_l rho(U_l) + b rho(U_0') + c acts on the module as
    a bulk + b diag(boundary) + c."""
    z = cmath.exp(1j * params.mu * params.m)
    out = []
    for module in seminormal_modules(params):
        side = module.jm.shape[0]
        bulk = np.zeros((side, side), dtype=np.complex128)
        for rows, cols, vals in module.generators:
            bulk[rows, cols] += vals
        bulk[np.diag_indices(side)] -= (params.sites - 1) * params.q
        out.append((module.label, (module.jm[:, 0] - z) / params.w, bulk, module.multiplicity))
    return out


# ---------------------------------------------------------------------------
# relation suite
# ---------------------------------------------------------------------------

# Smallest |kappa'| and |delta0'| (0 at m = 1 and m = 0) of the caller's
# parameters that the suite checks: near 0 the quotient relations cancel.
# Swept at N = 2, 3, n = 2..4 and four directions of m, the last failing
# |kappa'| is 4.0e-6 at mu = 0.41 and 1.3e-6 at mu = 1.1, the last failing
# |delta0'| 1.3e-6 and 5.0e-7; every point from 5.0e-6 on passes.
BOUNDARY_CONSTANT_GAP = 1e-5


def verify_hecke_suite(
    params: ModelParams,
    tol: float = 1e-10,
    samples: int = 5,
    seed: int = 0,
) -> VerificationReport:
    """Check every defining relation at `samples` random (mu, m) draws.

    The rank and site count come from `params`; the deformation and boundary
    parameters are resampled per instance so the relations are exercised at
    generic points, with `params` itself as instance s0, which is refused
    (DegenerateParameters) under ``BOUNDARY_CONSTANT_GAP``.
    """
    n, N = params.n, params.sites
    if N < 2:
        raise ValueError("relation suite needs at least two sites")
    for name, value in (("kappa'", params.kappa_rescaled), ("delta0'", params.delta0_rescaled)):
        if not abs(value) >= BOUNDARY_CONSTANT_GAP:
            raise DegenerateParameters(f"the hecke relations cancel: |{name}| = {abs(value):.1e}"
                                       f" is under BOUNDARY_CONSTANT_GAP = {BOUNDARY_CONSTANT_GAP}")
    rng = rng_from_seed(seed)
    rb = ReportBuilder(
        "hecke",
        {"n": n, "sites": N, "samples": samples, "seed": seed, "tol": tol},
    )

    draws = [params] + [sample_model(rng, n, N) for _ in range(max(0, samples - 1))]
    for s, p in enumerate(draws):
        bulk = [rep_bulk(p, l) for l in range(1, N)]
        bdry = rep_boundary(p)

        for l, ul in enumerate(bulk, start=1):
            rb.add(
                f"hecke.quad.s{s}l{l}",
                sym_residual(ul @ ul, p.delta * ul),
                tol,
            )
        for l in range(1, N - 1):
            a, b = bulk[l - 1], bulk[l]
            lhs = a @ b @ a - a
            rhs = b @ a @ b - b
            rb.add(
                f"hecke.braid.s{s}l{l}",
                frob(lhs - rhs) / max(frob(a), RESIDUAL_FLOOR),
                tol,
            )
        gens = {0: bdry, **{l: bulk[l - 1] for l in range(1, N)}}
        for la in gens:
            for lb in gens:
                if lb - la > 1:
                    rb.add(f"hecke.comm.s{s}l{la}l{lb}",
                           comm_residual(gens[la], gens[lb]), tol)

        rb.add(
            f"hecke.bquad.s{s}",
            sym_residual(bdry @ bdry, p.delta0_rescaled * bdry),
            tol,
        )

        u1 = bulk[0]
        kap = p.kappa_rescaled
        lhs = u1 @ bdry @ u1 @ bdry - kap * (u1 @ bdry)
        rhs = bdry @ u1 @ bdry @ u1 - kap * (bdry @ u1)
        # in this representation both sides vanish separately (the quotient
        # holds), so normalize by the size of the four-letter words rather
        # than by the near-zero sides themselves
        word_scale = max(frob(u1 @ bdry @ u1 @ bdry), abs(kap) * frob(u1 @ bdry))
        rb.add(f"hecke.mixed.s{s}", frob(lhs - rhs) / max(word_scale, RESIDUAL_FLOOR), tol)
        rb.add(
            f"hecke.quotient.s{s}",
            sym_residual(u1 @ bdry @ u1 @ bdry, kap * (u1 @ bdry)),
            tol,
        )
        rb.add(
            f"hecke.quotient_rev.s{s}",
            sym_residual(bdry @ u1 @ bdry @ u1, kap * (bdry @ u1)),
            tol,
        )

        # the rescaled kappa is also determined numerically from the quotient
        # and recorded (its value is not free: the delta0/kappa ratio is
        # renormalization-invariant)
        fit = prop_check(u1 @ bdry @ u1 @ bdry, u1 @ bdry)
        rb.add(
            f"hecke.kappa_fit.s{s}",
            abs(fit.scalar - kap) / max(abs(kap), RESIDUAL_FLOOR),
            tol,
            scalar=fit.scalar,
        )
        ratio_resc = p.delta0_rescaled / p.kappa_rescaled
        ratio_raw = p.delta0 / p.kappa
        rb.add(
            f"hecke.ratio.s{s}",
            abs(ratio_resc - ratio_raw) / abs(ratio_raw),
            1e-12,
            scalar=ratio_resc,
        )
    return rb.report()
