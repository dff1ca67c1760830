"""Closed and open spin chains in the fundamental representation.

The auxiliary space is always the first tensor slot. The monodromy matrix is
the ordered product T_0(lambda) = R_{0N} ... R_{01}, its inverse partner
That_0(lambda) = T_0(-lambda)^{-1}, and the double-row operator

    DR_0(lambda) = T_0(lambda) K^{(r)}_0(lambda) That_0(lambda)

solves the reflection equation with both indices auxiliary. Transfer matrices
are partial traces over slot 0: tr_0 T_0 for the closed chain and
tr_0 {M_0 K^{(l)}_0 DR_0} for the open one. Two independent Hamiltonian
routes are provided: the boundary-Hecke combination

    H = -1/2 sum_l rho(U_l) - sinh^2(i mu)/x(0) rho(U_0) + c

and the normalized derivative of the open transfer matrix at lambda = 0,
assembled analytically by the product rule over every lambda-dependent
factor. For the derivative route the inverse-monodromy factors are the
transposed R matrices (for this R the total transpose equals P R P), which
fixes the overall normalization that the closed form above expects. Since
R(-lambda)^{-1} = Rhat(lambda)/g(-lambda), that is g(-lambda)^N t(lambda),
whose finite difference is the cross-check. The Hecke form's local terms
(the two-site bulk term, the one-site boundary term and the constant) are
written once, in ``hamiltonian_terms``, where the spec and x(0) are checked.
Embedded with ``tensor_core.embed_entries`` and summed by
``tensor_core.coalesce`` they give one entry list (``_hamiltonian_entries``),
and every reader takes that list as it is: ``build_hamiltonian`` densifies
it, ``hamiltonian_blocks`` densifies one weight sector at a time (H keeps
the number of sites in each middle state 2..n-1), and ``hermitian_defect``
coalesces it with its adjoint; only the first forms a d x d matrix.
The spectrum's seminormal blocks read the coefficients
(``hamiltonian_coefficients``) alone.

The monodromy and the double row are built left to right by right-applying
their factors with ``tensor_core.apply_right``: each R_{0k} or K factor acts
on the auxiliary slot and at most one site, so it costs d^2 n^2 on the
d = n^(N+1) space and is never embedded as a d x d matrix. The transfer
matrices are grown from the inside out instead, as the coproduct recursion
DR_k = R_{0k} (DR_{k-1} (x) 1) Rhat_{0k} of the double row: from
Y_0 = K^{(r)}, N - 1 calls of ``tensor_core.site_step`` add sites 1..N-1,
and one more adds site N and traces the auxiliary slot against
M_0 K^{(l)}_0 (the closed chain takes Y_0, Rhat and M K^{(l)} to be the
identity). Each step is one GEMM of Y's auxiliary blocks against n^2-sided
coefficients of R and Rhat, and the largest matrix has side n^N. The
derivative route applies the product rule to those coefficients:
``site_step_derivative`` takes (Y, Y') to (v' Y + v Y') w + v Y w', next to
``site_step``'s v Y w, and closes both terms under one trace. This
inside-out order is independent of the left-to-right double row, so
comparing the transfer with its M-weighted diagonal blocks compares two
computations. The three intertwiner checks (boundary K, double row,
dressed coproduct) are one relation, S(lambda) X = X S(-lambda) read block
by block on a second auxiliary space, with S the
``reflection_k.reflection_sandwich``; they stay dense products of
embeddings.
"""

import cmath
import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .hecke_algebra import build_bulk_generator, rep_boundary, rep_bulk
from .params import DegenerateParameters, ModelParams
from .quantum_algebra import GeneratorKind, GeneratorLabel, intertwine_residual
from .reflection_k import (
    LeftBoundaryKind,
    build_k_ansatz,
    build_k_diagonal,
    build_k_explicit,
    build_k_left,
    reflection_residual,
    reflection_sandwich,
)
from .reporting import ReportBuilder, VerificationReport
from .sampling import rng_from_seed, sample_spectral
from .tensor_core import (
    RESIDUAL_FLOOR,
    Operator,
    apply_right,
    aux_blocks,
    coalesce,
    comm_residual,
    densify,
    embed_at,
    embed_entries,
    frob,
    identity_op,
    permutation_swap,
    rel_residual,
    rtt_residual,
    site_step,
    site_step_derivative,
    worst_of,
)
from .yang_baxter import (
    Gauge,
    build_M,
    build_gauge_V,
    build_r,
    build_r_inverse,
    unitarity_scalar,
)

RIGHT_FAMILIES = ("explicit", "ansatz", "diagonal", "trivial")


@dataclass(frozen=True)
class ChainSpec:
    """Chain configuration: model parameters plus boundary/gauge choices."""

    params: ModelParams
    gauge: Gauge = Gauge.homogeneous
    right_boundary: str = "explicit"
    left_boundary: LeftBoundaryKind = LeftBoundaryKind.identity
    diag_block: int = 1
    xi: complex = 0.35

    def __post_init__(self):
        if self.params.sites < 1:
            raise ValueError("need at least one site")
        if self.right_boundary not in RIGHT_FAMILIES:
            raise ValueError(f"unknown right boundary family {self.right_boundary!r}")
        if not cmath.isfinite(complex(self.xi)):
            raise ValueError(f"xi must be finite, got {self.xi}")
        try:
            finite = cmath.isfinite(cmath.sinh(1j * self.params.mu * self.xi))
        except OverflowError:
            finite = False
        if not finite:
            raise DegenerateParameters(
                f"sinh(i*mu*xi) overflows at mu={self.params.mu}, xi={self.xi}")
        if not 1 <= self.diag_block < self.params.n:
            raise ValueError(f"diagonal block {self.diag_block} out of range 1..{self.params.n - 1}")

    @property
    def space(self):
        return (self.params.n,) * (self.params.sites + 1)


def right_k(spec: ChainSpec, lam: complex) -> Operator:
    """Right boundary matrix in the gauge of the chain.

    Principal-gradation families are obtained from the homogeneous ones by
    the V(lambda) K V(lambda) dressing, which is how the published principal
    solution arises in the first place.
    """
    p = spec.params
    if spec.right_boundary == "explicit":
        return build_k_explicit(p, lam, spec.gauge)
    if spec.right_boundary == "ansatz":
        base = build_k_ansatz(p, lam)
    elif spec.right_boundary == "diagonal":
        base = build_k_diagonal(p, lam, spec.diag_block, spec.xi)
    else:
        base = identity_op([p.n])
    if spec.gauge == Gauge.principal:
        v = build_gauge_V(p, lam)
        return v @ base @ v
    return base


def left_k(spec: ChainSpec, lam: complex) -> Operator:
    """Left boundary matrix.

    In the principal gradation the left boundary is the gauge transport of
    the homogeneous one, with the crossing matrix M absorbed:
    V(-lambda) M K^{(l,h)}(lambda) V(-lambda). The principal transfer trace
    then carries no explicit M factor and reproduces the homogeneous transfer
    exactly, which is how the principal-gradation results follow from the
    homogeneous ones in the first place.
    """
    base = build_k_left(spec.params, lam, spec.left_boundary)
    if spec.gauge == Gauge.principal:
        v = build_gauge_V(spec.params, -lam)
        return v @ build_M(spec.params, Gauge.homogeneous) @ base @ v
    return base


def _on_sites(r: Operator, sites) -> list:
    """(r, slots) for ``r`` on (auxiliary, site) at each of ``sites`` in turn."""
    return [(r, [1, site + 1]) for site in sites]


def _site_product(factors, space) -> np.ndarray:
    """The ordered product of ``factors``, (operator, slots) pairs, each
    right-applied in turn, left to right, starting from the identity."""
    acc = np.eye(math.prod(space), dtype=np.complex128)
    for op, slots in factors:
        acc = apply_right(acc, op, slots, space)
    return acc


def build_monodromy(spec: ChainSpec, lam: complex) -> Operator:
    p = spec.params
    r = build_r(p, lam, spec.gauge)
    return Operator(_site_product(_on_sites(r, range(p.sites, 0, -1)), spec.space), spec.space)


def build_monodromy_hat(spec: ChainSpec, lam: complex, method: str = "inverse") -> Operator:
    """T(-lambda)^{-1}; either a direct matrix inverse or the ordered product
    of per-site closed-form inverses."""
    p = spec.params
    if method == "inverse":
        t = build_monodromy(spec, -lam)
        if np.linalg.cond(t.mat) > 1e12:
            raise DegenerateParameters(f"monodromy singular at lambda = {-lam}")
        return t.inv()
    if method == "per_site":
        rinv = build_r_inverse(p, -lam, spec.gauge)
        return Operator(_site_product(_on_sites(rinv, range(1, p.sites + 1)), spec.space),
                        spec.space)
    raise ValueError(f"unknown method {method!r}")


def build_double_row(spec: ChainSpec, lam: complex) -> Operator:
    """T K^{(r)} That, left to right: T's R factors, K^{(r)} on the auxiliary
    slot, then That's per-site inverses, each right-applied."""
    p = spec.params
    factors = _on_sites(build_r(p, lam, spec.gauge), range(p.sites, 0, -1))
    factors.append((right_k(spec, lam), [1]))
    factors += _on_sites(build_r_inverse(p, -lam, spec.gauge), range(1, p.sites + 1))
    return Operator(_site_product(factors, spec.space), spec.space)


def build_transfer(spec: ChainSpec, lam: complex, closed: bool = False) -> Operator:
    """tr_0 T for the closed chain, tr_0 {M_0 K^{(l)}_0 DR_0} for the open one,
    grown from the inside out: Y_0 = K^{(r)} (the identity when closed), then
    Y_k = R_{0k} (Y_{k-1} (x) 1) Rhat_{0k} for k < N (with no Rhat when
    closed), and the trace closes the last site against M K^{(l)}."""
    p = spec.params
    r = build_r(p, lam, spec.gauge)
    if closed:
        y, w, a = np.eye(p.n, dtype=np.complex128), identity_op(r.dims), identity_op([p.n])
    else:
        y, w = right_k(spec, lam).mat, build_r_inverse(p, -lam, spec.gauge)
        a = build_M(p, spec.gauge) @ left_k(spec, lam)
    for _ in range(p.sites - 1):
        y = site_step(y, r, w)
    return Operator(site_step(y, r, w, a), (p.n,) * p.sites)


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------


def _hamiltonian_constant(params: ModelParams) -> complex:
    sh = cmath.sinh(1j * params.mu)
    x0 = params.k_diag_x(0.0)
    xp0 = 2.0 * cmath.sinh(1j * params.mu * params.m)
    return -sh * xp0 / (4.0 * x0) - params.sites / 2.0 * cmath.cosh(1j * params.mu) - params.c0 / 2.0


def _require_homogeneous(spec: ChainSpec, what: str) -> None:
    if spec.gauge != Gauge.homogeneous:
        raise ValueError(f"{what} is defined in the homogeneous gradation")


def _require_hamiltonian_spec(spec: ChainSpec, what: str) -> None:
    """The Hamiltonian, and the transfer derivative it normalizes, belong to
    the homogeneous gradation with the identity left boundary and the
    non-diagonal right boundary; ``_factor_profiles`` hard-codes all three."""
    _require_homogeneous(spec, what)
    if spec.left_boundary != LeftBoundaryKind.identity:
        raise ValueError(f"{what} expects the identity left boundary")
    if spec.right_boundary not in ("ansatz", "explicit"):
        raise ValueError(f"{what} expects the non-diagonal right boundary")


def hamiltonian_coefficients(spec: ChainSpec) -> tuple[complex, complex, complex]:
    """The Hecke-form H = a sum_l rho(U_l) + b rho(U_0) + c as (a, b, c):
    a = -1/2, b = -sinh^2(i mu)/x(0) and the constant c. Raises on a spec
    the Hamiltonian does not belong to, and DegenerateParameters where x(0)
    vanishes."""
    params = spec.params
    _require_hamiltonian_spec(spec, "the Hamiltonian")
    params.require_hamiltonian_ok()
    sh = cmath.sinh(1j * params.mu)
    return -0.5, -(sh * sh / params.k_diag_x(0.0)), _hamiltonian_constant(params)


def hamiltonian_terms(spec: ChainSpec) -> tuple[Operator, Operator, complex]:
    """The local terms of the Hecke-form H as (bulk, boundary, c): the bulk
    term a rho(U_1) on two sites, which H carries on every bond, the
    boundary term b rho(U_0) on site 1, and the constant c on the diagonal,
    with (a, b, c) the ``hamiltonian_coefficients``. The bulk term is built
    even for one site, where no bond uses it."""
    a, b, c = hamiltonian_coefficients(spec)
    # each local term is its generator's representation on the smallest
    # chain that holds it: rho(U_1) on two sites, rho(U_0) on one
    bulk = rep_bulk(replace(spec.params, sites=2), 1) * a
    boundary = rep_boundary(replace(spec.params, sites=1)) * b
    return bulk, boundary, c


def _hamiltonian_entries(spec: ChainSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, vals) of the Hecke-form H on the N-site space, each
    (row, col) once, row-major: the ``hamiltonian_terms`` embedded and summed
    in the order the paper writes them, the N - 1 bulk terms in site order,
    the boundary term, then the constant on the diagonal."""
    bulk, boundary, const = hamiltonian_terms(spec)
    space = (spec.params.n,) * spec.params.sites
    terms = [embed_entries(bulk, [site, site + 1], space) for site in range(1, len(space))]
    terms.append(embed_entries(boundary, [1], space))
    diag = np.arange(math.prod(space))
    terms.append((diag, diag, np.full(diag.size, const)))
    return coalesce(terms, diag.size)


def hermitian_defect(spec: ChainSpec) -> float:
    """||H - H^dagger||_F / ||H||_F of the Hecke-form H, from its entries;
    no d x d matrix is formed. 0 when H vanishes."""
    rows, cols, vals = _hamiltonian_entries(spec)
    skew = coalesce([(rows, cols, vals), (cols, rows, -vals.conj())],
                    spec.params.n**spec.params.sites)[2]
    hnorm = np.linalg.norm(vals)
    return float(np.linalg.norm(skew) / hnorm) if hnorm else 0.0


def _weight_sectors(n: int, sites: int) -> np.ndarray:
    """Sector label (0, 1, ...) of each basis state of (C^n)^sites.

    A sector is the tuple of counts (c_2, ..., c_{n-1}) of sites in the
    middle states 2..n-1. The bulk Hecke generator only permutes the states
    of two sites and U_0 only mixes states 1 and n on site 1, so the Hecke-form
    H keeps every count. The label ranks the sorted site states with 1 and n
    merged; at n = 2 every state has the one label 0. A sector holds
    N!/(c_2! ... c_{n-1}! r!) 2^r states, with r = N - sum c.
    """
    digits = np.array(np.unravel_index(np.arange(n**sites), (n,) * sites))
    digits[digits == n - 1] = 0
    key = np.ravel_multi_index(np.sort(digits, axis=0), (n,) * sites)
    return np.unique(key, return_inverse=True)[1]


def hamiltonian_blocks(spec: ChainSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """The Hecke-form H as (basis indices, block) pairs, one per weight
    sector, with the indices ascending: H[ix_(idx, idx)] = block, and H is
    zero between sectors. Each block is assigned the sector's share of
    ``_hamiltonian_entries``, with no d x d matrix; an entry between two
    sectors raises RuntimeError."""
    p = spec.params
    rows, cols, vals = _hamiltonian_entries(spec)
    label = _weight_sectors(p.n, p.sites)
    sector_of = label[rows]
    if np.any(sector_of != label[cols]):
        raise RuntimeError("a Hamiltonian entry joins two weight sectors")
    basis = np.split(np.argsort(label, kind="stable"), np.cumsum(np.bincount(label))[:-1])
    position = np.empty(label.size, dtype=np.intp)
    out = []
    for sector, idx in enumerate(basis):
        position[idx] = np.arange(idx.size)
        sel = sector_of == sector
        out.append((idx, densify(idx.size, (position[rows[sel]], position[cols[sel]],
                                            vals[sel]))))
    return out


def build_hamiltonian(spec: ChainSpec, route: str = "hecke_form") -> Operator:
    p = spec.params
    if route == "hecke_form":
        return Operator(densify(p.n**p.sites, _hamiltonian_entries(spec)), (p.n,) * p.sites)
    if route == "transfer_derivative":
        p.require_hamiltonian_ok()
        sh = cmath.sinh(1j * p.mu)
        tr_m = cmath.sinh(1j * p.mu * p.n) / sh
        x0 = p.k_diag_x(0.0)
        pref = -(sh ** (-2 * p.sites + 1)) / (4.0 * x0 * tr_m)
        return pref * _transfer_derivative_analytic(spec)
    raise ValueError(f"unknown route {route!r}")


def _factor_profiles(spec: ChainSpec) -> tuple:
    """(value, derivative) at lambda = 0 of the factors of T K^{(r)} That, with
    That the product of transposed R matrices: the R_{0k} of T, the K^{(r)} on
    the auxiliary slot and the transposed R_{0k} of That. Every site has the
    same R profiles, so each pair is given once; with the identity left
    boundary these are all the factors of the open transfer product after
    M_0. The R pairs act on (auxiliary, site), the K pair on the auxiliary
    slot."""
    p = spec.params
    n = p.n
    sh = cmath.sinh(1j * p.mu)
    perm = permutation_swap(n)
    u = build_bulk_generator(p)
    r0 = sh * perm
    rd0 = perm @ (cmath.cosh(1j * p.mu) * identity_op((n, n)) + u)
    x0 = p.k_diag_x(0.0)
    xp0 = 2.0 * cmath.sinh(1j * p.mu * p.m)
    yp0 = 4.0 * sh
    mstar = rep_boundary(replace(p, sites=1))
    k0, kd0 = x0 * identity_op([n]), xp0 * identity_op([n]) + yp0 * mstar
    return (r0, rd0), (k0, kd0), (r0.transpose(), rd0.transpose())


def _transfer_derivative_analytic(spec: ChainSpec) -> Operator:
    """tr_0 of M_0 (prod of factors)' at lambda = 0, by the product rule
    grown from the inside out like ``build_transfer``: starting from
    (Y, Y') = (K, K'), each site's R pair (v, v') and transposed R pair
    (w, w') take (Y, Y') to (v Y w, (v' Y + v Y') w + v Y w') through
    ``site_step`` and ``site_step_derivative``; the last step traces against
    M_0. The factors are homogeneous R's with the explicit or ansatz right K
    and no left K, so any other spec raises ValueError."""
    _require_hamiltonian_spec(spec, "the transfer derivative")
    p = spec.params
    (v, dv), (k, dk), (w, dw) = _factor_profiles(spec)
    y, dy = k.mat, dk.mat
    for _ in range(p.sites - 1):
        y, dy = site_step(y, v, w), site_step_derivative(y, dy, (v, dv), (w, dw))
    m = build_M(p, spec.gauge)
    return Operator(site_step_derivative(y, dy, (v, dv), (w, dw), m), (p.n,) * p.sites)


def transfer_derivative_numeric(spec: ChainSpec) -> Operator:
    """Richardson-extrapolated central difference at zero of g(-lambda)^N
    t(lambda), the normalization the analytic product rule differentiates:
    That's factors R(-lambda)^{-1} = Rhat(lambda) / g(-lambda) lose their
    1/g, and for this R, Rhat is the total transpose. Homogeneous gradation
    only, as for the analytic route; a principal spec raises ValueError."""
    _require_homogeneous(spec, "the transfer derivative")
    h = 1e-4
    p = spec.params

    def scaled(u):
        return unitarity_scalar(p, -u) ** p.sites * build_transfer(spec, u).mat

    def central(step):
        return (scaled(step) - scaled(-step)) / (2.0 * step)

    d1 = central(h)
    d2 = central(h / 2.0)
    return Operator((4.0 * d2 - d1) / 3.0, (p.n,) * p.sites)


# ---------------------------------------------------------------------------
# Reflection-algebra realizations on the chain
# ---------------------------------------------------------------------------


def _intertwiner_residual(params: ModelParams, gauge: Gauge, k1: Operator, x: np.ndarray,
                          lamp: complex, lam: complex, dress=None) -> float:
    """S(lambda) X = X S(-lambda) read block by block on auxiliary space 1:
    the worst rel_residual(S_ij X, X S(-)_ij), where S(v) is the
    ``reflection_sandwich`` of ``k1`` = K(lambda') at v, dressed as
    T S That when ``dress`` = (T, That), and X acts on the remaining spaces."""

    def sandwich(v):
        out = reflection_sandwich(params, k1, lamp, v, gauge)
        return (out if dress is None else dress[0] @ out @ dress[1]).mat

    n = params.n
    plus, minus = aux_blocks(sandwich(lam), n), aux_blocks(sandwich(-lam), n)
    return worst_of(rel_residual(plus[i, :, j, :] @ x, x @ minus[i, :, j, :])
                    for i in range(n) for j in range(n))


def boundary_commutation_residual(
    params: ModelParams, k_of_lam, lamp: complex, lam: complex, gauge: Gauge = Gauge.homogeneous
) -> float:
    """The evaluated reflection-algebra elements R(lambda'-lambda) K_{a'}(lambda')
    Rhat(lambda'+lambda) on a' (x) s exchange with the c-number K(lambda)."""
    k1 = embed_at(k_of_lam(lamp), [1], (params.n, params.n))
    return _intertwiner_residual(params, gauge, k1, k_of_lam(lam).mat, lamp, lam)


def double_row_commutation_residual(spec: ChainSpec, lamp: complex, lam: complex) -> float:
    """The primed (N+1)-fold coproducts of the reflection algebra, realized
    with the double row DR_{a'}(lambda') on a' and the sites, exchange with
    DR(lambda)."""
    p = spec.params
    space, outer = (p.n,) * (p.sites + 2), [1] + list(range(3, p.sites + 3))
    k1 = embed_at(build_double_row(spec, lamp), outer, space)
    x = build_double_row(spec, lam).mat
    return _intertwiner_residual(p, spec.gauge, k1, x, lamp, lam)


def coproduct_commutation_residual(spec: ChainSpec, lamp: complex, lam: complex) -> float:
    """The unprimed-coproduct realization T_{a'}(lambda') R_{a's} K_{a'}
    Rhat_{a's} That_{a'}(lambda') exchanges with the c-number K on the
    evaluation site s."""
    p = spec.params
    space, outer = (p.n,) * (p.sites + 2), [1] + list(range(3, p.sites + 3))
    k1 = embed_at(right_k(spec, lamp), [1], space)
    dress = (embed_at(build_monodromy(spec, lamp), outer, space),
             embed_at(build_monodromy_hat(spec, lamp, "per_site"), outer, space))
    x = embed_at(right_k(spec, lam), [1], spec.space).mat
    return _intertwiner_residual(p, spec.gauge, k1, x, lamp, lam, dress)


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------


def _diagonal_block_sum(spec: ChainSpec, lam: complex, weights) -> Operator:
    """sum_j weights[j] DR_jj(lambda) over the auxiliary-diagonal blocks of
    the double row."""
    p = spec.params
    blocks = aux_blocks(build_double_row(spec, lam).mat, p.n)
    acc = sum(weights[j] * blocks[j, :, j, :] for j in range(p.n))
    return Operator(acc, (p.n,) * p.sites)


def transfer_from_diagonal(spec: ChainSpec, lam: complex) -> Operator:
    """M-weighted diagonal blocks of the double row; must reassemble the open
    transfer matrix when the left boundary is present only through M."""
    return _diagonal_block_sum(spec, lam, np.diag(build_M(spec.params, spec.gauge).mat))


def affine_limit_transfer_combination(spec: ChainSpec, lam: complex) -> Operator:
    """e^{-2l-imu} A_1 + e^{-2l} sum_{1<j<n} q^{-2j+1} A_j + e^{2l+imu} A_n from
    the double-row diagonal, the closed form the affine-limit left boundary
    produces."""
    p = spec.params
    weights = ([cmath.exp(-2 * lam - 1j * p.mu)]
               + [cmath.exp(-2 * lam) * p.q ** (-2 * j + 1) for j in range(2, p.n)]
               + [cmath.exp(2 * lam + 1j * p.mu)])
    return _diagonal_block_sum(spec, lam, weights)


def monodromy_asymptotic_residual(spec: ChainSpec) -> float:
    """Lower auxiliary blocks of e^{-N lambda} T vanish at large Re lambda in
    the homogeneous gradation; read at lambda = 15."""
    p = spec.params
    re_lambda = 15.0
    t = build_monodromy(spec, re_lambda).mat * cmath.exp(-p.sites * re_lambda)
    blocks = aux_blocks(t, p.n)
    return worst_of(frob(blocks[i, :, j, :]) for i in range(p.n) for j in range(i)) / frob(t)


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


def verify_chain_suite(
    spec: ChainSpec, samples: int = 5, tol: float = 1e-9, seed: int = 0
) -> VerificationReport:
    p = spec.params
    rng = rng_from_seed(seed)
    rb = ReportBuilder(
        "chain",
        {"n": p.n, "sites": p.sites, "samples": samples, "seed": seed, "tol": tol,
         "gauge": spec.gauge.value, "left": spec.left_boundary.value,
         "right": spec.right_boundary},
    )

    hspec0 = replace(spec, gauge=Gauge.homogeneous)
    pspec = replace(spec, gauge=Gauge.principal)
    ispec = replace(hspec0, left_boundary=LeftBoundaryKind.identity)
    aspec = replace(hspec0, left_boundary=LeftBoundaryKind.affine_limit)
    labels = [GeneratorLabel(kind, i) for kind in (GeneratorKind.E, GeneratorKind.F)
              for i in range(1, p.n + 1)]
    labels += [GeneratorLabel(GeneratorKind.KCARTAN, i) for i in range(1, p.n + 1)]

    for s in range(samples):
        l1, l2 = sample_spectral(rng, p, 2)
        t, that_ps = build_monodromy(spec, l1), build_monodromy_hat(spec, l1, "per_site")
        rb.add(f"chain.rtt.s{s}",
               rtt_residual(build_r(p, l1 - l2, spec.gauge), t, build_monodromy(spec, l2)), tol)
        that = build_monodromy_hat(spec, l1, "inverse")
        rb.add(f"chain.that_inverse.s{s}",
               rel_residual(that @ build_monodromy(spec, -l1), identity_op(spec.space)), 1e-12)
        rb.add(f"chain.that_methods.s{s}", rel_residual(that, that_ps), 1e-11)
        rb.add(f"chain.re_double.s{s}",
               reflection_residual(p, partial(build_double_row, spec), l1, l2, spec.gauge), tol)
        v0 = embed_at(build_gauge_V(p, l1), [1], spec.space)
        rb.add(f"chain.tp_gauge.s{s}",
               rel_residual(v0 @ build_double_row(hspec0, l1) @ v0, build_double_row(pspec, l1)),
               1e-11)
        rb.add(f"chain.tp_transfer.s{s}",
               rel_residual(build_transfer(pspec, l1), build_transfer(hspec0, l1)), 1e-11)
        rb.add(f"chain.ttcomm_closed.s{s}",
               comm_residual(build_transfer(spec, l1, closed=True),
                             build_transfer(spec, l2, closed=True)), tol)
        rb.add(f"chain.ttcomm_open.s{s}",
               comm_residual(build_transfer(spec, l1), build_transfer(spec, l2)), tol)
        rb.add(f"chain.intert.s{s}", worst_of(
            intertwine_residual(p, lab, t, l1, spec.gauge) for lab in labels), tol)
        rb.add(f"chain.intert_hat.s{s}", worst_of(
            intertwine_residual(p, lab, that_ps, -l1, spec.gauge, primed_left=False)
            for lab in labels), tol)
        rb.add(f"chain.bcomm.s{s}",
               boundary_commutation_residual(
                   p, lambda u: build_k_explicit(p, u, spec.gauge), l1, l2, spec.gauge),
               tol)
        rb.add(f"chain.it0.s{s}", double_row_commutation_residual(spec, l1, l2), tol)
        rb.add(f"chain.iik.s{s}", coproduct_commutation_residual(spec, l1, l2), tol)
        rb.add(f"chain.tr2.s{s}",
               rel_residual(build_transfer(ispec, l1), transfer_from_diagonal(ispec, l1)), 1e-13)
        rb.add(f"chain.tt3.s{s}",
               rel_residual(build_transfer(aspec, l1),
                            affine_limit_transfer_combination(aspec, l1)), 1e-13)

    rb.add("chain.asym", monodromy_asymptotic_residual(ispec), 1e-10)

    # transfer commutativity across boundary configurations
    l1, l2 = sample_spectral(rng, p, 2)
    combos = [(left, "explicit") for left in LeftBoundaryKind]
    combos += [(LeftBoundaryKind.identity, fam) for fam in ("ansatz", "diagonal", "trivial")]
    for left, fam in combos:
        cspec = replace(hspec0, right_boundary=fam, left_boundary=left)
        rb.add(f"chain.ttcomm_{left.name}_{fam}",
               comm_residual(build_transfer(cspec, l1), build_transfer(cspec, l2)), tol)

    # Hamiltonian routes
    hspec = ChainSpec(params=p, right_boundary="ansatz")
    try:
        p.require_hamiltonian_ok()
        h1 = build_hamiltonian(hspec, "hecke_form")
        h2 = build_hamiltonian(hspec, "transfer_derivative")
        res = rel_residual(h1, h2)
        rb.add("chain.hroutes", res, tol)
        if res > tol:
            alpha, beta, fit_res = _affine_fit(h1.mat, h2.mat)
            rb.add("chain.hroutes_affine", fit_res, tol, scalar=alpha)
        dt_an = _transfer_derivative_analytic(hspec)
        dt_fd = transfer_derivative_numeric(hspec)
        rb.add("chain.tderiv_fd", rel_residual(dt_an, dt_fd), 1e-7)
        lam = sample_spectral(rng, p, 1)[0]
        rb.add("chain.hcomm", comm_residual(h1, build_transfer(hspec, lam)), tol)
    except DegenerateParameters:
        rb.add_flag("chain.hroutes_skipped_degenerate", True)

    return rb.report()


def _affine_fit(a: np.ndarray, b: np.ndarray):
    """Least-squares alpha, beta with a ~ alpha b + beta I, for localizing a
    normalization slip between the two Hamiltonian routes."""
    eye = np.eye(a.shape[0], dtype=np.complex128)
    basis = np.stack([b.ravel(), eye.ravel()], axis=1)
    coef, *_ = np.linalg.lstsq(basis, a.ravel(), rcond=None)
    alpha, beta = coef
    res = np.linalg.norm(a - alpha * b - beta * eye) / max(np.linalg.norm(a), RESIDUAL_FLOOR)
    return alpha, beta, res
