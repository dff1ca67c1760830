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
fixes the overall normalization that the closed form above expects.

Every ordered chain product is built by right-applying its factors with
``tensor_core.apply_right``: each R_{0k} or K factor acts on the auxiliary
slot and at most one site, so it costs d^2 n^2 on the d = n^(N+1) space and
is never embedded as a d x d matrix. The open transfer starts from
M_0 K^{(l)}_0 and right-applies the whole double row. The derivative route
carries the product rule forward: starting from (P, D) = (M_0, 0), each
factor (v, v') takes (P, D) to (P v, D v + P v'). The intertwiner checks on
two auxiliary spaces stay dense products of embeddings.
"""

import cmath
import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .hecke_algebra import build_boundary_generator, build_bulk_generator, rep_boundary, rep_bulk
from .params import DegenerateParameters, ModelParams
from .quantum_algebra import GeneratorKind, GeneratorLabel, intertwine_residual
from .reflection_k import (
    LeftBoundaryKind,
    build_k_ansatz,
    build_k_diagonal,
    build_k_explicit,
    build_k_left,
    reflection_residual,
)
from .reporting import ReportBuilder, VerificationReport
from .sampling import rng_from_seed, sample_spectral
from .tensor_core import (
    RESIDUAL_FLOOR,
    Operator,
    apply_right,
    aux_blocks,
    comm_residual,
    embed_at,
    frob,
    identity_op,
    partial_trace_first,
    permutation_swap,
    rel_residual,
    rtt_residual,
    worst_of,
)
from .yang_baxter import (
    Gauge,
    build_M,
    build_gauge_V,
    build_r,
    build_r_hat,
    build_r_inverse,
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


def _site_product(r: Operator, sites, space, start: np.ndarray | None = None) -> np.ndarray:
    """``start`` (the identity by default) times the ordered product of ``r``
    acting on (auxiliary, site) for each of ``sites`` in turn, left to right."""
    acc = np.eye(math.prod(space), dtype=np.complex128) if start is None else start
    for site in sites:
        acc = apply_right(acc, r, [1, site + 1], space)
    return acc


def build_monodromy(spec: ChainSpec, lam: complex) -> Operator:
    p = spec.params
    r = build_r(p, lam, spec.gauge)
    return Operator(_site_product(r, range(p.sites, 0, -1), spec.space), spec.space)


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
        return Operator(_site_product(rinv, range(1, p.sites + 1), spec.space), spec.space)
    raise ValueError(f"unknown method {method!r}")


def _double_row(spec: ChainSpec, lam: complex, start: np.ndarray | None = None) -> np.ndarray:
    """``start`` (the identity by default) times T K^{(r)} That, with every
    factor right-applied: T's R factors, K^{(r)} on the auxiliary slot, then
    That's per-site inverses."""
    p, space = spec.params, spec.space
    acc = _site_product(build_r(p, lam, spec.gauge), range(p.sites, 0, -1), space, start)
    acc = apply_right(acc, right_k(spec, lam), [1], space)
    rinv = build_r_inverse(p, -lam, spec.gauge)
    return _site_product(rinv, range(1, p.sites + 1), space, acc)


def build_double_row(spec: ChainSpec, lam: complex) -> Operator:
    return Operator(_double_row(spec, lam), spec.space)


def build_transfer(spec: ChainSpec, lam: complex, closed: bool = False) -> Operator:
    if closed:
        return partial_trace_first(build_monodromy(spec, lam))
    mk = build_M(spec.params, spec.gauge) @ left_k(spec, lam)
    start = embed_at(mk, [1], spec.space).mat
    return partial_trace_first(Operator(_double_row(spec, lam, start), spec.space))


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------


def _hamiltonian_constant(params: ModelParams) -> complex:
    sh = cmath.sinh(1j * params.mu)
    x0 = params.k_diag_x(0.0)
    xp0 = 2.0 * cmath.sinh(1j * params.mu * params.m)
    return -sh * xp0 / (4.0 * x0) - params.sites / 2.0 * cmath.cosh(1j * params.mu) - params.c0 / 2.0


def build_hamiltonian(spec: ChainSpec, route: str = "hecke_form") -> Operator:
    p = spec.params
    if spec.gauge != Gauge.homogeneous:
        raise ValueError("the Hamiltonian is defined in the homogeneous gradation")
    if spec.left_boundary != LeftBoundaryKind.identity:
        raise ValueError("the Hamiltonian expects the identity left boundary")
    if spec.right_boundary not in ("ansatz", "explicit"):
        raise ValueError("the Hamiltonian expects the non-diagonal right boundary")
    p.require_hamiltonian_ok()
    if route == "hecke_form":
        sh = cmath.sinh(1j * p.mu)
        x0 = p.k_diag_x(0.0)
        dim = p.n**p.sites
        h = np.zeros((dim, dim), dtype=np.complex128)
        for site in range(1, p.sites):
            h += -0.5 * rep_bulk(p, site).mat
        h += -(sh * sh / x0) * rep_boundary(p).mat
        h += _hamiltonian_constant(p) * np.eye(dim)
        return Operator(h, (p.n,) * p.sites)
    if route == "transfer_derivative":
        sh = cmath.sinh(1j * p.mu)
        tr_m = cmath.sinh(1j * p.mu * p.n) / sh
        x0 = p.k_diag_x(0.0)
        pref = -(sh ** (-2 * p.sites + 1)) / (4.0 * x0 * tr_m)
        return pref * _transfer_derivative_analytic(spec)
    raise ValueError(f"unknown route {route!r}")


def _factor_profiles(spec: ChainSpec) -> list:
    """(value, derivative, slots) at lambda = 0 of each factor of
    T K^{(r)} That, in order, with That the product of transposed R matrices.
    With the identity left boundary these are all the factors of the open
    transfer product after M_0. Each value and derivative is a one- or
    two-site operator acting on ``slots``."""
    p = spec.params
    n = p.n
    sh = cmath.sinh(1j * p.mu)
    perm = permutation_swap(n)
    u = build_bulk_generator(p)
    r0 = sh * perm
    rd0 = perm @ (cmath.cosh(1j * p.mu) * identity_op((n, n)) + u)
    rt0 = Operator(r0.mat.T.copy(), (n, n))
    rtd0 = Operator(rd0.mat.T.copy(), (n, n))
    x0 = p.k_diag_x(0.0)
    xp0 = 2.0 * cmath.sinh(1j * p.mu * p.m)
    yp0 = 4.0 * sh
    mstar = build_boundary_generator(p) * (1.0 / p.boundary_scale)
    factors = [(r0, rd0, [1, site + 1]) for site in range(p.sites, 0, -1)]
    factors.append((x0 * identity_op([n]), xp0 * identity_op([n]) + yp0 * mstar, [1]))
    factors += [(rt0, rtd0, [1, site + 1]) for site in range(1, p.sites + 1)]
    return factors


def _transfer_derivative_analytic(spec: ChainSpec) -> Operator:
    """tr_0 of M_0 (prod of factors)' at lambda = 0, by the product rule
    carried forward: starting from (P, D) = (M_0, 0), each factor (v, v')
    takes (P, D) to (P v, D v + P v')."""
    space = spec.space
    prod = embed_at(build_M(spec.params, spec.gauge), [1], space).mat
    der = np.zeros_like(prod)
    for val, dval, slots in _factor_profiles(spec):
        der = apply_right(der, val, slots, space) + apply_right(prod, dval, slots, space)
        prod = apply_right(prod, val, slots, space)
    return partial_trace_first(Operator(der, space))


def _open_transfer_transposed_route(spec: ChainSpec, lam: complex) -> Operator:
    """The open transfer with That assembled from transposed R factors, the
    normalization the derivative route differentiates."""
    p = spec.params
    space = spec.space
    r = build_r(p, lam, spec.gauge)
    rt = Operator(r.mat.T.copy(), (p.n, p.n))
    acc = embed_at(build_M(p, spec.gauge), [1], space).mat
    acc = _site_product(r, range(p.sites, 0, -1), space, acc)
    acc = apply_right(acc, right_k(spec, lam), [1], space)
    acc = _site_product(rt, range(1, p.sites + 1), space, acc)
    return partial_trace_first(Operator(acc, space))


def transfer_derivative_numeric(spec: ChainSpec) -> Operator:
    """Richardson-extrapolated central difference of the transposed-route
    transfer at zero; cross-check for the analytic product rule."""
    h = 1e-4

    def central(step):
        up = _open_transfer_transposed_route(spec, step)
        dn = _open_transfer_transposed_route(spec, -step)
        return (up.mat - dn.mat) / (2.0 * step)

    d1 = central(h)
    d2 = central(h / 2.0)
    return Operator((4.0 * d2 - d1) / 3.0, (spec.params.n,) * spec.params.sites)


# ---------------------------------------------------------------------------
# Reflection-algebra realizations on the chain
# ---------------------------------------------------------------------------


def _gensol_eval(params: ModelParams, k_of_lam, lamp: complex, lam: complex, gauge: Gauge) -> Operator:
    """R(lambda'-lambda) (K(lambda') (x) I) Rhat(lambda'+lambda): the
    evaluation image of the dynamical reflection matrix, on a' (x) s."""
    n = params.n
    space = (n, n)
    k0 = embed_at(k_of_lam(lamp), [1], space)
    return build_r(params, lamp - lam, gauge) @ k0 @ build_r_hat(params, lamp + lam, gauge)


def _blockwise_exchange_residual(plus, minus, k, n: int) -> float:
    """Worst rel_residual(plus_ij k, k minus_ij) over the auxiliary blocks."""
    bp, bm = aux_blocks(plus, n), aux_blocks(minus, n)
    return worst_of(
        rel_residual(bp[i, :, j, :] @ k, k @ bm[i, :, j, :])
        for i in range(n)
        for j in range(n)
    )


def boundary_commutation_residual(
    params: ModelParams, k_of_lam, lamp: complex, lam: complex, gauge: Gauge = Gauge.homogeneous
) -> float:
    """Entrywise exchange of the evaluated reflection-algebra elements with
    the c-number K matrix."""
    plus = _gensol_eval(params, k_of_lam, lamp, lam, gauge).mat
    minus = _gensol_eval(params, k_of_lam, lamp, -lam, gauge).mat
    return _blockwise_exchange_residual(plus, minus, k_of_lam(lam).mat, params.n)


def _double_row_intertwiner(spec: ChainSpec, lamp: complex, lam: complex) -> np.ndarray:
    """Realization of the primed (N+1)-fold coproducts of the reflection
    algebra: R_{a'a}(lambda'-lambda) DR_{a'}(lambda') Rhat_{a'a}(lambda'+lambda)
    on a' (x) a (x) quantum, returned as the full matrix."""
    p = spec.params
    n = p.n
    space = (n,) * (p.sites + 2)
    r1 = embed_at(build_r(p, lamp - lam, spec.gauge), [1, 2], space)
    dr = embed_at(build_double_row(spec, lamp), [1] + list(range(3, p.sites + 3)), space)
    r2 = embed_at(build_r_hat(p, lamp + lam, spec.gauge), [1, 2], space)
    return (r1 @ dr @ r2).mat


def double_row_commutation_residual(spec: ChainSpec, lamp: complex, lam: complex) -> float:
    """The double-row operator exchanges the realized reflection-algebra
    entries at lambda with the ones at -lambda."""
    plus = _double_row_intertwiner(spec, lamp, lam)
    minus = _double_row_intertwiner(spec, lamp, -lam)
    t = build_double_row(spec, lam).mat
    return _blockwise_exchange_residual(plus, minus, t, spec.params.n)


def _monodromy_sandwich(spec: ChainSpec, lamp: complex, lam: complex) -> np.ndarray:
    """Unprimed-coproduct realization: T_{a'}(lambda') R_{a's} K_{a'} Rhat_{a's}
    That_{a'}(lambda') with the quantum legs on the monodromy factors."""
    p = spec.params
    n = p.n
    space = (n,) * (p.sites + 2)
    quantum = [1] + list(range(3, p.sites + 3))
    t = embed_at(build_monodromy(spec, lamp), quantum, space)
    that = embed_at(build_monodromy_hat(spec, lamp, "per_site"), quantum, space)
    r1 = embed_at(build_r(p, lamp - lam, spec.gauge), [1, 2], space)
    k0 = embed_at(right_k(spec, lamp), [1], space)
    r2 = embed_at(build_r_hat(p, lamp + lam, spec.gauge), [1, 2], space)
    return (t @ r1 @ k0 @ r2 @ that).mat


def coproduct_commutation_residual(spec: ChainSpec, lamp: complex, lam: complex) -> float:
    """Same exchange property for the unprimed coproduct realization against
    the c-number K on the evaluation site."""
    plus = _monodromy_sandwich(spec, lamp, lam)
    minus = _monodromy_sandwich(spec, lamp, -lam)
    k = embed_at(right_k(spec, lam), [1], spec.space).mat
    return _blockwise_exchange_residual(plus, minus, k, spec.params.n)


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------


def transfer_from_diagonal(spec: ChainSpec, lam: complex) -> Operator:
    """Sum of M-weighted auxiliary-diagonal blocks of the double-row operator;
    must reassemble the open transfer matrix when the left boundary is present
    only through M."""
    p = spec.params
    blocks = aux_blocks(build_double_row(spec, lam).mat, p.n)
    weights = np.diag(build_M(p, spec.gauge).mat)
    acc = sum(weights[j] * blocks[j, :, j, :] for j in range(p.n))
    return Operator(acc, (p.n,) * p.sites)


def affine_limit_transfer_combination(spec: ChainSpec, lam: complex) -> Operator:
    """e^{-2l-imu} A_1 + e^{2l+imu} A_n + e^{-2l} sum_j q^{-2j+1} A_j from the
    double-row diagonal, the closed form the affine-limit left boundary
    produces."""
    p = spec.params
    blocks = aux_blocks(build_double_row(spec, lam).mat, p.n)
    q = p.q

    def block(j):
        return blocks[j, :, j, :]

    acc = cmath.exp(-2 * lam - 1j * p.mu) * block(0)
    acc = acc + cmath.exp(2 * lam + 1j * p.mu) * block(p.n - 1)
    for j in range(2, p.n):
        acc = acc + cmath.exp(-2 * lam) * q ** (-2 * j + 1) * block(j - 1)
    return Operator(acc, (p.n,) * p.sites)


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
