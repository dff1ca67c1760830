"""Monodromy, double-row operators, transfer matrices, Hamiltonians.

Oracles here are built from scratch where feasible: explicit kron products
for small monodromies, a hand-assembled N=1 double row, finite differences
for the derivative route, dense eigensolves for commuting-family checks, and
products of embed_at embeddings for the right-applied chain builders.
"""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from artifact import (
    ModelParams, hecke_algebra, reflection_k, spin_chain, tensor_core, yang_baxter,
)
from artifact.params import DegenerateParameters
from artifact.hecke_algebra import rep_boundary, rep_bulk
from artifact.reflection_k import (
    LeftBoundaryKind,
    build_k_explicit,
    reflection_residual,
    reflection_sandwich,
)
from artifact.spin_chain import (
    RIGHT_FAMILIES,
    ChainSpec,
    affine_limit_transfer_combination,
    boundary_commutation_residual,
    build_double_row,
    build_hamiltonian,
    build_monodromy,
    build_monodromy_hat,
    build_transfer,
    double_row_commutation_residual,
    hamiltonian_blocks,
    hermitian_defect,
    monodromy_asymptotic_residual,
    transfer_from_diagonal,
    transfer_derivative_numeric,
    verify_chain_suite,
    _factor_profiles,
    _transfer_derivative_analytic,
    left_k,
    right_k,
)
from artifact.quantum_algebra import GeneratorKind, GeneratorLabel, intertwine_residual
from artifact.tensor_core import (
    Operator,
    commutator,
    embed_at,
    frob,
    identity_op,
    partial_trace_first,
    rel_residual,
    rtt_residual,
    sym_residual,
)
from artifact.yang_baxter import (
    Gauge,
    build_M,
    build_r,
    build_r_hat,
    build_r_inverse,
    unitarity_scalar,
)

P32 = ModelParams(n=3, mu=0.41, m=0.9 + 0.2j, zeta=0.6, sites=2)
P22 = ModelParams(n=2, mu=0.33, m=1.05 + 0.1j, zeta=0.47, sites=2)


def test_monodromy_single_site_is_r():
    p = ModelParams(n=3, mu=0.41, m=0.9, zeta=0.6, sites=1)
    lam = 0.27 - 0.14j
    assert rel_residual(build_monodromy(ChainSpec(p), lam), build_r(p, lam)) < 1e-15


def test_monodromy_two_sites_explicit_product():
    lam = 0.31
    r = build_r(P32, lam).mat
    # R_{02} then R_{01}: build both embeddings by hand with reshapes
    eye = np.eye(3)
    r01 = np.kron(r, eye)
    r02 = np.einsum("ikjl,ab->iakjbl", r.reshape(3, 3, 3, 3), eye).reshape(27, 27)
    want = r02 @ r01
    assert rel_residual(build_monodromy(ChainSpec(P32), lam), want) < 1e-15


def test_monodromy_hat_is_inverse():
    lam = 0.22 + 0.09j
    t = build_monodromy(ChainSpec(P32), -lam).mat
    hat = build_monodromy_hat(ChainSpec(P32), lam).mat
    assert rel_residual(hat @ t, np.eye(27)) < 1e-13
    per = build_monodromy_hat(ChainSpec(P32), lam, "per_site")
    assert rel_residual(per.mat, hat) < 1e-12
    with pytest.raises(ValueError):
        build_monodromy_hat(ChainSpec(P32), lam, "nope")


def test_double_row_single_site_trivial_k():
    # with K^(r) = I and N = 1 the double row is R(lam) R(-lam)^{-1}
    p = ModelParams(n=2, mu=0.33, m=1.05, zeta=0.47, sites=1)
    spec = ChainSpec(p, right_boundary="trivial")
    lam = 0.19
    want = build_r(p, lam).mat @ np.linalg.inv(build_r(p, -lam).mat)
    assert rel_residual(build_double_row(spec, lam), want) < 1e-13


def test_open_transfer_matches_hand_assembly():
    # assemble tr0 {M0 DR} by explicit block sum for the identity left boundary
    spec = ChainSpec(P32)
    lam = 0.24 - 0.17j
    dr = build_double_row(spec, lam).mat
    q = cmath.exp(0.41j)
    weights = [q**2, 1.0, q**-2]
    acc = np.zeros((9, 9), dtype=complex)
    for j in range(3):
        acc += weights[j] * dr[j * 9:(j + 1) * 9, j * 9:(j + 1) * 9]
    got = build_transfer(spec, lam)
    assert rel_residual(got, acc) < 1e-14
    assert rel_residual(got, transfer_from_diagonal(spec, lam, spin_chain._Built())) < 1e-14


def test_transfer_families_commute():
    rng = np.random.default_rng(42)
    for spec in (
        ChainSpec(P32),
        ChainSpec(P32, right_boundary="diagonal"),
        ChainSpec(P32, left_boundary=LeftBoundaryKind.transpose_shift),
        ChainSpec(P22, left_boundary=LeftBoundaryKind.affine_limit),
    ):
        for _ in range(3):
            l1, l2 = rng.uniform(-0.6, 0.6, 2) + 1j * rng.uniform(-0.4, 0.4, 2)
            t1 = build_transfer(spec, l1)
            t2 = build_transfer(spec, l2)
            res = frob(commutator(t1, t2)) / (frob(t1) * frob(t2))
            assert res < 1e-12, (spec.right_boundary, spec.left_boundary, res)


def test_closed_transfer_commutes():
    spec = ChainSpec(P32)
    t1 = build_transfer(spec, 0.37, closed=True)
    t2 = build_transfer(spec, -0.21 + 0.3j, closed=True)
    assert frob(commutator(t1, t2)) / (frob(t1) * frob(t2)) < 1e-13


def test_affine_limit_combination():
    spec = ChainSpec(P32, left_boundary=LeftBoundaryKind.affine_limit)
    lam = 0.29 + 0.11j
    assert rel_residual(build_transfer(spec, lam),
                        affine_limit_transfer_combination(spec, lam, spin_chain._Built())) < 1e-13


def test_principal_transfer_equals_homogeneous():
    pspec = ChainSpec(P32, gauge=Gauge.principal)
    hspec = ChainSpec(P32)
    for lam in (0.2, -0.35 + 0.22j):
        assert rel_residual(build_transfer(pspec, lam), build_transfer(hspec, lam)) < 1e-12


def test_hamiltonian_routes_agree():
    for p in (P22, P32, ModelParams(n=3, mu=0.29, m=0.6 - 0.1j, zeta=0.8, sites=3)):
        spec = ChainSpec(p, right_boundary="ansatz")
        h1 = build_hamiltonian(spec, "hecke_form")
        h2 = build_hamiltonian(spec, "transfer_derivative")
        assert rel_residual(h1, h2) < 1e-12


def test_hamiltonian_hecke_structure():
    # N=2: H = -1/2 rho(U_1) - sinh^2(imu)/x(0) rho(U_0) + c; rebuild by hand
    p = P32
    spec = ChainSpec(p, right_boundary="ansatz")
    h = build_hamiltonian(spec, "hecke_form").mat
    sh = cmath.sinh(1j * p.mu)
    x0 = cmath.cosh(1j * p.mu * p.m) - cmath.cosh(2j * p.mu * p.zeta)
    c = (-sh * 2.0 * cmath.sinh(1j * p.mu * p.m) / (4 * x0)
         - 1.0 * cmath.cosh(1j * p.mu)
         + cmath.sinh(1j * p.mu * 2) / (2 * cmath.sinh(1j * p.mu * 3)))
    want = (-0.5 * rep_bulk(p, 1).mat
            - (sh * sh / x0) * rep_boundary(p).mat
            + c * np.eye(9))
    assert rel_residual(h, want) < 1e-14


def test_hamiltonian_commutes_with_transfer():
    spec = ChainSpec(P32, right_boundary="ansatz")
    h = build_hamiltonian(spec, "hecke_form")
    t = build_transfer(spec, 0.41 - 0.2j)
    assert frob(commutator(h, t)) / (frob(h) * frob(t)) < 1e-13


def test_hamiltonian_guards():
    with pytest.raises(ValueError):
        build_hamiltonian(ChainSpec(P32, right_boundary="diagonal"), "hecke_form")
    with pytest.raises(ValueError):
        build_hamiltonian(ChainSpec(P32, gauge=Gauge.principal), "hecke_form")
    with pytest.raises(ValueError):
        build_hamiltonian(ChainSpec(P32), "third_route")
    # boundary-degenerate parameters: x(0) = 0 at cosh(imu m) = cosh(2imu zeta)
    bad = ModelParams(n=3, mu=0.41, m=1.2, zeta=0.6, sites=2)
    with pytest.raises(DegenerateParameters):
        build_hamiltonian(ChainSpec(bad, right_boundary="ansatz"), "hecke_form")


@pytest.mark.parametrize("left,right", [
    (LeftBoundaryKind.identity, "diagonal"),
    (LeftBoundaryKind.identity, "trivial"),
    (LeftBoundaryKind.affine_limit, "explicit"),
    (LeftBoundaryKind.transpose_shift, "explicit"),
])
def test_transfer_derivative_refuses_boundaries_it_does_not_differentiate(left, right):
    # the product rule has no left K and only the explicit or ansatz right K;
    # on these specs it read 2.34, 1.10, 0.41 and 6.51 relative off the
    # finite difference instead of raising
    spec = ChainSpec(P32, left_boundary=left, right_boundary=right)
    with pytest.raises(ValueError, match="the transfer derivative expects"):
        _transfer_derivative_analytic(spec)


# The Hecke-form H from dense embed_at embeddings, summed the way the paper
# writes it; the index-array builders are checked against it.
HECKE_ORACLE_SIZES = [(n, sites) for n in range(2, 6) for sites in range(1, 10)
                      if n**sites <= 729]


def _dense_hecke_hamiltonian(p):
    sh = cmath.sinh(1j * p.mu)
    h = spin_chain._hamiltonian_constant(p) * np.eye(p.n**p.sites)
    h = h - (sh * sh / p.k_diag_x(0.0)) * rep_boundary(p).mat
    return h - 0.5 * sum(rep_bulk(p, site).mat for site in range(1, p.sites))


def _scattered(blocks, dim):
    h = np.zeros((dim, dim), dtype=np.complex128)
    for idx, block in blocks:
        h[np.ix_(idx, idx)] = block
    return h


@pytest.mark.parametrize("n,sites", HECKE_ORACLE_SIZES)
def test_hamiltonian_blocks_match_the_dense_oracle(n, sites):
    p = _oracle_params(n, sites)
    dim = n**sites
    want = _dense_hecke_hamiltonian(p)
    for right in ("ansatz", "explicit"):
        spec = ChainSpec(p, right_boundary=right)
        blocks = hamiltonian_blocks(spec)
        assert sum(idx.size for idx, _ in blocks) == dim
        assert np.array_equal(np.sort(np.concatenate([idx for idx, _ in blocks])), np.arange(dim))
        assert rel_residual(_scattered(blocks, dim), want) <= 1e-14
        assert rel_residual(build_hamiltonian(spec, "hecke_form"), want) <= 1e-14
        # each (row, col) once, row-major, so the dense H and the sector
        # blocks are the same assignment of one list
        rows, cols, _ = spin_chain._hamiltonian_entries(spec)
        assert np.all(np.diff(rows * dim + cols) > 0)
        assert np.array_equal(_scattered(blocks, dim), build_hamiltonian(spec).mat)


@pytest.mark.parametrize("n,sites", [(3, 4), (4, 3), (2, 6)])
def test_blockwise_eigenvalues_match_the_dense_eigensolve(n, sites):
    p = _oracle_params(n, sites)
    h = _dense_hecke_hamiltonian(p)
    dense = np.linalg.eigvals(h)
    blockwise = np.concatenate([np.linalg.eigvals(block)
                                for _, block in hamiltonian_blocks(ChainSpec(p))])
    # the two multisets, paired so that the largest distance is least
    i, j = linear_sum_assignment(np.abs(dense[:, None] - blockwise[None, :]))
    assert np.max(np.abs(dense[i] - blockwise[j])) <= 1e-10 * np.linalg.norm(h)


@pytest.mark.parametrize("n,sites", [(2, 1), (2, 6), (3, 1), (3, 4), (4, 3)])
def test_hermitian_defect_equals_the_dense_formula(n, sites):
    p = ModelParams(n=n, mu=0.37 + 0.05j, m=1.1 - 0.3j, zeta=0.7, sites=sites)
    h = build_hamiltonian(ChainSpec(p)).mat
    want = np.linalg.norm(h - h.conj().T) / np.linalg.norm(h)
    assert abs(hermitian_defect(ChainSpec(p)) - want) <= 1e-14 * want


def test_one_site_hamiltonian_builds_no_bulk_generator(monkeypatch):
    # U has side n^2 whether or not a bond uses it: 4 PiB at n = 4096
    def refuse(params):
        raise AssertionError("bulk generator built for a chain with no bond")

    monkeypatch.setattr(spin_chain, "build_bulk_generator", refuse)
    p = _oracle_params(3, 1)
    blocks = hamiltonian_blocks(ChainSpec(p))
    assert rel_residual(_scattered(blocks, 3), _dense_hecke_hamiltonian(p)) <= 1e-14


def test_hamiltonian_blocks_refuse_an_entry_between_sectors(monkeypatch):
    # states |1 1> and |1 2> of (C^3)^2 have different middle-state counts
    inner = spin_chain._hamiltonian_entries

    def leaky(spec):
        rows, cols, vals = inner(spec)
        return np.append(rows, 0), np.append(cols, 1), np.append(vals, 1.0)

    monkeypatch.setattr(spin_chain, "_hamiltonian_entries", leaky)
    with pytest.raises(RuntimeError, match="two weight sectors"):
        hamiltonian_blocks(ChainSpec(P32))


def test_transfer_derivative_matches_finite_difference():
    spec = ChainSpec(P32, right_boundary="ansatz")
    an = _transfer_derivative_analytic(spec)
    fd = transfer_derivative_numeric(spec)
    assert rel_residual(an, fd) < 1e-8


@pytest.mark.parametrize("route", [_transfer_derivative_analytic, transfer_derivative_numeric])
def test_transfer_derivative_refuses_the_principal_gradation(route):
    # the analytic route differentiates homogeneous R factors; on a principal
    # spec the two routes would disagree (0.27 relative here) instead
    with pytest.raises(ValueError, match="homogeneous gradation"):
        route(ChainSpec(P32, right_boundary="explicit", gauge=Gauge.principal))


def test_monodromy_intertwining():
    spec = ChainSpec(P32)
    lam = 0.33 - 0.12j
    t = build_monodromy(spec, lam)
    for lab in (GeneratorLabel(GeneratorKind.E, 1), GeneratorLabel(GeneratorKind.E, 3),
                GeneratorLabel(GeneratorKind.F, 2), GeneratorLabel(GeneratorKind.KCARTAN, 3)):
        assert intertwine_residual(P32, [lab], t, lam, spec.gauge) < 1e-13


def test_boundary_commutation():
    res = boundary_commutation_residual(
        P32, lambda u: build_k_explicit(P32, u, Gauge.homogeneous), 0.43, 0.21 - 0.1j)
    assert res < 1e-13
    # a non-solution of the reflection equation must not pass: swap one corner
    def broken(u):
        k = build_k_explicit(P32, u, Gauge.homogeneous).mat.copy()
        k[0, 2] = 0.0
        from artifact.tensor_core import Operator
        return Operator(k, (3,))
    assert boundary_commutation_residual(P32, broken, 0.43, 0.21 - 0.1j) > 1e-3


def test_double_row_commutation():
    assert double_row_commutation_residual(ChainSpec(P32), 0.37, 0.18 + 0.09j,
                                           spin_chain._Built()) < 1e-13


def test_double_row_commutation_fails_for_a_double_row_at_the_wrong_lambda(monkeypatch):
    spec = ChainSpec(P32)
    lamp, lam = 0.37, 0.18 + 0.09j
    assert double_row_commutation_residual(spec, lamp, lam, spin_chain._Built()) < 1e-13
    right = spin_chain.build_double_row
    monkeypatch.setattr(spin_chain, "build_double_row",
                        lambda s, u: right(s, u + 0.25 if u == lam else u))
    assert double_row_commutation_residual(spec, lamp, lam, spin_chain._Built()) > 1e-3


def test_monodromy_asymptotics():
    assert monodromy_asymptotic_residual(ChainSpec(P32)) < 1e-10
    # the asymptotic aux matrix is block upper triangular with the dressed
    # coproduct images on the diagonal; check the (1,1) block against a kron
    p = P32
    lam = 15.0
    t = build_monodromy(ChainSpec(p), lam).mat * math.exp(-p.sites * lam)
    q = cmath.exp(1j * p.mu)
    d11 = np.diag([q, 1, 1])
    want = 0.25 * np.kron(d11, d11)
    assert rel_residual(t[0:9, 0:9], want) < 1e-10


def test_verify_chain_suite():
    rep = verify_chain_suite(ChainSpec(P32), samples=2, tol=1e-9, seed=1)
    assert rep.passed, [c.id for c in rep.failing()]
    prep = verify_chain_suite(ChainSpec(P32, gauge=Gauge.principal),
                              samples=2, tol=1e-9, seed=2)
    assert prep.passed, [c.id for c in prep.failing()]


def test_verify_chain_suite_builds_each_chain_operator_once(monkeypatch):
    # one default call: every double row, monodromy (either route of That
    # included) and transfer matrix is built at most once per argument list
    calls = {}
    for name in ("build_double_row", "build_monodromy", "build_monodromy_hat", "build_transfer"):
        inner = getattr(spin_chain, name)

        def counted(*args, name=name, inner=inner, **kwargs):
            key = (name, *args, *sorted(kwargs.items()))
            calls[key] = calls.get(key, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(spin_chain, name, counted)
    assert verify_chain_suite(ChainSpec(P32)).passed
    repeated = {key: count for key, count in calls.items() if count > 1}
    assert not repeated, repeated
    assert {key[0] for key in calls} == {"build_double_row", "build_monodromy",
                                         "build_monodromy_hat", "build_transfer"}


def test_shared_chain_operators_are_built_once_and_read_only():
    built = spin_chain._Built()
    spec, lam = ChainSpec(P32), 0.31 - 0.12j
    dr = built(build_double_row, spec, lam)
    assert built(build_double_row, spec, lam) is dr
    assert built(build_double_row, ChainSpec(P32), lam) is dr
    assert built(build_double_row, spec, -lam) is not dr
    assert np.array_equal(dr.mat, build_double_row(spec, lam).mat)
    for op in (dr, built(build_transfer, spec, lam), built(build_monodromy, spec, lam)):
        with pytest.raises(ValueError):
            op.mat[0, 0] = 1.0
        with pytest.raises(ValueError):
            op.mat += 1.0


# Dense oracles: every factor embedded on the whole space with embed_at and
# multiplied out, the way the chain products were formed before the
# right-applied contraction engine and the inside-out transfer builders.
ORACLE_SIZES = ((2, 1), (3, 1), (2, 3), (3, 2), (4, 2))


def _oracle_params(n, sites):
    return ModelParams(n=n, mu=0.41, m=0.9 + 0.2j, zeta=0.6, sites=sites)


def _dense_double_row(spec, lam):
    p, space = spec.params, spec.space
    r = build_r(p, lam, spec.gauge)
    rinv = build_r_inverse(p, -lam, spec.gauge)
    acc = identity_op(space)
    for site in range(p.sites, 0, -1):
        acc = acc @ embed_at(r, [1, site + 1], space)
    acc = acc @ embed_at(right_k(spec, lam), [1], space)
    for site in range(1, p.sites + 1):
        acc = acc @ embed_at(rinv, [1, site + 1], space)
    return acc


def _dense_transfer(spec, lam):
    m0 = embed_at(build_M(spec.params, spec.gauge), [1], spec.space)
    kl0 = embed_at(left_k(spec, lam), [1], spec.space)
    return partial_trace_first(m0 @ kl0 @ _dense_double_row(spec, lam))


def _dense_closed_transfer(spec, lam):
    p, space = spec.params, spec.space
    r = build_r(p, lam, spec.gauge)
    acc = identity_op(space)
    for site in range(p.sites, 0, -1):
        acc = acc @ embed_at(r, [1, site + 1], space)
    return partial_trace_first(acc)


def _dense_transfer_derivative(spec):
    space, sites = spec.space, spec.params.sites
    (r, dr), (k, dk), (rt, drt) = _factor_profiles(spec)
    factors = [(r, dr, [1, site + 1]) for site in range(sites, 0, -1)]
    factors.append((k, dk, [1]))
    factors += [(rt, drt, [1, site + 1]) for site in range(1, sites + 1)]
    vals = [embed_at(v, slots, space) for v, _, slots in factors]
    ders = [embed_at(dv, slots, space) for _, dv, slots in factors]
    prefix = [identity_op(space)]
    for v in vals:
        prefix.append(prefix[-1] @ v)
    suffix = [identity_op(space)]
    for v in reversed(vals):
        suffix.append(v @ suffix[-1])
    suffix.reverse()
    total = prefix[0] @ ders[0] @ suffix[1]
    for k in range(1, len(vals)):
        total = total + prefix[k] @ ders[k] @ suffix[k + 1]
    m0 = embed_at(build_M(spec.params, spec.gauge), [1], space)
    return partial_trace_first(m0 @ total)


@pytest.mark.parametrize("n,sites", ORACLE_SIZES)
def test_chain_builders_match_dense_oracles(n, sites):
    # every left family x right family x gauge; at N = 1 the inside-out
    # builders close the right K at once and never grow a site
    p = _oracle_params(n, sites)
    lam = 0.31 - 0.12j
    for gauge in Gauge:
        closed = ChainSpec(p, gauge=gauge)
        assert rel_residual(build_transfer(closed, lam, closed=True),
                            _dense_closed_transfer(closed, lam)) <= 1e-13
        for left in LeftBoundaryKind:
            for right in RIGHT_FAMILIES:
                spec = ChainSpec(p, gauge=gauge, left_boundary=left, right_boundary=right)
                assert rel_residual(build_double_row(spec, lam),
                                    _dense_double_row(spec, lam)) <= 1e-13
                assert rel_residual(build_transfer(spec, lam),
                                    _dense_transfer(spec, lam)) <= 1e-13
    for right in ("ansatz", "explicit"):
        spec = ChainSpec(p, right_boundary=right)
        assert rel_residual(_transfer_derivative_analytic(spec),
                            _dense_transfer_derivative(spec)) <= 1e-13


def test_open_transfer_and_derivative_never_reach_the_chain_space(monkeypatch):
    # no embedding or right-application on the (N+1)-factor space of the
    # auxiliary slot and every site, in any module
    spaces = []
    for module in (spin_chain, reflection_k, yang_baxter, hecke_algebra, tensor_core):
        for name in ("embed_at", "apply_right"):
            if hasattr(module, name):
                inner = getattr(module, name)

                def counted(op, slots, space, *rest, inner=inner):
                    spaces.append(len(space))
                    return inner(op, slots, space, *rest)

                monkeypatch.setattr(module, name, counted)
    p = ModelParams(n=2, mu=0.41, m=0.9 + 0.2j, zeta=0.6, sites=3)
    spec = ChainSpec(p, right_boundary="ansatz")
    for transfer_spec in (spec, ChainSpec(p, gauge=Gauge.principal),
                          ChainSpec(p, left_boundary=LeftBoundaryKind.transpose_shift)):
        build_transfer(transfer_spec, 0.31 - 0.12j)
    build_transfer(spec, 0.31 - 0.12j, closed=True)
    build_hamiltonian(spec, "transfer_derivative")
    assert all(factors < p.sites + 1 for factors in spaces), spaces


@pytest.mark.parametrize("closed", [False, True])
def test_transfer_builders_allocate_less_than_one_chain_space_matrix(closed):
    # numpy reports its buffers to tracemalloc. Bounds on the peak of every
    # array alive at once, in n^N-sided complex matrices (the result's size):
    # at (3, 4) under one n^(N+1)-sided matrix, n^2 of them; at the
    # benchmark's (2, 8) and (4, 4) 4.1 for a transfer and 5.1 for the
    # derivative, whose closing step holds y, y', a block copy and two products
    sizes = {(3, 4): (9, 9), (2, 8): (4.1, 5.1), (4, 4): (4.1, 5.1)}
    for (n, sites), (transfer_bound, derivative_bound) in sizes.items():
        p = ModelParams(n=n, mu=0.41, m=0.9 + 0.2j, zeta=0.6, sites=sites)
        spec = ChainSpec(p, right_boundary="ansatz")
        unit = n ** (2 * sites) * 16
        builds = [(lambda: build_transfer(spec, 0.31 - 0.12j, closed=closed), transfer_bound)]
        if not closed:
            builds.append((lambda: _transfer_derivative_analytic(spec), derivative_bound))
        for build, bound in builds:
            build()  # warm caches outside the measurement
            tracemalloc.start()
            try:
                build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound * unit, (n, sites, peak / unit)


def test_inside_out_routes_agree_at_the_benchmark_sizes():
    # the benchmark's chain sizes, past the oracle sizes above: the grown
    # transfer against the double row's M-weighted diagonal blocks, and the
    # analytic derivative route of H against the Hecke form
    lam = 0.31 - 0.12j
    for n, sites in ((2, 8), (3, 5)):
        spec = ChainSpec(ModelParams(n=n, mu=0.41, m=0.9 + 0.2j, zeta=0.6, sites=sites))
        assert rel_residual(build_transfer(spec, lam),
                            transfer_from_diagonal(spec, lam, spin_chain._Built())) < 1e-13
    spec = ChainSpec(ModelParams(n=4, mu=0.41, m=0.9 + 0.2j, zeta=0.6, sites=4))
    assert rel_residual(build_hamiltonian(spec, "transfer_derivative"),
                        build_hamiltonian(spec, "hecke_form")) < 1e-12


def _written_out_rtt(r, xa, xb):
    """R_ab X_a X_b and X_b X_a R_ab, each factor embedded by hand."""
    quantum = list(range(3, len(xa.dims) + 2))
    space = (r.dims[0],) * (len(xa.dims) + 1)
    rab = embed_at(r, [1, 2], space)
    ta = embed_at(xa, [1] + quantum, space)
    tb = embed_at(xb, [2] + quantum, space)
    return rab @ ta @ tb, tb @ ta @ rab


def test_rtt_residual_is_the_written_out_exchange():
    l1, l2 = 0.31 - 0.12j, -0.44 + 0.2j
    spec = ChainSpec(P32)
    for gauge in Gauge:  # ybe.ybe: X = R itself, on (a, 3) and (b, 3)
        args = build_r(P32, l1 - l2, gauge), build_r(P32, l1, gauge), build_r(P32, l2, gauge)
        res = rtt_residual(*args)
        assert res < 1e-13
        assert res == pytest.approx(sym_residual(*_written_out_rtt(*args)), rel=1e-9, abs=1e-16)
    # chain.rtt: X = the monodromy; a T at the wrong spectral point breaks it
    r, ta = build_r(P32, l1 - l2), build_monodromy(spec, l1)
    tb, wrong = build_monodromy(spec, l2), build_monodromy(spec, l2 + 0.3)
    assert rtt_residual(r, ta, tb) < 1e-13
    assert rtt_residual(r, ta, wrong) > 1e-3
    for x in (tb, wrong):
        assert rtt_residual(r, ta, x) == pytest.approx(
            sym_residual(*_written_out_rtt(r, ta, x)), rel=1e-9, abs=1e-16)


@pytest.mark.parametrize("n,sites", [(2, 2), (3, 1), (2, 3)])
def test_reflection_residual_takes_the_double_row(n, sites):
    p = _oracle_params(n, sites)
    spec = ChainSpec(p)
    l1, l2 = 0.31 - 0.12j, -0.44 + 0.2j
    quantum = list(range(3, sites + 3))
    space = (n,) * (sites + 2)

    def written_out(dr):
        t1 = embed_at(dr(l1), [1] + quantum, space)
        t2 = embed_at(dr(l2), [2] + quantum, space)

        def r12(u):
            return embed_at(build_r(p, u), [1, 2], space)

        def r21(u):
            return embed_at(build_r_hat(p, u), [1, 2], space)

        return sym_residual(r12(l1 - l2) @ t1 @ r21(l1 + l2) @ t2,
                            t2 @ r12(l1 + l2) @ t1 @ r21(l1 - l2))

    def double_row(u):
        return build_double_row(spec, u)

    def shifted(u):
        return build_double_row(spec, u + 0.2)

    res = reflection_residual(p, double_row, l1, l2)
    assert res < 1e-12
    assert res == pytest.approx(written_out(double_row), rel=1e-9, abs=1e-16)
    wrong = reflection_residual(p, shifted, l1, l2)
    assert wrong > 1e-3
    assert wrong == pytest.approx(written_out(shifted), rel=1e-9)


@pytest.mark.parametrize("n,sites", ((2, 2), (3, 1), (2, 3)))
def test_reflection_sandwich_is_the_written_out_product(n, sites):
    p = _oracle_params(n, sites)
    l1, v = 0.31 - 0.12j, -0.44 + 0.2j
    rest = n**sites
    for gauge in Gauge:
        dr = build_double_row(ChainSpec(p, gauge=gauge), l1).mat.reshape(n, rest, n, rest)
        # the double row on auxiliary space 1 and the sites, the identity on 2
        k1 = np.einsum("axcy,bd->abxcdy", dr, np.eye(n)).reshape(n * n * rest, -1)
        r12 = np.kron(build_r(p, l1 - v, gauge).mat, np.eye(rest))
        r21 = np.kron(build_r_hat(p, l1 + v, gauge).mat, np.eye(rest))
        got = reflection_sandwich(p, Operator(k1, (n,) * (sites + 2)), l1, v, gauge)
        assert rel_residual(got, r12 @ k1 @ r21) <= 1e-15, gauge


@pytest.mark.parametrize("n,sites", ((2, 3), (3, 2)))
def test_scaled_transfer_is_the_transposed_r_product(n, sites):
    # R(-lam)^{-1} = Rhat(lam)/g(-lam) and Rhat = R^T, so g(-lam)^N t(lam) is
    # the open transfer with That's factors replaced by transposed R matrices
    p = _oracle_params(n, sites)
    for lam in (0.3 - 0.1j, 1e-4, -1e-4):
        r = build_r(p, lam)
        rt = Operator(r.mat.T, (n, n))
        for family in RIGHT_FAMILIES:
            spec = ChainSpec(p, right_boundary=family)
            space = spec.space
            acc = embed_at(build_M(p), [1], space) @ embed_at(left_k(spec, lam), [1], space)
            for site in range(sites, 0, -1):
                acc = acc @ embed_at(r, [1, site + 1], space)
            acc = acc @ embed_at(right_k(spec, lam), [1], space)
            for site in range(1, sites + 1):
                acc = acc @ embed_at(rt, [1, site + 1], space)
            got = unitarity_scalar(p, -lam) ** sites * build_transfer(spec, lam).mat
            assert rel_residual(got, partial_trace_first(acc)) < 1e-13, (lam, family)
