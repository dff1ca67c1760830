"""Monodromy, double-row operators, transfer matrices, Hamiltonians.

Oracles here are built from scratch where feasible: explicit kron products
for small monodromies, a hand-assembled N=1 double row, finite differences
for the derivative route, dense eigensolves for commuting-family checks, and
products of embed_at embeddings for the right-applied chain builders.
"""

import cmath
import math

import numpy as np
import pytest

from artifact import ModelParams, spin_chain
from artifact.params import DegenerateParameters
from artifact.hecke_algebra import rep_boundary, rep_bulk
from artifact.reflection_k import LeftBoundaryKind, build_k_explicit, reflection_residual
from artifact.spin_chain import (
    ChainSpec,
    affine_limit_transfer_combination,
    boundary_commutation_residual,
    build_double_row,
    build_hamiltonian,
    build_monodromy,
    build_monodromy_hat,
    build_transfer,
    double_row_commutation_residual,
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
    commutator,
    embed_at,
    frob,
    identity_op,
    partial_trace_first,
    rel_residual,
    rtt_residual,
    sym_residual,
)
from artifact.yang_baxter import Gauge, build_M, build_r, build_r_hat, build_r_inverse

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
    assert rel_residual(got, transfer_from_diagonal(spec, lam)) < 1e-14


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
                        affine_limit_transfer_combination(spec, lam)) < 1e-13


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


def test_transfer_derivative_matches_finite_difference():
    spec = ChainSpec(P32, right_boundary="ansatz")
    an = _transfer_derivative_analytic(spec)
    fd = transfer_derivative_numeric(spec)
    assert rel_residual(an, fd) < 1e-8


def test_monodromy_intertwining():
    spec = ChainSpec(P32)
    lam = 0.33 - 0.12j
    t = build_monodromy(spec, lam)
    for lab in (GeneratorLabel(GeneratorKind.E, 1), GeneratorLabel(GeneratorKind.E, 3),
                GeneratorLabel(GeneratorKind.F, 2), GeneratorLabel(GeneratorKind.KCARTAN, 3)):
        assert intertwine_residual(P32, lab, t, lam, spec.gauge) < 1e-13


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
    assert double_row_commutation_residual(ChainSpec(P32), 0.37, 0.18 + 0.09j) < 1e-13


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


# Dense oracles: every factor embedded on the whole space with embed_at and
# multiplied out, the way the chain products were formed before the
# right-applied contraction engine.
ORACLE_SIZES = ((2, 3), (3, 2), (4, 2))


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


def _dense_transfer_derivative(spec):
    space = spec.space
    factors = _factor_profiles(spec)
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
    p = _oracle_params(n, sites)
    lam = 0.31 - 0.12j
    for spec in (ChainSpec(p), ChainSpec(p, gauge=Gauge.principal),
                 ChainSpec(p, left_boundary=LeftBoundaryKind.affine_limit)):
        assert rel_residual(build_double_row(spec, lam), _dense_double_row(spec, lam)) <= 1e-13
        assert rel_residual(build_transfer(spec, lam), _dense_transfer(spec, lam)) <= 1e-13
    spec = ChainSpec(p, right_boundary="ansatz")
    assert rel_residual(_transfer_derivative_analytic(spec),
                        _dense_transfer_derivative(spec)) <= 1e-13


def test_open_transfer_and_derivative_embed_no_two_slot_operator(monkeypatch):
    slot_counts = []
    inner = spin_chain.embed_at

    def counted(op, slots, space):
        slot_counts.append(len(slots))
        return inner(op, slots, space)

    monkeypatch.setattr(spin_chain, "embed_at", counted)
    spec = ChainSpec(P32, right_boundary="ansatz")
    build_transfer(spec, 0.31 - 0.12j)
    build_transfer(ChainSpec(P32, gauge=Gauge.principal), 0.31 - 0.12j)
    build_hamiltonian(spec, "transfer_derivative")
    assert slot_counts and max(slot_counts) == 1


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
