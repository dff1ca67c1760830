"""Property tests of the R- and K-matrix identities over the sampling boxes.

Model parameters and spectral points are drawn from the boxes of
``artifact.sampling`` (mu in [0.15, 1.2] + i[-0.1, 0.1], m and zeta in
[0.3, 2.0] + i[-0.5, 0.5], lambda in [-1.5, 1.5] + i[-0.8, 0.8]), with each
coordinate drawn at one of its box ends about half the time so the corners
are reached. Draws that ``sample_model`` or ``sample_spectral`` would reject
(degenerate parameters, spectral points or their sums and differences within
1e-3 of the poles ±i mu) are discarded with ``assume``. Near the degenerate
points themselves (lambda at the unitarity poles ±i mu, x(0) near 0) the
builders must raise ``DegenerateParameters`` or return finite matrices, and
the crossing relation must raise it within ``REGULAR_GAP`` of either zero of
its scalar, lambda = 0 and lambda = -i n mu (mod i pi). The
Hamiltonian's weight sectors and both orders of the boundary charges'
coproduct recursion are checked over the same boxes.
"""

import math
from dataclasses import replace
from functools import cache, partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from artifact import ModelParams
from artifact.boundary_charges import (
    _charge_positions,
    _recursive_charges,
    build_boundary_charges,
    cyclic_shift,
)
from artifact.hecke_algebra import rep_boundary, rep_bulk
from artifact.params import DegenerateParameters
from artifact.quantum_algebra import Tower
from artifact.reflection_k import build_k_explicit, reflection_residual
from artifact.spin_chain import (
    ChainSpec,
    _hamiltonian_entries,
    build_hamiltonian,
    build_monodromy_hat,
    build_transfer,
    hamiltonian_blocks,
)
from artifact.tensor_core import embed_at, identity_op, rel_residual
from artifact.yang_baxter import (
    REGULAR_GAP,
    Gauge,
    build_r,
    build_r_hat,
    fit_crossing_shift,
    unitarity_scalar,
)

PROPERTY = settings(max_examples=50, deadline=None)
BOUND = 1e-12
POLE_GAP = 1e-3


def _coord(lo: float, hi: float):
    return st.one_of(st.sampled_from((lo, hi)), st.floats(lo, hi))


def _box(re_lo, re_hi, im_lo, im_hi):
    return st.builds(complex, _coord(re_lo, re_hi), _coord(im_lo, im_hi))


@st.composite
def _model(draw, ns=st.integers(2, 4), sites=st.just(1)):
    try:
        return ModelParams(
            n=draw(ns),
            mu=draw(_box(0.15, 1.2, -0.1, 0.1)),
            m=draw(_box(0.3, 2.0, -0.5, 0.5)),
            zeta=draw(_box(0.3, 2.0, -0.5, 0.5)),
            sites=draw(sites),
        )
    except DegenerateParameters:
        assume(False)


def _off_poles(p: ModelParams, *values: complex) -> bool:
    return all(abs(v - s * 1j * p.mu) >= POLE_GAP for v in values for s in (1, -1))


_LAMBDA = _box(-1.5, 1.5, -0.8, 0.8)


@PROPERTY
@given(_model(), _LAMBDA)
def test_r_unitarity(p, lam):
    assume(_off_poles(p, lam))
    eye = identity_op((p.n, p.n))
    for gauge in Gauge:
        prod = build_r(p, lam, gauge) @ build_r_hat(p, -lam, gauge)
        assert rel_residual(prod, unitarity_scalar(p, lam) * eye) < BOUND, gauge


@PROPERTY
@given(_model(), _LAMBDA, _LAMBDA)
def test_yang_baxter_equation(p, l1, l2):
    assume(_off_poles(p, l1, l2, l1 + l2, l1 - l2))
    space = (p.n,) * 3
    for gauge in Gauge:
        r12 = embed_at(build_r(p, l1 - l2, gauge), [1, 2], space)
        r13 = embed_at(build_r(p, l1, gauge), [1, 3], space)
        r23 = embed_at(build_r(p, l2, gauge), [2, 3], space)
        assert rel_residual(r23 @ r13 @ r12, r12 @ r13 @ r23) < BOUND, gauge


@PROPERTY
@given(_model(), _LAMBDA, _LAMBDA)
def test_reflection_equation_explicit_k(p, l1, l2):
    assume(_off_poles(p, l1, l2, l1 + l2, l1 - l2))
    for gauge in Gauge:
        res = reflection_residual(p, lambda u: build_k_explicit(p, u, gauge), l1, l2, gauge)
        assert res < BOUND, gauge


def _near_zero_mod_i_pi(z: complex) -> bool:
    return abs(complex(z.real, math.remainder(z.imag, math.pi))) < REGULAR_GAP


@PROPERTY
@given(_model(), _LAMBDA, st.sampled_from(Gauge))
@example(ModelParams(n=2, mu=0.15 - 0.1j, m=0.3 - 0.5j, zeta=0.3 - 0.5j), 0j, Gauge.homogeneous)
@example(ModelParams(n=2, mu=0.15 - 0.1j, m=0.3 - 0.5j, zeta=0.3 - 0.5j), -0.2 - 0.3j,
         Gauge.homogeneous)
def test_crossing_relation_holds_at_half_n_mu(p, lam, gauge):
    # R1(lam)^t1 M1 R2(-lam - i n mu)^t2 M1^-1 = -sinh(lam) sinh(lam + i n mu) I.
    # R2 is singular at -lam - i n mu = ±i mu
    assume(_off_poles(p, lam, lam + 1j * p.n * p.mu))
    if _near_zero_mod_i_pi(lam) or _near_zero_mod_i_pi(lam + 1j * p.n * p.mu):
        # the relation's scalar vanishes: a relative residual means nothing
        with pytest.raises(DegenerateParameters):
            fit_crossing_shift(p, lam, gauge)
        return
    assert fit_crossing_shift(p, lam, gauge)[1] <= BOUND


@st.composite
def _near_low_root_of_unity(draw):
    # q = e^{i mu} with mu within 1e-8 of 2 pi a / b has |q^b - 1| < 1e-6
    n = draw(st.integers(2, 4))
    b = draw(st.integers(1, 2 * n))
    a = draw(st.integers(-b, b))
    return n, 2 * math.pi * a / b + draw(_box(-1e-8, 1e-8, -1e-8, 1e-8))


@PROPERTY
@given(_near_low_root_of_unity())
def test_mu_near_low_root_of_unity_is_degenerate(n_mu):
    n, mu = n_mu
    with pytest.raises(DegenerateParameters):
        ModelParams(n=n, mu=mu, m=0.9 + 0.2j, zeta=0.6)


def _finite_or_degenerate(build) -> bool:
    try:
        mat = build().mat
    except DegenerateParameters:
        return True
    return bool(np.all(np.isfinite(mat)))


_TINY = _box(-1e-12, 1e-12, -1e-12, 1e-12)
P = ModelParams(n=3, mu=0.41, m=0.9 + 0.2j, zeta=0.6)


@PROPERTY
@given(_model(), st.integers(1, 2), st.sampled_from(Gauge), st.sampled_from((1, -1)), _TINY)
@example(P, 2, Gauge.homogeneous, 1, 0j)
@example(P, 1, Gauge.principal, -1, 0j)
def test_chain_builders_at_the_unitarity_poles(p, sites, gauge, sign, offset):
    # That's per-site factors R(-lambda)^{-1} blow up at lambda = ±i mu
    spec = ChainSpec(replace(p, sites=sites), gauge=gauge)
    lam = sign * 1j * p.mu + offset
    assert _finite_or_degenerate(lambda: build_transfer(spec, lam))
    assert _finite_or_degenerate(lambda: build_monodromy_hat(spec, lam, "per_site"))


@st.composite
def _near_vanishing_x0(draw):
    # x(0) = cosh(i mu m) - cosh(2 i mu zeta), which vanishes at m = 2 zeta
    zeta = draw(_box(0.15, 1.0, -0.25, 0.25))
    try:
        return ModelParams(
            n=draw(st.integers(2, 4)),
            mu=draw(_box(0.15, 1.2, -0.1, 0.1)),
            m=2 * zeta + draw(_box(-1e-8, 1e-8, -1e-8, 1e-8)),
            zeta=zeta,
            sites=draw(st.integers(1, 2)),
        )
    except DegenerateParameters:
        assume(False)


@PROPERTY
@given(_near_vanishing_x0(), st.sampled_from(("hecke_form", "transfer_derivative")))
def test_hamiltonian_near_vanishing_x0(p, route):
    assert _finite_or_degenerate(lambda: build_hamiltonian(ChainSpec(p), route))


def _middle_counts(n: int, sites: int) -> np.ndarray:
    """(c_2, ..., c_{n-1}) of every basis state of (C^n)^sites, as rows."""
    digits = np.array(np.unravel_index(np.arange(n**sites), (n,) * sites))
    return np.stack([(digits == s).sum(axis=0) for s in range(1, n - 1)], axis=1)


@PROPERTY
@given(_model(ns=st.integers(3, 4), sites=st.integers(1, 4)))
def test_hamiltonian_keeps_the_middle_state_counts(p):
    try:
        p.require_hamiltonian_ok()
    except DegenerateParameters:
        assume(False)
    n, sites = p.n, p.sites
    counts = _middle_counts(n, sites)
    rows, cols, _ = _hamiltonian_entries(ChainSpec(p))
    assert np.array_equal(counts[rows], counts[cols])
    # and every entry of the embed_at-built generators between two count
    # tuples is exactly zero
    differ = np.any(counts[:, None, :] != counts[None, :, :], axis=2)
    for gen in [rep_boundary(p)] + [rep_bulk(p, site) for site in range(1, sites)]:
        assert not np.any(gen.mat[differ])
    blocks = hamiltonian_blocks(ChainSpec(p))
    assert sum(idx.size for idx, _ in blocks) == n**sites
    sectors = set()
    for idx, _ in blocks:
        c = counts[idx]
        assert np.all(c == c[0])
        sectors.add(tuple(c[0]))
        r = sites - int(c[0].sum())
        ways = math.factorial(sites) // math.prod(math.factorial(int(k)) for k in (*c[0], r))
        assert idx.size == ways * 2**r
    assert len(sectors) == len(blocks)


@PROPERTY
@given(_model(sites=st.integers(1, 3)))
def test_charge_recursion_matches_the_products(p):
    # plain order against T+ K T-hat on the same sites, primed order against
    # its cyclic-shift conjugate, at every position the affine one included
    n, N = p.n, p.sites
    charges = build_boundary_charges(p, N)
    shift = cyclic_shift(n, N)
    tower = cache(partial(Tower, p))
    plain = _recursive_charges(p, N, "delta", 0.0, tower)
    primed = _recursive_charges(p, N, "delta_prime", 0.0, tower)
    for pos in _charge_positions(n):
        assert rel_residual(plain[pos], charges.charge(pos)) < BOUND, pos
        assert rel_residual(primed[pos], shift @ charges.charge(pos) @ shift.T) < BOUND, pos
