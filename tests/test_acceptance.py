"""Acceptance gate: the fourteen headline claims at their stated sizes.

Each test is one criterion, run at the criterion's own ranks, lengths,
sample counts, and tolerances, and prints a single verdict line (visible
under -rA) with the worst residual observed. Suite reports are cached per
configuration so the whole gate stays fast.
"""

from artifact import ModelParams
from artifact.cli import SUITES
from artifact.spin_chain import ChainSpec

MU, M, ZETA = 0.41, 0.9 + 0.2j, 0.6

_CACHE: dict = {}


def _params(n, sites=1):
    return ModelParams(n=n, mu=MU, m=M, zeta=ZETA, sites=sites)


def _suite(kind, n, sites=1, samples=5, seed=0, tol=1e-9):
    key = (kind, n, sites, samples, seed, tol)
    if key not in _CACHE:
        _CACHE[key] = SUITES[kind](ChainSpec(params=_params(n, sites)),
                                   samples=samples, tol=tol, seed=seed)
    return _CACHE[key]


def _select(report, *stems):
    """Checks whose id starts with any stem; at least one must match."""
    rows = [c for c in report.checks
            if any(c.id.startswith(stem) for stem in stems)]
    assert rows, f"no checks matching {stems} in suite {report.suite}"
    return rows


def _verdict(k, rows, limit, note=""):
    worst = max(r.residual for r in rows)
    ok = all(r.passed for r in rows) and worst < limit
    tag = "PASS" if ok else "FAIL"
    extra = f"; {note}" if note else ""
    print(f"criterion {k:2d}: {tag} (worst residual {worst:.2e} "
          f"< {limit:.0e}, {len(rows)} checks{extra})")
    assert ok, f"criterion {k}: worst {worst:.3e} against {limit:.0e}"


def test_criterion_01_hecke_relations():
    rows = []
    for n in (2, 3, 4):
        for sites in (2, 3, 4):
            rows += _suite("hecke", n, sites, samples=5, seed=1,
                           tol=1e-10).checks
    _verdict(1, rows, 1e-10, "n,N in {2,3,4}x{2,3,4}, 5 draws each")


def test_criterion_02_ybe_family():
    rows, cross = [], []
    for n in (2, 3, 4):
        rep = _suite("ybe", n, samples=20, seed=2, tol=1e-9)
        for c in rep.checks:
            (cross if c.id.startswith("ybe.crossing") else rows).append(c)
    _verdict(2, rows, 1e-9, "both gradations, 20 spectral pairs per rank")
    assert all(c.passed and c.residual < 1e-8 for c in cross), \
        "crossing drift exceeded 1e-8"


def test_criterion_03_reflection_equation():
    rows, kunit = [], []
    for n in (2, 3, 4):
        rep = _suite("reflection", n, samples=10, seed=3, tol=1e-9)
        rows += _select(rep, "reflection.re.", "reflection.re_braid",
                        "reflection.gauge")
        kunit += _select(rep, "reflection.kunitarity")
    _verdict(3, rows + kunit, 1e-9, "explicit and principal K, 10 draws")
    assert all(c.residual < 1e-10 for c in kunit), "K-unitarity above 1e-10"


def test_criterion_04_ansatz_equals_explicit():
    rows = []
    for n in (2, 3, 4):
        rep = _suite("reflection", n, samples=10, seed=3, tol=1e-9)
        rows += _select(rep, "reflection.ansatz_eq_explicit")
    _verdict(4, rows, 1e-11, "entrywise at every sampled lambda")


def test_criterion_05_abad_rios_match():
    rows, constraint = [], []
    for n in (2, 3):
        rep = _suite("reflection", n, samples=10, seed=3, tol=1e-9)
        rows += _select(rep, "reflection.ar_match", "reflection.ar_scale")
        constraint += _select(rep, "reflection.ar_constraint")
    _verdict(5, rows, 1e-9, "proportionality with lambda-independent scalar")
    assert all(c.residual < 1e-10 for c in constraint), "(rest) above 1e-10"


def test_criterion_06_transfer_commutativity():
    rows = []
    for n in (2, 3):
        for sites in (2, 3):
            rep = _suite("chain", n, sites, samples=3, seed=4, tol=1e-9)
            rows += _select(rep, "chain.ttcomm")
    _verdict(6, rows, 1e-9, "closed + open, every boundary configuration")


def test_criterion_07_hamiltonian_routes():
    rows = []
    for n in (2, 3):
        for sites in (2, 3):
            rep = _suite("chain", n, sites, samples=3, seed=4, tol=1e-9)
            rows += _select(rep, "chain.hroutes")
            assert not any(c.id.startswith("chain.hroutes_affine")
                           for c in rep.checks), \
                "route mismatch: affine fit was reported"
    _verdict(7, rows, 1e-9, "derivative route vs Hecke form, entrywise")


def test_criterion_08_charge_commutation():
    rows = []
    for n in (2, 3, 4):
        for sites in (2, 3):
            rep = _suite("symmetry", n, sites, samples=5, seed=5, tol=1e-9)
            rows += _select(rep, "symmetry.prop41", "symmetry.corollary")
    _verdict(8, rows, 1e-9, "all generators and charges, n in {2,3,4}, N <= 3")


def test_criterion_09_transfer_symmetry():
    rows = []
    for n, sites in ((3, 2), (3, 3), (4, 2)):
        rep = _suite("symmetry", n, sites, samples=5, seed=5, tol=1e-9)
        rows += _select(rep, "symmetry.prop43")
        if n >= 4:
            rows += _select(rep, "symmetry.prop42")
    _verdict(9, rows, 1e-9, "5 sampled lambda per size")


def test_criterion_10_affine_defect():
    rows, nonzero = [], []
    for sites in (2, 3):
        rep = _suite("symmetry", 3, sites, samples=5, seed=5, tol=1e-9)
        rows += _select(rep, "symmetry.com12.")
        nonzero += _select(rep, "symmetry.com12_nonzero")
    _verdict(10, rows, 1e-9, "closed form of the nonvanishing commutator")
    assert all(c.passed for c in nonzero), "affine commutator was spuriously small"


def test_criterion_11_alternate_left_boundary():
    rows = []
    for sites in (2, 3):
        rep = _suite("symmetry", 3, sites, samples=5, seed=5, tol=1e-9)
        rows += _select(rep, "symmetry.fin_affine", "symmetry.fin_gl")
    _verdict(11, rows, 1e-9, "affine charge and small-block generators")


def test_criterion_12_construction_consistency():
    rows, blockf = [], []
    for sites in (2, 3):
        rep = _suite("symmetry", 3, sites, samples=5, seed=5, tol=1e-9)
        rows += _select(rep, "symmetry.asym_hom", "symmetry.asym_principal",
                        "symmetry.recursion")
        blockf += _select(rep, "symmetry.block_closed")
    _verdict(12, rows, 1e-8, "asymptotics vs products vs recursion")
    assert all(c.residual < 1e-11 for c in blockf), "closed forms above 1e-11"


def test_criterion_13_trivial_and_diagonal_boundaries():
    rep = _suite("symmetry", 3, 2, samples=5, seed=5, tol=1e-9)
    rows = _select(rep, "symmetry.trivial_k", "symmetry.diagonal_k")
    _verdict(13, rows, 1e-9, "full and block quantum-group commutation")


def test_criterion_14_intertwining_layers():
    rep_alg = _suite("algebra", 3, 2, samples=5, seed=6, tol=1e-9)
    rows = _select(rep_alg, "algebra.inter.")
    rep_chain = _suite("chain", 3, 2, samples=3, seed=4, tol=1e-9)
    rows += _select(rep_chain, "chain.bcomm", "chain.it0", "chain.iik",
                    "chain.intert")
    rep_sym = _suite("symmetry", 3, 2, samples=5, seed=5, tol=1e-9)
    rows += _select(rep_sym, "symmetry.ik")
    _verdict(14, rows, 1e-9, "single-site, monodromy, and double-row layers")
