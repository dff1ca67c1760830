"""Seeded parameter sampling shared by all verification suites.

Generic parameters: mu in [0.15, 1.2] + i[-0.1, 0.1], m and zeta in
[0.3, 2.0] + i[-0.5, 0.5]; draws violating the ModelParams invariants are
rejected and redrawn. Spectral parameters lambda are uniform on
[-1.5, 1.5] + i[-0.8, 0.8] (``SPECTRAL_BOX``) with a 1e-3 exclusion disc
around the unitarity poles ±i mu. ``require_box_scalars`` refuses couplings
whose scalars on that box are too large for the suites' products.
"""

from __future__ import annotations

import cmath

import numpy as np

from .params import DegenerateParameters, ModelParams

_MAX_TRIES = 5000
SPECTRAL_BOX = (-1.5, 1.5, -0.8, 0.8)
# A transfer matrix carries two K's, a commutator multiplies two transfer
# matrices and a Frobenius norm squares its entries: products of eight
# scalars must stay below the float maximum, about 1.8e308, so each scalar
# stays below its eighth root.
SCALAR_CAP = 1e38


def require_box_scalars(params: ModelParams, xi: complex) -> None:
    """Raise DegenerateParameters when a scalar the suites multiply exceeds
    SCALAR_CAP (or overflows) at a corner of the spectral box: Q^{±1},
    cosh(2i mu zeta), x(lambda) of the right K and x(-lambda - i mu n/2) of
    the transpose-shift left K, e^{2 lambda + i mu n} of the affine-limit
    left K, sinh(lambda + i mu) of R and sinh(lambda + i mu xi) of the
    diagonal K. Values are never clamped."""
    re_lo, re_hi, im_lo, im_hi = SPECTRAL_BOX
    corners = [complex(re, im) for re in (re_lo, re_hi) for im in (im_lo, im_hi)]
    mu, n = params.mu, params.n
    shifted = [-lam - 0.5j * mu * n for lam in corners]
    scalars = {
        "Q": lambda: [params.Q, 1.0 / params.Q],
        "cosh(2i*mu*zeta)": lambda: [cmath.cosh(2j * mu * params.zeta)],
        "x(lambda)": lambda: [params.k_diag_x(lam) for lam in corners + shifted],
        "e^(2*lambda + i*mu*n)": lambda: [cmath.exp(sign * (2 * lam + 1j * mu * n))
                                          for lam in corners for sign in (1, -1)],
        "sinh(lambda + i*mu)": lambda: [cmath.sinh(lam + 1j * mu) for lam in corners],
        "sinh(lambda + i*mu*xi)": lambda: [cmath.sinh(lam + 1j * mu * xi) for lam in corners],
    }
    for name, values in scalars.items():
        try:
            worst = max(abs(v) for v in values())
        except OverflowError:
            worst = float("inf")
        if not worst <= SCALAR_CAP:
            raise DegenerateParameters(
                f"{name} reaches {worst:.3g}, over {SCALAR_CAP:g}, at mu={mu}, m={params.m}, "
                f"zeta={params.zeta}, xi={xi}: the suites' products would overflow")


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _box(rng, re_lo, re_hi, im_lo, im_hi) -> complex:
    return complex(rng.uniform(re_lo, re_hi), rng.uniform(im_lo, im_hi))


def sample_model(rng: np.random.Generator, n: int, sites: int = 1) -> ModelParams:
    for _ in range(_MAX_TRIES):
        mu = _box(rng, 0.15, 1.2, -0.1, 0.1)
        m = _box(rng, 0.3, 2.0, -0.5, 0.5)
        zeta = _box(rng, 0.3, 2.0, -0.5, 0.5)
        try:
            return ModelParams(n=n, mu=mu, m=m, zeta=zeta, sites=sites)
        except DegenerateParameters:
            continue
    raise RuntimeError("could not sample non-degenerate model parameters")


def sample_spectral(
    rng: np.random.Generator, params: ModelParams, count: int = 1
) -> list[complex]:
    out: list[complex] = []
    poles = (1j * params.mu, -1j * params.mu)
    tries = 0
    while len(out) < count:
        tries += 1
        if tries > _MAX_TRIES:
            raise RuntimeError("could not sample spectral parameters")
        lam = _box(rng, *SPECTRAL_BOX)
        if min(abs(lam - p) for p in poles) < 1e-3:
            continue
        # keep sums/differences of consecutive draws away from the poles too;
        # reflection-equation checks use lam1 ± lam2
        if out:
            prev = out[-1]
            pair_vals = (lam + prev, lam - prev, prev - lam)
            if any(min(abs(v - p) for p in poles) < 1e-3 for v in pair_vals):
                continue
        out.append(lam)
    return out
