"""Seeded parameter sampling shared by all verification suites.

Generic parameters: mu in [0.15, 1.2] + i[-0.1, 0.1], m and zeta in
[0.3, 2.0] + i[-0.5, 0.5]; draws violating the ModelParams invariants are
rejected and redrawn. Spectral parameters lambda are uniform on
[-1.5, 1.5] + i[-0.8, 0.8] with a 1e-3 exclusion disc around the unitarity
poles ±i mu.
"""

from __future__ import annotations

import numpy as np

from .params import DegenerateParameters, ModelParams

_MAX_TRIES = 5000


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
        lam = _box(rng, -1.5, 1.5, -0.8, 0.8)
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
