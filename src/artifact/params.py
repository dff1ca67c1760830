"""Model parameters and the derived constants used across every module.

The deformation is q = e^{i mu}; the boundary couplings enter through
Q = i e^{i mu m} and through zeta (always via cosh(2 i mu zeta)). We keep mu,
m, zeta complex: the verification suites sample them with small imaginary
parts to stay away from accidental real-axis degeneracies.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass


class DegenerateParameters(ValueError):
    """Raised when parameters sit on a degenerate point (q = ±1, root of
    unity, vanishing boundary normalization)."""


@dataclass(frozen=True)
class ModelParams:
    n: int
    mu: complex
    m: complex = 0.0
    zeta: complex = 0.0
    sites: int = 1

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 2:
            raise DegenerateParameters(f"rank n must be an integer >= 2, got {self.n}")
        if int(self.sites) != self.sites or self.sites < 1:
            raise DegenerateParameters(f"site count must be >= 1, got {self.sites}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "sites", int(self.sites))
        object.__setattr__(self, "mu", complex(self.mu))
        object.__setattr__(self, "m", complex(self.m))
        object.__setattr__(self, "zeta", complex(self.zeta))
        for name in ("mu", "m", "zeta"):
            value = getattr(self, name)
            if not cmath.isfinite(value):
                raise DegenerateParameters(f"{name} must be finite, got {value}")
        # Finite but huge inputs overflow (or underflow Q to zero) in the
        # constants every builder reads; refuse them here, never clamp.
        try:
            finite = all(map(cmath.isfinite, (
                self.q, self.Q, 1.0 / self.Q, cmath.sinh(1j * self.mu),
                cmath.cosh(1j * self.mu * self.m), cmath.cosh(2j * self.mu * self.zeta),
            )))
        except (OverflowError, ZeroDivisionError):
            finite = False
        if not finite:
            raise DegenerateParameters(
                "q, Q, 1/Q, sinh(i*mu), cosh(i*mu*m) or cosh(2i*mu*zeta) overflows "
                f"or divides by zero at mu={self.mu}, m={self.m}, zeta={self.zeta}"
            )
        if abs(cmath.sinh(1j * self.mu)) <= 1e-8:
            raise DegenerateParameters(
                f"sinh(i*mu) = {cmath.sinh(1j*self.mu):.3e} too small (q = ±1)"
            )
        q = self.q
        for k in range(1, 2 * self.n + 1):
            if abs(q**k - 1.0) <= 1e-6:
                raise DegenerateParameters(
                    f"q^{k} is within 1e-6 of 1: q too close to a low root of unity"
                )

    # ----- bulk constants -------------------------------------------------

    @property
    def q(self) -> complex:
        return cmath.exp(1j * self.mu)

    @property
    def w(self) -> complex:
        """q - q^{-1} = 2 sinh(i mu)."""
        return 2.0 * cmath.sinh(1j * self.mu)

    @property
    def delta(self) -> complex:
        return -(self.q + 1.0 / self.q)

    # ----- boundary constants ---------------------------------------------

    @property
    def Q(self) -> complex:
        return 1j * cmath.exp(1j * self.mu * self.m)

    @property
    def delta0(self) -> complex:
        """-(Q + Q^{-1}) = -2i sinh(i mu m), the unrescaled boundary quadratic."""
        return -(self.Q + 1.0 / self.Q)

    @property
    def kappa(self) -> complex:
        """q Q^{-1} + q^{-1} Q = 2i sinh(i mu (m-1)), unrescaled."""
        return self.q / self.Q + self.Q / self.q

    @property
    def boundary_scale(self) -> complex:
        """The 2i sinh(i mu) by which the boundary generator is renormalized."""
        return 2j * cmath.sinh(1j * self.mu)

    @property
    def delta0_rescaled(self) -> complex:
        return self.delta0 / self.boundary_scale

    @property
    def kappa_rescaled(self) -> complex:
        return self.kappa / self.boundary_scale

    # ----- K-matrix scalar profile ------------------------------------------

    def k_diag_x(self, lam: complex) -> complex:
        """x(lambda) built from the rescaled quadratic constants."""
        return (
            -self.delta0_rescaled * cmath.cosh(2 * lam + 1j * self.mu)
            - self.kappa_rescaled * cmath.cosh(2 * lam)
            - cmath.cosh(2j * self.mu * self.zeta)
        )

    def k_offdiag_y(self, lam: complex) -> complex:
        return 2.0 * cmath.sinh(2 * lam) * cmath.sinh(1j * self.mu)

    def require_hamiltonian_ok(self) -> None:
        x0 = self.k_diag_x(0.0)
        if abs(x0) <= 1e-8:
            raise DegenerateParameters(
                f"x(0) = {x0:.3e} too small; Hamiltonian normalization degenerate"
            )

    @property
    def c0(self) -> complex:
        """Trace constant -sinh(i mu (n-1)) / sinh(i mu n)."""
        return -cmath.sinh(1j * self.mu * (self.n - 1)) / cmath.sinh(
            1j * self.mu * self.n
        )
