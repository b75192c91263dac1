"""The closed-form pulsed state and the Gauss hypergeometric function.

Under one sech pulse the driven pair (|z>, |trion>) has the Rosen-Zener
solution (Rosen & Zener, Phys. Rev. 40, 502 (1932)), two 2F1 functions of
z = (tanh(eta*(t - t_c)) + 1)/2 with a = Omega/eta and
c = (1 + i*Delta/eta)/2. For a 2*pi pulse a = 1 and both are elementary
(NIST DLMF 15.8): 2F1(1, -1; c; z) = 1 - z/c terminates, and
2F1(1 + c, c - 1; 1 + c; z) = (1 - z)^(1 - c). rz_state evaluates these
forms with numpy alone.

hyp2f1 sums 2F1(a, b; c; z) for complex parameters and z in [0, 1]
(scipy's hyp2f1 only takes real a, b, c). Only its Gauss-sum and
connection-formula branches need complex gamma functions; they import
scipy.special when they run, so rz_state and the CLI never load scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import PulseParams, StateVector

SERIES_RTOL = 1e-12
SERIES_MAX_TERMS = 10 ** 6
# rz_state returns the t -> inf limit (the "far future" of its limit tests)
# once the trion amplitude left, about 2*sqrt(1 - z) for a 2*pi pulse, is
# below RZ_TAIL_ATOL: 1 - z < RZ_TAIL_LIMIT, eta*(t - t_c) > 23.7
RZ_TAIL_ATOL = 1e-10
RZ_TAIL_LIMIT = (RZ_TAIL_ATOL / 2.0) ** 2


class NonConvergence(ArithmeticError):
    """Series failed to reach tolerance within the term cap."""


class InvalidC(ValueError):
    """c parameter is a non-positive integer (gamma pole on every term)."""


def _is_nonpositive_int(x: complex) -> bool:
    return x.imag == 0.0 and x.real <= 0.0 and float(x.real).is_integer()


@dataclass(frozen=True)
class HypParams:
    """Arguments of 2F1(a, b; c; z). z1 is 1 - z; pass it when it is known
    more accurately than the rounded difference (z near 1)."""

    a: complex
    b: complex
    c: complex
    z: float
    z1: Optional[float] = None

    def __post_init__(self):
        if _is_nonpositive_int(self.c):
            raise InvalidC("c = %r is a non-positive integer" % (self.c,))
        if not 0.0 <= self.z <= 1.0:
            raise ValueError("z must lie in [0, 1], got %r" % (self.z,))
        if self.z1 is None:
            object.__setattr__(self, "z1", 1.0 - self.z)
        elif not 0.0 <= self.z1 <= 1.0:
            raise ValueError("z1 must lie in [0, 1], got %r" % (self.z1,))


def _series(a, b, c, z, max_terms=SERIES_MAX_TERMS):
    """Direct power series sum of 2F1. Terminates exactly when a or b is a
    non-positive integer; otherwise stops on two consecutive negligible terms."""
    total = term = 1.0 + 0.0j
    small_streak = 0
    for n in range(max_terms):
        term = term * (a + n) * (b + n) / ((c + n) * (n + 1)) * z
        total += term
        if term == 0.0:           # terminating polynomial case, exact
            return total
        if abs(term) <= SERIES_RTOL * abs(total):
            small_streak += 1
            if small_streak >= 2:
                return total
        else:
            small_streak = 0
    raise NonConvergence(
        "2F1 series did not converge in %d terms (a=%r b=%r c=%r z=%r)"
        % (max_terms, a, b, c, z))


def _gauss_value(a, b, c):
    """2F1 at z = 1, Gauss summation. Needs Re(c - a - b) > 0."""
    from scipy.special import gamma as cgamma, rgamma
    s = c - a - b
    if s.real <= 0:
        raise NonConvergence("2F1 at z=1 diverges for Re(c-a-b) <= 0")
    # reciprocal gammas absorb poles of the denominator factors
    return cgamma(c) * cgamma(s) * rgamma(c - a) * rgamma(c - b)


def hyp2f1(h: HypParams) -> complex:
    """2F1(a, b; c; z) for z in [0, 1], relative accuracy ~1e-12 for
    moderate parameters.

    z <= 0.5 sums the defining series directly, which cancels when |Im c|
    is large: 2F1(1+c, c-1; 1+c; 0.5) at c = 0.5 + 50i is 9.7e-6 (relative)
    from mpmath. z > 0.5 uses the
    z -> 1 - z connection formula, valid because c - a - b is never an
    integer for the parameter families used here (Re(c-a-b) = 1/2); if it
    is nearly an integer the direct series is used instead (it still
    converges for z < 1, just more slowly). z1 = 0 is the Gauss sum; the
    connection formula takes 1 - z from h.z1.
    """
    a, b, c, z, z1 = h.a, h.b, h.c, h.z, h.z1
    if z == 0.0:
        return 1.0 + 0.0j
    # terminating cases are exact at any z and dodge the connection formula
    if _is_nonpositive_int(a) or _is_nonpositive_int(b):
        return _series(a, b, c, z)
    if z1 == 0.0:
        return _gauss_value(a, b, c)
    if z <= 0.5:
        return _series(a, b, c, z)
    s = c - a - b
    if abs(s - np.round(s.real)) < 1e-8:
        return _series(a, b, c, z)
    from scipy.special import gamma as cgamma, rgamma
    f1 = cgamma(c) * cgamma(s) * rgamma(c - a) * rgamma(c - b) \
        * _series(a, b, 1.0 - s + 0j, z1)
    f2 = cgamma(c) * cgamma(-s) * rgamma(a) * rgamma(b) \
        * z1 ** s * _series(c - a, c - b, 1.0 + s, z1)
    return f1 + f2


def rz_state(t: float, p: PulseParams) -> StateVector:
    """Closed-form state at time t for a single 2*pi pulse, precession neglected.

    Initial condition is |z> in the far past. The zbar amplitude is
    identically zero in this approximation; do not extrapolate it to
    omega_B > 0. The amplitudes are c_z = 1 - z/c and
    c_tau = -(i/c) * z^c * (1 - z)^(1 - c), with log z and log(1 - z)
    taken as -logaddexp(0, -+2x), x = eta*(t - t_c): neither z nor 1 - z is
    formed as 1 minus the other, so the trion amplitude keeps its digits in
    both tails. Pulses of another area are refused with ValueError.
    """
    if not p.is_two_pi:
        raise ValueError("rz_state needs a 2*pi pulse (rabi_peak == bandwidth), "
                         "got rabi_peak = %r, bandwidth = %r" % (p.rabi_peak, p.bandwidth))
    x = p.bandwidth * (t - p.center)
    log_z = -np.logaddexp(0.0, -2.0 * x)
    log_z1 = -np.logaddexp(0.0, 2.0 * x)        # log(1 - z)
    c = 0.5 * (1.0 + 1j * p.detuning / p.bandwidth)
    if np.exp(log_z1) < RZ_TAIL_LIMIT:
        return StateVector(np.array([0.0, 1.0 - 1.0 / c, 0.0]))
    z = np.exp(log_z)
    if z == 0.0:
        c_tau = 0.0                              # z^c -> 0 since Re c = 1/2 > 0
    else:
        c_tau = -(1j / c) * np.exp(c * log_z + (1.0 - c) * log_z1)
    return StateVector(np.array([0.0, 1.0 - z / c, c_tau]))


def overall_phase(omega: float, delta: float) -> float:
    """Phase picked up by |z> after one 2*pi pulse: 2*arctan(Omega/Delta).

    Branch: (0, pi] for Delta >= 0 with exactly pi at Delta = 0 (resonance),
    and (-pi, 0) for Delta < 0. Continuous in Delta on each sign.
    """
    if not omega > 0:
        raise ValueError("omega must be positive")
    if delta == 0.0:
        return float(np.pi)
    return float(2.0 * np.arctan(omega / delta))
