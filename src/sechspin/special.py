"""The closed-form pulsed state and the Gauss hypergeometric function.

Under one sech pulse the driven pair (|z>, |trion>) has the Rosen-Zener
solution (Rosen & Zener, Phys. Rev. 40, 502 (1932)), two 2F1 functions of
z = (tanh(eta*(t - t_c)) + 1)/2 with a = Omega/eta and
c = (1 + i*Delta/eta)/2. For a 2*pi pulse a = 1 and both are elementary
(NIST DLMF 15.8): 2F1(1, -1; c; z) = 1 - z/c terminates, and
2F1(1 + c, c - 1; 1 + c; z) = (1 - z)^(1 - c). rz_state evaluates these
forms for one time point on Python floats (math and cmath), in half the
time a call took on numpy scalars. A vectorized Y(t) over a time grid
(ROADMAP item 10) should be a function of its own: routing scalar rz_state
calls through numpy would give that factor 2 back on every closed-form
trajectory.

hyp2f1 sums 2F1(a, b; c; z) for complex parameters and z in [0, 1]. Its
Gauss-sum and connection-formula branches take their gamma-function ratios
from _loggamma, a Lanczos log-gamma (C. Lanczos, SIAM J. Numer. Anal. B 1,
86 (1964); g = 7, nine coefficients) with the reflection formula for
Re z < 1/2. exp(_loggamma(z)) is within 2.4e-13 (relative) of Gamma(z) for
|Im z| <= 60 and 1.7e-12 for |Im z| <= 1e3 (Re z in [-3, 4]); the error
grows with |z|, as the rounding of (z - 1/2)*log(z + 6.5) does. A ratio is
formed as exp of a sum of log-gammas, so it neither overflows nor
underflows where the single gammas would.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .model import PulseParams, StateVector

SERIES_RTOL = 1e-12
SERIES_MAX_TERMS = 10 ** 6
LANCZOS_G = 7.0
LANCZOS_COEFFS = (0.99999999999980993, 676.5203681218851, -1259.1392167224028,
                  771.32342877765313, -176.61502916214059, 12.507343278686905,
                  -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7)


class NonConvergence(ArithmeticError):
    """Series failed to reach tolerance within the term cap."""


class InvalidC(ValueError):
    """c parameter is a non-positive integer (gamma pole on every term)."""


def _is_nonpositive_int(x: complex) -> bool:
    return x.imag == 0.0 and x.real <= 0.0 and float(x.real).is_integer()


@dataclass(frozen=True)
class HypParams:
    """Arguments of 2F1(a, b; c; z)."""

    a: complex
    b: complex
    c: complex
    z: float

    def __post_init__(self):
        if _is_nonpositive_int(self.c):
            raise InvalidC("c = %r is a non-positive integer" % (self.c,))
        if not 0.0 <= self.z <= 1.0:
            raise ValueError("z must lie in [0, 1], got %r" % (self.z,))


def _log_sin_pi(z: complex) -> complex:
    """log sin(pi*z), up to a multiple of 2*pi*i. z is first reduced by its
    nearest integer n, so points near a pole keep their digits, and
    sin(pi*w) is formed scaled by e^-|pi*Im w|, so it cannot overflow."""
    n = round(z.real)
    x, y = math.pi * (z.real - n), math.pi * z.imag
    decay = math.expm1(-2.0 * abs(y))          # e^(-2|y|) - 1
    scaled = complex(math.sin(x) * (1.0 + 0.5 * decay),
                     math.copysign(-0.5 * decay, y) * math.cos(x))
    return cmath.log(scaled) + complex(abs(y), math.pi * n)


def _loggamma(z: complex) -> complex:
    """A logarithm of Gamma(z), up to a multiple of 2*pi*i; z must not be a
    pole (a non-positive integer)."""
    z = complex(z)
    if z.real < 0.5:                            # reflection formula
        return math.log(math.pi) - _log_sin_pi(z) - _loggamma(1.0 - z)
    z -= 1.0
    x = LANCZOS_COEFFS[0]
    for k in range(1, len(LANCZOS_COEFFS)):
        x += LANCZOS_COEFFS[k] / (z + k)
    t = z + LANCZOS_G + 0.5
    return 0.5 * math.log(2.0 * math.pi) + (z + 0.5) * cmath.log(t) - t + cmath.log(x)


def _gamma_ratio(num, den) -> complex:
    """prod Gamma(num) / prod Gamma(den); exactly 0 when an argument in den
    is a pole, where 1/Gamma vanishes."""
    if any(map(_is_nonpositive_int, den)):
        return 0j
    return cmath.exp(sum(map(_loggamma, num)) - sum(map(_loggamma, den)))


def _series(a, b, c, z):
    """Direct power series sum of 2F1. Terminates exactly when a or b is a
    non-positive integer; otherwise stops on two consecutive negligible terms."""
    total = term = 1.0 + 0.0j
    small_streak = 0
    for n in range(SERIES_MAX_TERMS):
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
        % (SERIES_MAX_TERMS, a, b, c, z))


def _gauss_value(a, b, c):
    """2F1 at z = 1, Gauss summation. Needs Re(c - a - b) > 0."""
    s = c - a - b
    if s.real <= 0:
        raise NonConvergence("2F1 at z=1 diverges for Re(c-a-b) <= 0")
    return _gamma_ratio((c, s), (c - a, c - b))


def hyp2f1(h: HypParams) -> complex:
    """2F1(a, b; c; z) for z in [0, 1], relative accuracy ~1e-12 for
    moderate parameters.

    Terminating cases are summed exactly: a or b a non-positive integer
    directly, c - a or c - b one through Euler's transformation (so the
    Rosen-Zener trion factor 2F1(1+c, c-1; 1+c; z) is (1 - z)^(1-c) at
    every |Im c|). z = 1 is the Gauss sum. Otherwise z <= 0.5 sums the
    defining series directly, which cancels when |Im c| is large:
    2F1(a+c, c-a; 1+c; 0.5) at a = 0.3, c = 0.5 + 50i is 5.8e-6 (relative)
    from mpmath. z > 0.5 uses the z -> 1 - z connection formula, valid
    because c - a - b is never an integer for the parameter families used
    here (Re(c-a-b) = 1/2). Within 1 - z of an integer n its two terms each
    grow as 1/|c-a-b - n| and cancel, so the direct series is used instead:
    it still converges for z < 1, and its own error, about
    SERIES_RTOL/(1 - z) from the terms it drops, is then the smaller. The
    gamma-function branches inherit _loggamma's error, 1.8e-12 at
    |Im c| = 500.
    """
    a, b, c, z = h.a, h.b, h.c, h.z
    if z == 0.0:
        return 1.0 + 0.0j
    # terminating cases are exact at any z and dodge the connection formula
    if _is_nonpositive_int(a) or _is_nonpositive_int(b):
        return _series(a, b, c, z)
    if z == 1.0:
        return _gauss_value(a, b, c)
    s = c - a - b
    # Euler's transformation (1 - z)^s * 2F1(c - a, c - b; c; z) terminates
    if _is_nonpositive_int(c - a) or _is_nonpositive_int(c - b):
        return (1.0 - z) ** s * _series(c - a, c - b, c, z)
    if z <= 0.5:
        return _series(a, b, c, z)
    if abs(s - np.round(s.real)) < 1.0 - z:
        return _series(a, b, c, z)
    z1 = 1.0 - z
    f1 = _gamma_ratio((c, s), (c - a, c - b)) * _series(a, b, 1.0 - s + 0j, z1)
    f2 = _gamma_ratio((c, -s), (a, b)) * z1 ** s * _series(c - a, c - b, 1.0 + s, z1)
    return f1 + f2


def _log1p_exp(y: float) -> float:
    """log(1 + e^y), exact to rounding for every y and never overflowing."""
    if y > 0.0:
        return y + math.log1p(math.exp(-y))
    return math.log1p(math.exp(y))


def rz_state(t: float, p: PulseParams) -> StateVector:
    """Closed-form state at time t for a single 2*pi pulse, precession neglected.

    t is one float (numpy float64 included); t = -inf and +inf are the far
    past and future, NaN is refused with ValueError. Initial condition is
    |z> in the far past. The zbar amplitude is identically zero in this
    approximation; do not extrapolate it to omega_B > 0. The amplitudes are
    c_z = 1 - z/c and c_tau = -(i/c) * z^c * (1 - z)^(1 - c), with log z and
    log(1 - z) taken as -log(1 + e^(-+2x)), x = eta*(t - t_c): neither z nor
    1 - z is formed as 1 minus the other, so the trion amplitude keeps its
    digits in both tails, at every t. c_tau is exactly 0 only where
    |z^c * (1 - z)^(1 - c)| underflows, or where its phase overflows and
    |c_tau| underflows; where the phase overflows and |c_tau| does not
    (|Delta/eta| near the largest double), ValueError names t and the
    detuning. Pulses of another area are refused with ValueError.
    """
    if not p.is_two_pi:
        raise ValueError("rz_state needs a 2*pi pulse (rabi_peak == bandwidth), "
                         "got rabi_peak = %r, bandwidth = %r" % (p.rabi_peak, p.bandwidth))
    t = float(t)
    if math.isnan(t):
        raise ValueError("t must be a number, got nan")
    x = p.bandwidth * (t - p.center)
    log_z = -_log1p_exp(-2.0 * x)
    log_z1 = -_log1p_exp(2.0 * x)               # log(1 - z)
    c = 0.5 * (1.0 + 1j * p.detuning / p.bandwidth)
    # Re c = Re(1 - c) = 1/2: the real part of the exponent. Where its exp
    # underflows, c_tau is 0 in doubles, and the imaginary part may be inf
    if math.exp(0.5 * (log_z + log_z1)) == 0.0:
        c_tau = 0j
    else:
        try:
            c_tau = -(1j / c) * cmath.exp(c * log_z + (1.0 - c) * log_z1)
        except ValueError:
            # the phase, about Delta*(t - t_c), overflowed (|Delta/eta| past
            # about 1e305): c_tau is 0 where |c_tau| = e^Re/|c| underflows
            if math.exp(0.5 * (log_z + log_z1)) / abs(c) != 0.0:
                raise ValueError("the trion amplitude's phase overflows at t = %r, "
                                 "detuning = %r" % (t, p.detuning)) from None
            c_tau = 0j
    return StateVector._of(np.array([0j, 1.0 - math.exp(log_z) / c, c_tau]))


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
