"""Two-pulse sequences whose dynamic phases cancel.

The dynamic phase of a 2*pi pulse is even under r -> 1/r and odd under
r -> -r, so a partner pulse at r2 = -1/r1 contributes the exact opposite
dynamic phase while the overall phases add. The sequence then implements
a pure geometric z-rotation by gamma_tot = 2*arctan(r1) + 2*arctan(-1/r1).
Only the detuning differs between the two pulses; the bandwidth (and with
it the Rabi peak, 2*pi pulses) is the fixed experimental knob.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import PulseParams, SystemParams, _require_finite, two_pi_pulse
from .phases import DEFAULT_WINDOW, _decompositions


class ZeroRatio(ValueError):
    """r = 0 does not correspond to any pulse (infinite detuning)."""


class OutOfRange(ValueError):
    """Target angle outside (-pi, pi); use a single resonant pulse for pi."""


@dataclass(frozen=True)
class CancelingPair:
    r1: float
    pulse1: PulseParams
    pulse2: PulseParams
    spacing: float     # ps between centers

    @property
    def r2(self) -> float:
        return -1.0 / self.r1

    @property
    def gamma_tot(self) -> float:
        return total_geometric_phase(self.r1)


def default_spacing(omega: float) -> float:
    """14 pulse durations between centers, reading the duration as the sech
    time constant 1/eta (= 1/Omega for 2*pi pulses)."""
    return 14.0 / omega


def cancel_pair(r1: float, omega: float,
                spacing: Optional[float] = None) -> CancelingPair:
    """Pair of 2*pi pulses with Delta1 = Omega/r1 and Delta2 = -Omega*r1."""
    if r1 == 0.0 or not np.isfinite(r1):
        raise ZeroRatio("r1 must be finite and nonzero")
    _require_finite(omega=omega)
    if not omega > 0:
        raise ValueError("omega must be positive")
    spacing = default_spacing(omega) if spacing is None else float(spacing)
    _require_finite(spacing=spacing)
    if spacing < 10.0 / omega:
        raise ValueError("spacing must be at least 10 pulse durations")
    p1 = two_pi_pulse(bandwidth=omega, detuning=omega / r1, center=0.0)
    p2 = two_pi_pulse(bandwidth=omega, detuning=-omega * r1, center=spacing)
    return CancelingPair(r1=float(r1), pulse1=p1, pulse2=p2, spacing=spacing)


def total_geometric_phase(r1: float) -> float:
    """gamma_tot = 2*arctan(r1) + 2*arctan(-1/r1), in (-pi, pi)."""
    if r1 == 0.0 or not np.isfinite(r1):
        raise ZeroRatio("r1 must be finite and nonzero")
    return float(2.0 * np.arctan(r1) + 2.0 * np.arctan(-1.0 / r1))


def design_for_angle(gamma_target: float, omega: float,
                     spacing: Optional[float] = None) -> CancelingPair:
    """Invert gamma_tot(r1) for a target angle in (-pi, pi).

    The canonical branch r1 = tan((gamma + pi)/4) is positive for every
    target and keeps reports deterministic. The mirror solution
    r1 = tan((gamma - pi)/4) < 0 (cancel_pair of that r1) runs the same
    two detunings in the other order.
    """
    if not abs(gamma_target) < np.pi:
        raise OutOfRange(
            "|gamma_target| must be < pi; a rotation by pi needs only a "
            "single resonant pulse")
    r1 = float(np.tan((gamma_target + np.pi) / 4.0))
    return cancel_pair(r1, omega, spacing)


def verify_cancellation(pair: CancelingPair, s: Optional[SystemParams] = None,
                        method: str = "analytic") -> float:
    """Residual alpha1 + alpha2 of the pair.

    Method "analytic" cancels to rounding, since its alpha is even under
    r -> 1/r in closed form. Method "numeric" with omega_B > 0 reports the
    small precession-induced residual; it is measured, not asserted to
    vanish. Both detunings go to one call (for "numeric", one pack); a
    sweep over ratios would not give back Delta2 = -Omega*r1 to the bit.
    """
    a1, a2 = (d.dynamic for d in _decompositions(
        pair.pulse1.rabi_peak, [pair.pulse1.detuning, pair.pulse2.detuning],
        method, s, DEFAULT_WINDOW, None))
    return float(a1 + a2)
