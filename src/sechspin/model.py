"""Physical types, units and the pulse coupling.

Everything internal runs in rad/ps for angular frequencies and ps for
times, with hbar = 1. The only unit conversions live in
``larmor_from_field`` (Tesla in) and ``bandwidth_from_duration``
(pulse duration in ps in). Basis ordering is (zbar, z, trion)
throughout.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# CODATA 2018
BOHR_MAGNETON = 9.2740100783e-24   # J/T
HBAR = 1.054571817e-34             # J*s
G_FACTOR_DEFAULT = 0.57

# margin (in units of 1/eta) at which the sech envelope has fallen to 1e-8
# of its peak: sech(x) = 1e-8 at x = arccosh(1e8)
ENVELOPE_TAIL_ARG = float(np.arccosh(1e8))


def _require_finite(**values) -> None:
    """Reject NaN and +-inf where the types are built, naming the parameter."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError("%s must be finite, got %r" % (name, float(value)))


@dataclass(frozen=True)
class PulseParams:
    """One sech pulse: amplitude rabi_peak * sech(bandwidth * (t - center)).

    The rotating-frame phase exp(-i*detuning*(t - center)) is anchored at
    the pulse's own center, so trains of pulses compose without carrier
    phase bookkeeping leaking across pulses.
    """

    rabi_peak: float        # rad/ps, > 0
    detuning: float         # rad/ps, signed
    bandwidth: float        # rad/ps, > 0
    center: float = 0.0     # ps

    def __post_init__(self):
        _require_finite(rabi_peak=self.rabi_peak, detuning=self.detuning,
                        bandwidth=self.bandwidth, center=self.center)
        if not self.rabi_peak > 0:
            raise ValueError("rabi_peak must be positive")
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")

    @property
    def is_two_pi(self) -> bool:
        return self.rabi_peak == self.bandwidth


def two_pi_pulse(bandwidth: float, detuning: float, center: float = 0.0) -> PulseParams:
    """Pulse of area exactly 2*pi: rabi_peak locked to bandwidth."""
    return PulseParams(rabi_peak=bandwidth, detuning=detuning,
                       bandwidth=bandwidth, center=center)


@dataclass(frozen=True)
class SystemParams:
    """Environment: precession frequency and trion lifetime. Decay is on
    exactly when the lifetime is finite."""

    omega_B: float = 0.0                  # rad/ps, >= 0
    trion_lifetime: float = float("inf")  # ps, > 0; inf means no decay

    def __post_init__(self):
        _require_finite(omega_B=self.omega_B)
        if self.omega_B < 0:
            raise ValueError("omega_B must be nonnegative")
        if not self.trion_lifetime > 0:
            raise ValueError("trion_lifetime must be positive, got %r" % (self.trion_lifetime,))

    @property
    def decay_rate(self) -> float:
        """Coefficient of the -i*decay_rate trion diagonal, 1/(2*tau_t);
        0 for an infinite lifetime."""
        return 1.0 / (2.0 * self.trion_lifetime)

    def slow_precession(self, bandwidth: float) -> bool:
        """True when omega_B << bandwidth (threshold omega_B/eta < 0.1)."""
        return self.omega_B < 0.1 * bandwidth


def warn_if_fast_precession(s: SystemParams, bandwidth: float, stacklevel: int = 2) -> None:
    """Warn when omega_B/eta >= 0.1, at the frame stacklevel - 1 above
    the caller (as for warnings.warn; by default the caller's line). The
    propagator's grid builder points it at the line that called
    propagate, propagate_many, evolve_operators or evolve_operator."""
    if not s.slow_precession(bandwidth):
        warnings.warn(
            "omega_B/eta = %.3g >= 0.1: outside the slow-precession regime, "
            "analytic single-pulse results degrade" % (s.omega_B / bandwidth),
            stacklevel=stacklevel,
        )


@dataclass(frozen=True, eq=False)
class StateVector:
    """Amplitudes over (|zbar>, |z>, |trion>)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (3,):
            raise ValueError("StateVector needs exactly 3 amplitudes")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def _of(cls, amps: np.ndarray) -> "StateVector":
        """Wrap amps as they are, with no conversion or shape check: only
        for a complex (3,) array the caller has just built."""
        state = object.__new__(cls)
        object.__setattr__(state, "amplitudes", amps)
        return state

    @property
    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    @classmethod
    def ket_z(cls) -> "StateVector":
        return cls(np.array([0.0, 1.0, 0.0], dtype=complex))


def sech(x):
    """Numerically safe sech, vectorized. Never overflows."""
    ax = np.abs(x)
    e = np.exp(-ax)
    return 2.0 * e / (1.0 + e * e)


def coupling(t, pulses) -> np.ndarray:
    """Summed complex coupling V(t) = sum_k Omega_k(t) exp(-i Delta_k (t-c_k)).

    This is the (z, trion) entry of the Hamiltonian. Vectorized in t for the
    numeric dynamic phase, which may pass each pulse's rabi_peak, detuning,
    bandwidth and center as arrays of t's shape, one value a time.
    """
    t = np.asarray(t, dtype=float)
    v = np.zeros(t.shape, dtype=complex)
    for p in pulses:
        tt = t - p.center
        v += p.rabi_peak * sech(p.bandwidth * tt) * np.exp(-1j * p.detuning * tt)
    return v


def free_precession(omega_B, dt) -> np.ndarray:
    """Exact two-level precession block for time dt, basis (zbar, z):
    (2, 2), or (..., 2, 2) over the broadcast leading axes of omega_B and
    dt, each block with the bits it gets alone."""
    angle = np.multiply(omega_B, dt)
    c, s = np.cos(angle), np.sin(angle)
    u = np.empty(np.shape(angle) + (2, 2), dtype=complex)
    u[..., 0, 0] = u[..., 1, 1] = c
    u[..., 0, 1] = u[..., 1, 0] = -1j * s
    return u


def larmor_from_field(B: float, g: float = G_FACTOR_DEFAULT) -> float:
    """omega_B in rad/ps from field in Tesla.

    Convention: omega_B = g*mu_B*B/(2*hbar), so that the observable
    precession of populations, |<z|psi>|^2 = cos^2(omega_B t), has period
    pi/omega_B = 2*pi*hbar/(g*mu_B*B). At B = 0.29 T and g = 0.57 this is
    about 432 ps.
    """
    _require_finite(B=B, g=g)
    if B < 0:
        raise ValueError("B must be nonnegative")
    if g < 0 and B > 0:
        raise ValueError("g must be nonnegative where B > 0, got %r" % float(g))
    omega_b = g * BOHR_MAGNETON * B / (2.0 * HBAR) * 1e-12
    if not math.isfinite(omega_b):
        raise ValueError("B must be small enough that omega_B is finite, got %r at g = %r"
                         % (float(B), float(g)))
    return omega_b


def bandwidth_from_duration(tau_d: float, convention: str = "time-constant") -> float:
    """Map a quoted pulse duration tau_d [ps] to the sech bandwidth eta [rad/ps].

    "time-constant" reads tau_d as the sech time constant, eta = 1/tau_d
    (the package default; it reproduces the reference gate fidelities).
    "fwhm" reads tau_d as the full width at half maximum of the amplitude,
    eta = 2*arccosh(2)/tau_d.
    """
    _require_finite(tau_d=tau_d)
    if not tau_d > 0:
        raise ValueError("tau_d must be positive")
    if convention == "time-constant":
        eta = 1.0 / tau_d
    elif convention == "fwhm":
        eta = 2.0 * float(np.arccosh(2.0)) / tau_d
    else:
        raise ValueError("unknown duration convention %r" % (convention,))
    if not math.isfinite(eta):
        raise ValueError("tau_d must be large enough that the bandwidth is finite, got %r"
                         % float(tau_d))
    return eta
