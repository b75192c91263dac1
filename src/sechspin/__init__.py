"""Sech-pulse spin rotations in a quantum-dot lambda system.

Phase decomposition (geometric vs dynamic) of 2*pi hyperbolic-secant pulse
rotations, design of two-pulse sequences whose dynamic phases cancel, and
average gate fidelity under spin precession and trion decay.
"""

from .model import (
    PulseParams,
    StateVector,
    SystemParams,
    bandwidth_from_duration,
    larmor_from_field,
    two_pi_pulse,
)
from .special import HypParams, hyp2f1, overall_phase, rz_state
from .propagator import (
    IntegratorOpts,
    PulseSchedule,
    Trajectory,
    evolve_operator,
    propagate,
    schedule_for_pulses,
    truncate_qubit,
)
from .phases import (
    PhaseDecomposition,
    decompose,
    dynamic_phase_analytic,
    dynamic_phase_numeric,
    sweep_ratio,
)
from .pulsedesign import (
    CancelingPair,
    cancel_pair,
    design_for_angle,
    total_geometric_phase,
    verify_cancellation,
)
from .fidelity import (
    GateReport,
    average_fidelity,
    fidelity_sweep,
    gate_report,
    ideal_rotation,
)

__version__ = "0.1.0"

__all__ = [
    "PulseParams", "StateVector", "SystemParams",
    "bandwidth_from_duration", "larmor_from_field", "two_pi_pulse",
    "HypParams", "hyp2f1", "overall_phase", "rz_state",
    "IntegratorOpts", "PulseSchedule", "Trajectory", "evolve_operator",
    "propagate", "schedule_for_pulses", "truncate_qubit",
    "PhaseDecomposition", "decompose", "dynamic_phase_analytic",
    "dynamic_phase_numeric", "sweep_ratio",
    "CancelingPair", "cancel_pair", "design_for_angle",
    "total_geometric_phase", "verify_cancellation",
    "GateReport", "average_fidelity", "fidelity_sweep", "gate_report",
    "ideal_rotation",
]
