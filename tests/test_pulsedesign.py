"""Canceling-pair construction, inversion and cancellation checks."""

import numpy as np
import pytest

from sechspin import phases
from sechspin.model import SystemParams, larmor_from_field, two_pi_pulse
from sechspin.phases import decompose, dynamic_phase_analytic
from sechspin.propagator import propagate_many
from sechspin.pulsedesign import (
    CancelingPair,
    OutOfRange,
    ZeroRatio,
    cancel_pair,
    default_spacing,
    design_for_angle,
    total_geometric_phase,
    verify_cancellation,
)
from sechspin.special import overall_phase

TARGETS = [0.1, -0.1, np.pi / 4, -np.pi / 4, np.pi / 2, -np.pi / 2,
           3 * np.pi / 4, -3 * np.pi / 4, 3.0, -3.0]


@pytest.mark.parametrize("gamma", TARGETS)
def test_round_trip(gamma):
    pair = design_for_angle(gamma, 1.0)
    assert abs(total_geometric_phase(pair.r1) - gamma) < 1e-12
    assert pair.r1 > 0                        # canonical branch
    flipped = cancel_pair(np.tan((gamma - np.pi) / 4.0), 1.0)
    assert abs(total_geometric_phase(flipped.r1) - gamma) < 1e-12
    assert flipped.r1 < 0


def test_flipped_pair_is_detuning_swap():
    # the mirror branch runs the same two detunings in the other order
    pair = design_for_angle(1.1, 1.0)
    flip = cancel_pair(np.tan((1.1 - np.pi) / 4.0), 1.0)
    assert flip.pulse1.detuning == pytest.approx(pair.pulse2.detuning, rel=1e-12)
    assert flip.pulse2.detuning == pytest.approx(pair.pulse1.detuning, rel=1e-12)


@pytest.mark.parametrize("r1", [0.3, 1.0, 4.2])
def test_antisymmetry(r1):
    assert total_geometric_phase(-r1) == pytest.approx(
        -total_geometric_phase(r1), abs=1e-15)


def test_monotone_increasing():
    g = [total_geometric_phase(r) for r in np.geomspace(1e-3, 1e3, 400)]
    assert np.all(np.diff(g) > 0)
    assert -np.pi < g[0] < g[-1] < np.pi


def test_range_limits():
    assert total_geometric_phase(1.0) == 0.0
    assert total_geometric_phase(1e-8) == pytest.approx(-np.pi, abs=1e-7)
    assert total_geometric_phase(1e8) == pytest.approx(np.pi, abs=1e-7)


@pytest.mark.parametrize("r1", [0.2, 0.58, 1.0, 1.39, 5.0, 10.0])
def test_cancellation_analytic(r1):
    pair = cancel_pair(r1, 1.0)
    assert abs(verify_cancellation(pair)) < 1e-6


@pytest.mark.parametrize("gamma, omega", [(-2.9, 1.0), (0.3, 1.0), (1.2, 2.0), (2.75, 0.5)])
def test_analytic_residual_is_sum_of_scalar_calls(gamma, omega):
    # one array call for the pair gives the same bits as two scalar calls,
    # and a plain float as before
    pair = design_for_angle(gamma, omega)
    a1 = dynamic_phase_analytic(omega, pair.pulse1.detuning)
    a2 = dynamic_phase_analytic(omega, pair.pulse2.detuning)
    residual = verify_cancellation(pair)
    assert residual == a1 + a2
    assert type(residual) is float


def test_unit_ratio_pair_phases():
    # r1 = 1: the two pulses carry dynamic phases +2 and -2 exactly
    pair = cancel_pair(1.0, 1.0)
    assert dynamic_phase_analytic(1.0, pair.pulse1.detuning) == pytest.approx(2.0, abs=1e-9)
    assert dynamic_phase_analytic(1.0, pair.pulse2.detuning) == pytest.approx(-2.0, abs=1e-9)


def test_cancellation_numeric_without_precession():
    pair = cancel_pair(1.0, 1.0)
    residual = verify_cancellation(pair, SystemParams(), method="numeric")
    assert abs(residual) < 1e-4


@pytest.mark.parametrize("gamma, field", [(-2.9, 0.29), (0.3, 0.0), (1.2, 2.7)])
def test_numeric_residual_is_sum_of_lone_decompositions(monkeypatch, gamma, field):
    # the pair's two trajectories come from one propagate_many call, and
    # its residual has the bits of two lone numeric decompositions
    pair = design_for_angle(gamma, 1.0)
    s = SystemParams(omega_B=larmor_from_field(field))
    a1 = decompose(1.0, pair.pulse1.detuning, "numeric", s).dynamic
    a2 = decompose(1.0, pair.pulse2.detuning, "numeric", s).dynamic
    calls = []

    def counting(psi0s, scheds, *args):
        calls.append(len(scheds))
        return propagate_many(psi0s, scheds, *args)

    monkeypatch.setattr(phases, "propagate_many", counting)
    assert verify_cancellation(pair, s, method="numeric") == a1 + a2
    assert calls == [2]


def test_full_annihilation_alternative_pairing():
    # r2 = -r1 kills overall and geometric phase alike
    for r in (0.5, 1.0, 3.0):
        phi = overall_phase(1.0, 1.0 / r) + overall_phase(1.0, -1.0 / r)
        alpha = (dynamic_phase_analytic(1.0, 1.0 / r)
                 + dynamic_phase_analytic(1.0, -1.0 / r))
        assert abs(phi) < 1e-12
        assert abs(alpha) < 1e-12
        assert abs((phi - alpha)) < 1e-12     # gamma1 + gamma2


def test_pair_structure():
    pair = cancel_pair(2.0, 1.5, spacing=30.0)
    assert pair.r2 == -0.5
    assert pair.pulse1.detuning == 0.75       # Omega/r1
    assert pair.pulse2.detuning == -3.0       # -Omega*r1
    assert pair.pulse1.is_two_pi and pair.pulse2.is_two_pi
    assert pair.pulse2.center - pair.pulse1.center == 30.0
    assert pair.gamma_tot == total_geometric_phase(2.0)
    assert default_spacing(0.5) == 28.0


def test_design_errors():
    for bad in (np.pi, -np.pi, 3.5, -4.0):
        with pytest.raises(OutOfRange):
            design_for_angle(bad, 1.0)
    with pytest.raises(ZeroRatio):
        cancel_pair(0.0, 1.0)
    with pytest.raises(ZeroRatio):
        cancel_pair(float("inf"), 1.0)
    with pytest.raises(ZeroRatio):
        total_geometric_phase(0.0)
    with pytest.raises(ValueError):
        cancel_pair(1.0, 1.0, spacing=5.0)    # pulses would collide
    with pytest.raises(ValueError):
        verify_cancellation(cancel_pair(1.0, 1.0), method="magic")


def test_pair_is_plain_data():
    pair = CancelingPair(1.0, two_pi_pulse(1.0, 1.0, 0.0),
                         two_pi_pulse(1.0, -1.0, 14.0), 14.0)
    assert pair.gamma_tot == 0.0
