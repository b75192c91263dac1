"""Phase decomposition: closed-form checks, symmetries, method agreement.

The quadrature route has an exact independent oracle: the raw integrand
collapses analytically to alpha = 4*Omega*Delta/(Omega^2 + Delta^2)
= 2*sin(phi), derived by hand from the oscillatory-factor cancellation.
Production code integrates the unsimplified form; tests pin it to the
collapsed one.
"""

import numpy as np
import pytest

from sechspin.model import StateVector, SystemParams, larmor_from_field, two_pi_pulse
from sechspin.phases import (
    DecayForbidden,
    decompose,
    dynamic_phase_analytic,
    dynamic_phase_numeric,
    sweep_ratio,
)
from sechspin.propagator import PulseSchedule, propagate
from sechspin.special import overall_phase


def alpha_closed(omega, delta):
    return 4.0 * omega * delta / (omega ** 2 + delta ** 2)


@pytest.mark.parametrize("delta", [0.05, 0.3, 1.0, 2.0, 7.0, 40.0, -1.0, -12.0,
                                   1e3, -1e3, 200.0])
def test_quadrature_matches_collapsed_form(delta):
    got = dynamic_phase_analytic(1.0, delta)
    assert got == pytest.approx(alpha_closed(1.0, delta), abs=1e-9)
    assert got == pytest.approx(2.0 * np.sin(overall_phase(1.0, delta)), abs=1e-9)


@pytest.mark.parametrize("window", [20.0, 1e3, 1e4, 1e6])
@pytest.mark.parametrize("omega", [0.5, 1.0, 3.0])
def test_wide_windows_keep_the_pulse(window, omega):
    # the integrand is a sech^2 peak of width 1/Omega; a window far wider
    # than the pulse must not lose it
    for r in (1.0, 0.3, -4.0):
        got = dynamic_phase_analytic(omega, omega / r, window)
        assert abs(got - 4.0 * r / (1.0 + r * r)) < 1e-12


def test_maximum_value_and_location():
    assert dynamic_phase_analytic(1.0, 1.0) == pytest.approx(2.0, abs=1e-3)
    rs = np.geomspace(0.2, 5.0, 801)           # contains r = 1 at the midpoint
    vals = [dynamic_phase_analytic(1.0, 1.0 / r) for r in rs]
    assert abs(rs[int(np.argmax(vals))] - 1.0) < 0.01


@pytest.mark.parametrize("r", [0.1, 0.3, 0.5, 2.0, 5.0, 10.0])
def test_reciprocal_symmetry(r):
    a = dynamic_phase_analytic(1.0, 1.0 / r)
    b = dynamic_phase_analytic(1.0, r)         # ratio 1/r
    assert abs(a - b) < 1e-6


@pytest.mark.parametrize("r", [0.2, 1.0, 3.0])
def test_oddness_under_ratio_negation(r):
    d_pos = decompose(1.0, 1.0 / r, "analytic")
    d_neg = decompose(1.0, -1.0 / r, "analytic")
    assert abs(d_pos.overall + d_neg.overall) < 1e-9
    assert abs(d_pos.dynamic + d_neg.dynamic) < 1e-9
    assert abs(d_pos.geometric + d_neg.geometric) < 1e-9


def test_endpoint_zeros():
    assert abs(dynamic_phase_analytic(1.0, 1e3)) < 1e-2    # r = 1e-3
    assert abs(dynamic_phase_analytic(1.0, 1e-3)) < 1e-2   # r = 1e3


def test_positive_ratios_give_nonnegative_alpha():
    for r in np.geomspace(0.01, 100.0, 25):
        assert dynamic_phase_analytic(1.0, 1.0 / r) > -1e-9


def test_resonance_decomposition():
    d = decompose(1.0, 0.0, "analytic")
    assert d.overall == np.pi
    assert d.dynamic == 0.0
    assert d.geometric == np.pi
    assert d.ratio == float("inf")


def test_geometric_is_difference():
    d = decompose(1.0, 0.7, "analytic")
    assert d.geometric == d.overall - d.dynamic


def test_geometric_landmarks():
    rs = np.linspace(1.0, 2.0, 501)
    g = np.array([decompose(1.0, 1.0 / r, "analytic").geometric for r in rs])
    i = int(np.where(np.diff(np.sign(g)) != 0)[0][0])
    r_zero = rs[i] - g[i] * (rs[i + 1] - rs[i]) / (g[i + 1] - g[i])
    assert abs(r_zero - 1.39) < 0.02
    rs2 = np.linspace(0.3, 1.0, 701)
    g2 = np.array([decompose(1.0, 1.0 / r, "analytic").geometric for r in rs2])
    k = int(np.argmin(g2))
    assert abs(g2[k] - (-0.68)) < 0.02
    assert abs(rs2[k] - 0.58) < 0.02


@pytest.mark.parametrize("r", [0.1, 1.0, 10.0])
def test_method_agreement_without_precession(r):
    ana = decompose(1.0, 1.0 / r, "analytic")
    num = decompose(1.0, 1.0 / r, "numeric")
    assert abs(ana.dynamic - num.dynamic) < 1e-3
    assert abs(ana.overall - num.overall) < 1e-3


@pytest.mark.parametrize("delta", [1e3, -1e3, 1e4])
def test_far_detuned_numeric_matches_closed_form(delta):
    # the frame detuning turns at most MAX_FRAME_PHASE per step, so the
    # step count grows with |Delta| and the error does not
    ana = decompose(1.0, delta, "analytic")
    num = decompose(1.0, delta, "numeric")
    assert abs(num.overall - ana.overall) <= 1e-9
    assert abs(num.dynamic - ana.dynamic) <= 1e-9


def test_numeric_phase_branch():
    assert decompose(1.0, 1.0, "numeric").overall == pytest.approx(np.pi / 2, abs=1e-4)
    assert decompose(1.0, -1.0, "numeric").overall == pytest.approx(-np.pi / 2, abs=1e-4)


def test_precession_lowers_numeric_alpha():
    # Spin precession during the pulse lowers the dynamic phase below the
    # precession-free value, by about 5*(omega_B/eta)^2 at r = 1.
    s = SystemParams(omega_B=larmor_from_field(0.29))
    a_num = decompose(1.0, 1.0, "numeric", s).dynamic
    a_ana = decompose(1.0, 1.0, "analytic").dynamic
    assert a_num < a_ana


def test_numeric_decomposition_is_window_independent():
    # The spin is |z> at the pulse center and free precession is factored
    # out of the readout, so precession outside the pulse adds nothing to
    # alpha or phi: both describe the pulse, not the integration window.
    s = SystemParams(omega_B=larmor_from_field(0.29))
    ds = [decompose(1.0, 1.0, "numeric", s, window=w) for w in (20.0, 30.0, 40.0)]
    for d in ds[1:]:
        assert abs(d.dynamic - ds[0].dynamic) < 1e-6
        assert abs(d.overall - ds[0].overall) < 1e-6


def test_decay_rejected():
    p = two_pi_pulse(1.0, 1.0)
    s = SystemParams(trion_lifetime=900.0, decay_enabled=True)
    sched = PulseSchedule([p], (-20.0, 20.0))
    traj = propagate(StateVector.ket_z(), sched, s)
    with pytest.raises(DecayForbidden):
        dynamic_phase_numeric(traj, sched, s)


def test_parameter_validation():
    with pytest.raises(ValueError):
        dynamic_phase_analytic(0.0, 1.0)
    with pytest.raises(ValueError):
        dynamic_phase_analytic(1.0, 1.0, window=5.0)
    with pytest.raises(ValueError):
        decompose(1.0, 1.0, "magic")


def test_sweep_ratio():
    rs = [2.0, -0.5, 1.0]
    out = sweep_ratio(rs, "analytic")
    assert [d.ratio for d in out] == rs
    assert all(d.method == "analytic" for d in out)
    for bad in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            sweep_ratio([bad], "analytic")
