"""Units, parameter types and the three-level Hamiltonian."""

import numpy as np
import pytest

from sechspin.model import (
    PulseParams,
    StateVector,
    SystemParams,
    bandwidth_from_duration,
    coupling,
    larmor_from_field,
    sech,
    two_pi_pulse,
    warn_if_fast_precession,
)


def test_sech_stable_and_even():
    assert sech(0.0) == 1.0
    assert sech(1000.0) == pytest.approx(0.0, abs=1e-300)
    assert np.isfinite(sech(-1000.0))
    x = np.linspace(0.0, 30.0, 101)
    assert np.array_equal(sech(x), sech(-x))
    assert sech(float(np.arccosh(2.0))) == pytest.approx(0.5, rel=1e-14)


def test_larmor_reference_period():
    # populations go as cos^2(omega_B t), period pi/omega_B: about 0.43 ns
    w = larmor_from_field(0.29, 0.57)
    period = np.pi / w
    assert abs(period - 432.0) < 5.0


def test_larmor_linear():
    w1 = larmor_from_field(0.29)
    assert larmor_from_field(0.58) == pytest.approx(2 * w1, rel=1e-14)
    assert larmor_from_field(0.29, 1.14) == pytest.approx(2 * w1, rel=1e-14)
    assert larmor_from_field(0.0) == 0.0
    with pytest.raises(ValueError):
        larmor_from_field(-0.1)


def test_two_pi_pulse_flag_and_ratio():
    p = two_pi_pulse(1.5, 3.0)
    assert p.is_two_pi
    assert not PulseParams(1.0, 0.5, 2.0).is_two_pi


def test_pulse_validation():
    with pytest.raises(ValueError):
        PulseParams(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        PulseParams(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        PulseParams(1.0, 1.0, 0.0)


@pytest.mark.parametrize("name", ["rabi_peak", "detuning", "bandwidth", "center"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_pulse_rejects_non_finite(name, bad):
    values = dict(rabi_peak=1.0, detuning=0.5, bandwidth=1.0, center=0.0)
    values[name] = bad
    with pytest.raises(ValueError, match=name):
        PulseParams(**values)


def test_non_finite_field_and_precession_rejected():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="omega_B"):
            SystemParams(omega_B=bad)
        with pytest.raises(ValueError, match="B must be finite"):
            larmor_from_field(bad)
        with pytest.raises(ValueError, match="g must be finite"):
            larmor_from_field(0.29, bad)
    with pytest.raises(ValueError, match="trion_lifetime"):
        SystemParams(trion_lifetime=float("nan"))
    # an infinite lifetime stays legal: it means no decay
    assert SystemParams(trion_lifetime=float("inf")).decay_rate == 0.0


def test_system_validation_and_decay_rate():
    with pytest.raises(ValueError):
        SystemParams(omega_B=-0.1)
    with pytest.raises(ValueError):
        SystemParams(trion_lifetime=0.0)
    assert SystemParams().decay_rate == 0.0
    assert SystemParams(trion_lifetime=500.0).decay_rate == 1.0 / 1000.0
    s = SystemParams(trion_lifetime=900.0)
    assert s.decay_rate == 1.0 / 1800.0
    assert SystemParams(trion_lifetime=float("inf")).decay_rate == 0.0
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="trion_lifetime"):
            SystemParams(trion_lifetime=bad)


def test_state_vector():
    for ket in (StateVector([1.0, 0.0, 0.0]), StateVector.ket_z(),
                StateVector([0.0, 0.0, 1.0])):
        assert ket.norm_sq == 1.0
        assert ket.amplitudes.shape == (3,)
    with pytest.raises(ValueError):
        StateVector(np.zeros(2))
    sv = StateVector([0.6, 0.8j, 0.0])
    assert sv.norm_sq == pytest.approx(1.0, rel=1e-15)


def test_slow_precession_gate():
    assert SystemParams(omega_B=0.05).slow_precession(1.0)
    assert not SystemParams(omega_B=0.15).slow_precession(1.0)
    with pytest.warns(UserWarning):
        warn_if_fast_precession(SystemParams(omega_B=0.5), 1.0)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warn_if_fast_precession(SystemParams(omega_B=0.01), 1.0)


def test_coupling_sums_pulses():
    p1 = two_pi_pulse(1.0, 0.5, center=0.0)
    p2 = two_pi_pulse(1.0, -2.0, center=40.0)
    t = np.array([0.0, 1.0, 40.0])
    v = coupling(t, [p1, p2])
    assert v[0] == pytest.approx(1.0 + 0j, abs=1e-12)             # far tail of p2
    assert v[1] == pytest.approx(sech(1.0) * np.exp(-0.5j), abs=1e-12)
    assert v[2] == pytest.approx(1.0 + 0j, abs=1e-12)
    single = coupling(t, [p1])
    assert abs(v[0] - single[0]) < 1e-15


def test_duration_conventions():
    # time-constant: eta = 1/tau_d
    assert bandwidth_from_duration(1.5) == pytest.approx(1.0 / 1.5, rel=1e-15)
    # fwhm: envelope at +-tau_d/2 is half the peak
    eta = bandwidth_from_duration(1.5, "fwhm")
    p = two_pi_pulse(eta, 0.0)
    assert p.rabi_peak * sech(eta * 0.75) == pytest.approx(0.5 * p.rabi_peak, rel=1e-13)
    with pytest.raises(ValueError):
        bandwidth_from_duration(0.0)
    with pytest.raises(ValueError):
        bandwidth_from_duration(1.0, "area")
