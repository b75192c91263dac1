"""Hypergeometric evaluator and the closed-form pulsed state.

The high-precision oracle is mpmath (test-only dependency); production code
never imports it.
"""

import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sechspin.model import PulseParams, two_pi_pulse
from sechspin.special import (
    HypParams,
    InvalidC,
    NonConvergence,
    _gamma_ratio,
    _loggamma,
    hyp2f1,
    overall_phase,
    rz_state,
)

mp.mp.dps = 40


def test_z_zero_is_one():
    assert hyp2f1(HypParams(0.37 + 1.2j, -4.1, 0.5 + 0.3j, 0.0)) == 1.0 + 0.0j


def test_terminating_case_exact():
    # b = -1 truncates the series after one term: 1 - z/c, bitwise for real c
    for z in (0.25, 0.5, 0.75, 1.0):
        assert hyp2f1(HypParams(1.0, -1.0, 2.0, z)) == 1.0 - z / 2.0
    # complex c keeps it to one rounding of the single division
    c = 0.5 + 0.35j
    for z in (0.3, 0.75):
        assert abs(hyp2f1(HypParams(1.0, -1.0, c, z)) - (1.0 - z / c)) < 5e-16
    # deeper polynomial: b = -3 against mpmath
    got = hyp2f1(HypParams(0.8, -3.0, 1.3 + 0.4j, 0.9))
    ref = complex(mp.hyp2f1(0.8, -3, mp.mpc(1.3, 0.4), 0.9))
    assert abs(got - ref) < 1e-14


def test_gauss_point():
    # 2F1(1/2,-1/2;1;1) = Gamma(1)Gamma(1)/(Gamma(1/2)Gamma(3/2)) = 2/pi
    assert hyp2f1(HypParams(0.5, -0.5, 1.0, 1.0)) == pytest.approx(2.0 / np.pi, abs=1e-14)


def test_gauss_divergent_raises():
    with pytest.raises(NonConvergence):
        hyp2f1(HypParams(1.0, 0.5, 1.0, 1.0))   # Re(c-a-b) = -0.5


def test_invalid_c():
    for c in (0.0, -1.0, -2.0 + 0.0j):
        with pytest.raises(InvalidC):
            HypParams(0.5, -0.5, c, 0.3)
    HypParams(0.5, -0.5, -0.5, 0.3)             # negative non-integer is fine


def test_z_domain():
    for z in (-0.1, 1.1):
        with pytest.raises(ValueError):
            HypParams(0.5, -0.5, 1.0, z)


def _loggamma_err(z):
    # |log-gamma - mpmath's| with the 2*pi*i branch offset removed: the
    # relative error of Gamma(z) itself
    d = mp.mpc(_loggamma(z)) - mp.loggamma(z)
    return abs(complex(d - 2j * mp.pi * mp.nint(mp.im(d) / (2 * mp.pi))))


def test_loggamma_against_mpmath():
    # near the poles the reduction by the nearest integer keeps the digits
    # (measured <= 3.1e-15)
    for z in (-2 + 1e-7, -2 - 1e-7, complex(-0.5, 1e-9), complex(-3.0, 1e-12), 1e-9):
        assert _loggamma_err(z) < 1e-14
    # across both half-planes at |Im z| = 60 and 1e3 (measured 2.3e-13 and
    # 1.3e-12): the rounding of (z - 1/2)*log(z + 6.5) grows with |z|
    for im, bound in ((60.0, 5e-13), (1e3, 4e-12)):
        worst = max(_loggamma_err(complex(x, sign * im))
                    for x in np.linspace(-3.0, 4.0, 29) for sign in (1.0, -1.0))
        assert worst < bound


def test_gamma_ratio_pole_in_denominator_is_exact_zero():
    assert _gamma_ratio((0.5 + 2j, 1.5), (-2.0, 0.3)) == 0.0
    assert _gamma_ratio((0.5,), (1.0,)) == pytest.approx(np.sqrt(np.pi), rel=1e-15)


@pytest.mark.parametrize("z", [0.7, 1.0])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_far_detuned_gamma_branches_against_mpmath(z, sign):
    # |Im c| = 500: the single gammas of the connection formula (z = 0.7)
    # and of the Gauss sum (z = 1) over- and underflow a double, their
    # ratios do not (measured 1.8e-12)
    a, b, c = 0.3, -0.3, complex(0.5, sign * 500.0)
    ref = complex(mp.hyp2f1(a, b, c, z))
    assert abs(hyp2f1(HypParams(a, b, c, z)) - ref) < 4e-12 * abs(ref)


@pytest.mark.parametrize("im_c", [50.0, -50.0, 500.0, -500.0])
def test_trion_factor_terminates_by_euler_transformation(im_c):
    # 2F1(1 + c, c - 1; 1 + c; z) = (1 - z)^(1 - c): c - a = 0, so Euler's
    # transformation leaves a terminating series; the direct series at
    # z = 0.5 cancels to 9.7e-6 at |Im c| = 50 (measured 4.4e-13 here)
    c = complex(0.5, im_c)
    for z in (0.05, 0.3, 0.5, 0.7, 0.9, 0.99):
        ref = complex(mp.hyp2f1(1 + c, c - 1, 1 + c, z))
        assert abs(hyp2f1(HypParams(1 + c, c - 1, 1 + c, z)) - ref) < 1e-12 * abs(ref)


def test_against_mpmath_physical_family():
    # parameters as they arise from 2pi pulses: a = Omega/eta, c = (1+i*Delta/eta)/2
    worst = 0.0
    for a in (0.3, 1.0, 2.5):
        for dr in (-5.0, -1.0, 0.3, 2.0, 10.0):
            c = 0.5 * (1 + 1j * dr)
            for z in (0.05, 0.3, 0.5, 0.7, 0.95, 0.999):
                for aa, bb, cc in ((a, -a, c), (a + c, -a + c, 1 + c)):
                    got = hyp2f1(HypParams(aa, bb, cc, z))
                    ref = complex(mp.hyp2f1(complex(aa), complex(bb), complex(cc), z))
                    worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
    assert worst < 1e-10


cpart = st.floats(-2.0, 2.0, allow_nan=False)
cpos = st.floats(0.3, 2.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(ar=cpart, ai=cpart, br=cpart, bi=cpart, cr=cpos, ci=cpart,
       z=st.floats(0.02, 0.9))
# c - a - b = -1.5e-7i: the connection formula's two terms cancel
@example(ar=0.75, ai=1.5056327351493116e-07, br=0.0, bi=1.0, cr=0.75, ci=1.0, z=0.75)
def test_euler_transform_property(ar, ai, br, bi, cr, ci, z):
    # 2F1(a,b;c;z) = (1-z)^(c-a-b) 2F1(c-a, c-b; c; z)
    a, b, c = complex(ar, ai), complex(br, bi), complex(cr, ci)
    lhs = hyp2f1(HypParams(a, b, c, z))
    rhs = (1.0 - z) ** (c - a - b) * hyp2f1(HypParams(c - a, c - b, c, z))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


@pytest.mark.parametrize("delta", [0.0, 0.5, 3.0, -2.0])
def test_rz_state_unitary_two_level(delta):
    p = two_pi_pulse(1.0, delta)
    for t in np.linspace(-8.0, 8.0, 81):
        amps = rz_state(float(t), p).amplitudes
        assert amps[0] == 0.0                           # zbar never populated here
        assert abs(amps[1]) ** 2 + abs(amps[2]) ** 2 == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_trion_empties_after_pulse(r):
    p = two_pi_pulse(1.0, 1.0 / r)
    assert abs(rz_state(20.0, p).amplitudes[2]) < 1e-8


def test_rz_state_limits():
    p = two_pi_pulse(1.0, 0.7)
    past = rz_state(-30.0, p).amplitudes
    assert abs(past[1] - 1.0) < 1e-12 and abs(past[2]) < 1e-12
    # far future: returned to |z> with the overall phase attached
    fut = rz_state(25.0, p).amplitudes
    assert abs(abs(fut[1]) - 1.0) < 1e-10
    assert np.angle(fut[1]) == pytest.approx(overall_phase(1.0, 0.7), abs=1e-8)


def test_rz_state_amplitudes_are_a_complex_triple():
    # rz_state wraps its own array unchecked; it is complex (3,) with a
    # zero zbar amplitude everywhere, c_tau = 0 in the far tails included
    for delta in (0.7, 0.0, -1e3):
        p = two_pi_pulse(1.0, delta)
        for t in (-np.inf, -400.0, -3.0, 0.0, 2.5, 400.0, np.inf):
            amps = rz_state(t, p).amplitudes
            assert type(amps) is np.ndarray and amps.dtype == complex and amps.shape == (3,)
            assert amps[0] == 0.0


def _rz_reference(t, r):
    """(c_z, c_tau) of a 2*pi pulse at eta = 1 from the 2F1 forms in mpmath at
    40 digits, where z = 1 - e^(-80) at eta*t = 40 still differs from 1;
    t = -inf and +inf are the pulse's far past and far future."""
    a = mp.mpf(1)
    with mp.workdps(40):
        c = mp.mpc(0.5, 0.0 if r == np.inf else 0.5 / r)
        if np.isinf(t):
            return (1.0 + 0j, 0j) if t < 0 else (complex(1 - 1 / c), 0j)
        z = 1 / (1 + mp.exp(-2 * mp.mpf(t)))
        c_z = mp.hyp2f1(a, -a, c, z)
        c_tau = -(1j * a / c) * mp.exp(c * mp.log(z)) * mp.hyp2f1(a + c, c - a, 1 + c, z)
        return complex(c_z), complex(c_tau)


def test_rz_state_resonant_final_phase_pi():
    p = two_pi_pulse(1.0, 0.0)
    fut = rz_state(25.0, p).amplitudes
    assert fut[1] == pytest.approx(-1.0 + 0j, abs=1e-12)  # e^{i pi}, exactly -1 here
    assert abs(fut[2] - _rz_reference(25.0, np.inf)[1]) < 1e-14  # |c_tau| = 2.8e-11


@pytest.mark.parametrize("r", [1.0, -1.0, 10.0, -10.0])
def test_rz_state_tail_against_mpmath(r):
    # 1 - z enters as expit(-2x), not as 1 minus the rounded expit(2x): the
    # trion amplitude keeps its digits where z rounds to 1 (eta*t >~ 18.5),
    # inside the default window of arccosh(1e8)/eta ~ 19.1/eta
    p = two_pi_pulse(1.0, 1.0 / r)
    for t in (14.5, 17.0, 19.0):
        c_z, c_tau = _rz_reference(t, r)
        got = rz_state(t, p).amplitudes
        assert abs(got[1] - c_z) < 1e-10
        assert abs(got[2] - c_tau) < 1e-10


@pytest.mark.parametrize("r", [s * m for m in (0.001, 0.005, 0.01, 1.0, 100.0, 1000.0)
                               for s in (1.0, -1.0)])
def test_rz_state_against_mpmath_small_and_large_ratios(r):
    # |Delta|/eta from 0.001 to 1000, so |Im c| from 5e-4 to 500; times over
    # the pulse, through both tails out to |eta*t| = 40, and t = +-inf
    p = two_pi_pulse(1.0, 1.0 / r)
    tails = np.array([13.0, 15.0, 18.5, 21.0, 23.6, 23.8, 25.0, 28.0, 32.0, 36.0, 40.0, np.inf])
    worst = 0.0
    for t in np.concatenate([np.linspace(-12.0, 12.0, 49), tails, -tails]):
        c_z, c_tau = _rz_reference(t, r)
        got = rz_state(t, p).amplitudes
        worst = max(worst, abs(got[1] - c_z), abs(got[2] - c_tau))
    assert worst < 1e-14


def test_rz_state_refuses_other_pulse_areas():
    for rabi in (0.5, 2.0):
        with pytest.raises(ValueError):
            rz_state(0.0, PulseParams(rabi_peak=rabi, detuning=1.0, bandwidth=1.0))


def test_rz_state_huge_argument_no_overflow():
    p = two_pi_pulse(1.0, 1.0)
    amps = rz_state(-1e6, p).amplitudes
    assert np.all(np.isfinite(amps.view(float)))
    assert abs(amps[1] - 1.0) < 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ratio in (0.0, 1.0, -1e3, 1e300):               # Delta/eta
            p = two_pi_pulse(1.0, ratio)
            for t in (30.0, 1e3, 1e6, 1e10, np.inf):
                for signed in (t, -t):
                    amps = rz_state(signed, p).amplitudes
                    assert np.all(np.isfinite(amps.view(float))), (ratio, signed)
            c = 0.5 * (1.0 + 1j * ratio)
            assert np.array_equal(rz_state(np.inf, p).amplitudes, [0.0, 1.0 - 1.0 / c, 0.0])
        # the trion amplitude's phase overflows: where |c_tau| underflows it
        # is 0, elsewhere the time and the detuning are named
        for ratio in (1e306, -1e306, 1.7e308, -1.7e308):
            p = two_pi_pulse(1.0, ratio)
            for t in (700.0, -700.0):
                amps = rz_state(t, p).amplitudes
                assert np.all(np.isfinite(amps.view(float))) and amps[2] == 0.0, (ratio, t)
        for ratio in (1.7e308, -1.7e308):
            for t in (1.0, -1.0, 30.0, -30.0):
                named = re.escape("t = %r, detuning = %r" % (t, ratio))
                with pytest.raises(ValueError, match=named):
                    rz_state(t, two_pi_pulse(1.0, ratio))


def test_rz_state_refuses_nan_time():
    p = two_pi_pulse(1.0, 1.0)
    for t in (float("nan"), np.float64("nan")):
        with pytest.raises(ValueError, match="^t must"):
            rz_state(t, p)


def test_overall_phase_branch():
    assert overall_phase(1.0, 0.0) == np.pi
    assert overall_phase(1.0, 1.0) == pytest.approx(np.pi / 2, rel=1e-15)
    assert overall_phase(1.0, 1e-12) == pytest.approx(np.pi, abs=1e-11)
    assert overall_phase(1.0, -1e-12) == pytest.approx(-np.pi, abs=1e-11)
    with pytest.raises(ValueError):
        overall_phase(0.0, 1.0)
    with pytest.raises(ValueError):
        overall_phase(-1.0, 1.0)


@pytest.mark.parametrize("delta", [0.3, 1.0, 4.2])
def test_overall_phase_odd(delta):
    assert overall_phase(1.0, -delta) == -overall_phase(1.0, delta)
