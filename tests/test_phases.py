"""Phase decomposition: closed-form checks, symmetries, method agreement.

The analytic route returns the collapsed form alpha = 4r/(1+r^2)*tanh(window)
(= 2*sin(phi) at the default window). Its independent oracle is the raw
integrand in its oscillatory-factor shape, integrated by mpmath.
"""

import mpmath
import numpy as np
import pytest

from sechspin import phases, propagator
from sechspin.model import (
    StateVector,
    SystemParams,
    coupling,
    larmor_from_field,
    two_pi_pulse,
)
from sechspin.phases import (
    DecayForbidden,
    decompose,
    dynamic_phase_analytic,
    dynamic_phase_numeric,
    sweep_ratio,
)
from sechspin.propagator import (
    IntegratorOpts,
    PulseSchedule,
    Trajectory,
    _frequency_scale,
    _times,
    _trajectory_packs,
    propagate,
)
from sechspin.special import overall_phase

# uniform references step at a quarter of REFERENCE_TARGET over the guard's
# rate scale, finer than the graded grid's RESOLUTION_TARGET
REFERENCE_TARGET = 0.035


def alpha_closed(omega, delta):
    return 4.0 * omega * delta / (omega ** 2 + delta ** 2)


@pytest.mark.parametrize("delta", [0.05, 0.3, 1.0, 2.0, 7.0, 40.0, -1.0, -12.0,
                                   1e3, -1e3, 200.0])
def test_quadrature_matches_collapsed_form(delta):
    got = dynamic_phase_analytic(1.0, delta)
    assert got == pytest.approx(alpha_closed(1.0, delta), abs=1e-9)
    assert got == pytest.approx(2.0 * np.sin(overall_phase(1.0, delta)), abs=1e-9)


def raw_integrand(omega, delta, t):
    """The dynamic-phase integrand of one 2*pi pulse, up to the prefactor
    Omega**2/(Delta**2 + Omega**2), in its raw shape: products of
    (1 -+ tanh)^(-+i*Delta/2/Omega) with the conjugate pair summed, the
    power factors through logs."""
    x = omega * t
    # log(1 -+ tanh x) without cancellation: ln 2 - ln(1 + e^(+-2x))
    log_1m = mpmath.log(2) - mpmath.log1p(mpmath.exp(2 * x))
    log_1p = mpmath.log(2) - mpmath.log1p(mpmath.exp(-2 * x))
    half = delta / (2 * omega)
    # arg of e^(-i*Delta*t) * (1-th)^(-i*half) * (1+th)^(i*half)
    theta = -delta * t - half * log_1m + half * log_1p
    re_part = delta * mpmath.cos(theta) + omega * mpmath.tanh(x) * mpmath.sin(theta)
    return mpmath.sech(x) ** 2 * 2 * re_part


@pytest.mark.parametrize("window", [10.0, 20.0])
@pytest.mark.parametrize("r", [0.3, 1.0, 3.7, -2.0])
def test_closed_form_matches_raw_integrand(r, window):
    # the closed form against the unsimplified integrand, integrated at 30
    # digits over [-window, window]/Omega split at the peak (the integral
    # lies within 1e-23 of the exact 4r/(1+r^2)*tanh(window))
    omega = 1.3
    delta = omega / r
    lim = window / omega
    with mpmath.workdps(30):
        w, d = mpmath.mpf(omega), mpmath.mpf(delta)
        ref = w ** 2 / (d ** 2 + w ** 2) * mpmath.quad(
            lambda t: raw_integrand(w, d, t), [-lim, -1 / w, 0, 1 / w, lim])
    assert abs(dynamic_phase_analytic(omega, delta, window) - float(ref)) <= 2e-15


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
    # the frame detuning turns at most MAX_FRAME_PHASE per step at full
    # pulse height, so the step count grows with |Delta| and the error does not
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


def test_numeric_alpha_is_sixth_order_on_graded_times():
    # A fine uniform trajectory, read only at the fine times nearest the
    # graded grid (steps from 0.063 at the center to 0.93 in the tails):
    # the Hermite rule with exact E' and E'' keeps alpha within 1e-11 of
    # the full-grid value (measured 9.2e-14; 2.4e-10 with E' alone), the
    # plain trapezoid misses by 4.7e-5
    s = SystemParams(omega_B=larmor_from_field(0.29))
    sched = PulseSchedule([two_pi_pulse(1.0, 1.0)], (-20.0, 20.0))
    dt = 0.005
    full = propagate(StateVector.ket_z(), sched, s, IntegratorOpts(dt=dt))
    idx = np.unique(np.round((next(_times([(sched, s)], IntegratorOpts())) - sched.window[0]) / dt).astype(int))
    sub = Trajectory(full.times[idx], full.states[idx], full.norms[idx])
    ref, alpha = dynamic_phase_numeric([full, sub], [sched, sched], s)
    assert abs(alpha - ref) <= 1e-11
    cb, cz, ct = sub.states.T
    energy = (2.0 * s.omega_B * np.real(np.conj(cb) * cz)
              + 2.0 * np.real(coupling(sub.times, sched.pulses) * np.conj(cz) * ct))
    assert abs(-np.trapezoid(energy, sub.times) - ref) > 1e-5


def _quarter_step_reference(delta, s):
    sched = PulseSchedule([two_pi_pulse(1.0, delta)], (-20.0, 20.0))
    dt = REFERENCE_TARGET / _frequency_scale(sched, s) / 4
    return decompose(1.0, delta, "numeric", s, opts=IntegratorOpts(dt=dt))


@pytest.mark.parametrize("delta", [15.0, 17.1, 21.5, 25.1])
def test_numeric_phases_where_frame_phase_cap_sets_steps(delta):
    # from |Delta| ~ 15 the frame commutators, and from ~43 the frame-phase
    # cap, set the steps on the pulse shoulders, where the coupling is still
    # large. Against a run at a quarter of the uniform step, phi and alpha
    # stay within the uniform grid's worst on the README grid, 1.6e-9 and
    # 3.5e-9 (measured at most 3.7e-11 and 4.7e-11, at 25.1; a cap of 1 rad
    # at every height reached 1.9e-9 in phi at 25.1)
    s = SystemParams(omega_B=larmor_from_field(0.29))
    ref = _quarter_step_reference(delta, s)
    num = decompose(1.0, delta, "numeric", s)
    assert abs(num.overall - ref.overall) <= 1.6e-9
    assert abs(num.dynamic - ref.dynamic) <= 3.5e-9


def test_numeric_phases_on_readme_grid_within_budget():
    # every other README ratio from 0.01 to 1, plus |Delta| = 17.1, where
    # the previous step rule erred most: against a run at a quarter of the
    # uniform step, phi and alpha stay within 5.9e-10 and 7.4e-10 (measured
    # 4.6e-11 and 5.7e-11, at r = 0.0251; the previous rule reached 5.8e-10
    # and 7.4e-10)
    s = SystemParams(omega_B=larmor_from_field(0.29))
    ratios = np.append(np.logspace(-2.0, 2.0, 61)[:31:2], 1.0 / 17.1)
    worst_phi = worst_alpha = 0.0
    for r in ratios:
        ref = _quarter_step_reference(1.0 / r, s)
        num = decompose(1.0, 1.0 / r, "numeric", s)
        worst_phi = max(worst_phi, abs(num.overall - ref.overall))
        worst_alpha = max(worst_alpha, abs(num.dynamic - ref.dynamic))
    assert worst_phi <= 5.9e-10
    assert worst_alpha <= 7.4e-10


def test_numeric_decomposition_steps_on_graded_grid(monkeypatch):
    # one pulse at r = 1 over +-20/Omega: 228 graded steps, 114 of them
    # integrated (1,143 uniform at the guard's scale)
    steps = []

    def counting(*args, **kwargs):
        for trajs in _trajectory_packs(*args, **kwargs):
            steps.extend(len(traj.times) - 1 for traj in trajs)
            yield trajs

    monkeypatch.setattr(phases, "_trajectory_packs", counting)
    decompose(1.0, 1.0, "numeric", SystemParams(omega_B=larmor_from_field(0.29)))
    assert len(steps) == 1 and steps[0] <= 240


def test_decay_rejected():
    p = two_pi_pulse(1.0, 1.0)
    s = SystemParams(trion_lifetime=900.0)
    sched = PulseSchedule([p], (-20.0, 20.0))
    traj = propagate(StateVector.ket_z(), sched, s)
    with pytest.raises(DecayForbidden):
        dynamic_phase_numeric([traj], [sched], s)


def test_batched_alpha_matches_one_trajectory_at_a_time():
    # one call integrates consecutive trajectories in one pass; each alpha
    # has the bits of its trajectory integrated alone, whatever its length,
    # stride, bandwidth or neighbours (the two-pulse schedules run in a
    # pass of their own)
    one = [PulseSchedule([two_pi_pulse(1.0, d)], (-20.0, 20.0)) for d in (0.01, 1.0, -3.0, 40.0)]
    one.append(PulseSchedule([two_pi_pulse(0.5, 0.3, 1.0)], (-39.0, 41.0)))
    two = [PulseSchedule([two_pi_pulse(1.0, 0.667), two_pi_pulse(1.0, -0.667, 21.0)], (-20.0, 41.0)),
           PulseSchedule([two_pi_pulse(0.7, 2.0), two_pi_pulse(1.3, -0.5, 30.0)], (-30.0, 50.0))]
    for field in (0.0, 0.29):
        s = SystemParams(omega_B=larmor_from_field(field))
        cases = ([(sched, None) for sched in one + two]
                 + [(one[1], IntegratorOpts(sample_stride=3))])
        trajs = [propagate(StateVector.ket_z(), sched, s, opts) for sched, opts in cases]
        scheds = [sched for sched, _ in cases]
        assert len({traj.times.shape[0] for traj in trajs}) == len(trajs)
        alone = [dynamic_phase_numeric([traj], [sched], s)[0] for traj, sched in zip(trajs, scheds)]
        assert dynamic_phase_numeric(trajs, scheds, s) == alone
        assert dynamic_phase_numeric(trajs[::-1], scheds[::-1], s) == alone[::-1]
    with pytest.raises(DecayForbidden):
        dynamic_phase_numeric(trajs, scheds, SystemParams(trion_lifetime=900.0))


def test_parameter_validation():
    with pytest.raises(ValueError):
        dynamic_phase_analytic(0.0, 1.0)
    with pytest.raises(ValueError):
        dynamic_phase_analytic(1.0, 1.0, window=5.0)
    with pytest.raises(ValueError):
        decompose(1.0, 1.0, "magic")
    with pytest.raises(ValueError, match="method must be"):
        sweep_ratio([1.0], "magic")


def test_non_finite_detuning_refused():
    # Omega/r overflows to inf for r = 1e-310; the analytic route must
    # refuse it, not integrate it to NaN
    for delta in (np.inf, -np.inf, np.nan, [1.0, np.nan]):
        with pytest.raises(ValueError, match="detuning must be finite"):
            dynamic_phase_analytic(1.0, delta)
    with pytest.raises(ValueError, match="detuning must be finite"):
        decompose(1.0, np.inf, "analytic")
    with pytest.raises(ValueError, match="detuning must be finite"):
        sweep_ratio([1.0, 1e-310], "analytic")


@pytest.mark.filterwarnings("error")
def test_analytic_alpha_at_detunings_near_float_max():
    # every finite detuning has a value, with no numpy warning: Delta*t at
    # the window edge (2e308 at Omega = 1) and Delta**2 would overflow, but
    # the closed form needs neither
    for omega, delta in ((1.0, 1e307), (100.0, 1e308), (1.0, -1e307)):
        r = omega / delta
        got = dynamic_phase_analytic(omega, delta)
        assert got == pytest.approx(4.0 * r / (1.0 + r * r), rel=1e-15)
    got = dynamic_phase_analytic(1.0, [1.0, -1e307])
    assert got[0] == 2.0 and got[1] == pytest.approx(-4e-307, rel=1e-15)


def test_array_detunings_equal_scalar_calls():
    # both signs, zeros mixed in, and a non-default omega and window:
    # every element is bit-identical
    omega, window = 1.7, 27.0
    half = omega * np.geomspace(1e-3, 1e3, 37)
    deltas = np.concatenate([-half[::-1], [0.0], half])
    deltas[[7, 60]] = 0.0
    got = dynamic_phase_analytic(omega, deltas, window)
    assert got.shape == deltas.shape
    assert all(g == dynamic_phase_analytic(omega, float(d), window)
               for g, d in zip(got, deltas))
    assert got[7] == got[60] == 0.0
    square = dynamic_phase_analytic(omega, deltas[:20].reshape(4, 5), window)
    assert np.array_equal(square.ravel(), got[:20])
    assert dynamic_phase_analytic(omega, [], window).shape == (0,)


def test_analytic_sweep_rows_equal_decompose():
    rs = np.concatenate([-np.geomspace(100.0, 0.01, 25), np.geomspace(0.01, 100.0, 36)])
    for omega, window in ((1.0, phases.DEFAULT_WINDOW), (2.0, 30.0)):
        rows = sweep_ratio(rs, "analytic", omega=omega, window=window)
        assert rows == [decompose(omega, omega / r, "analytic", window=window) for r in rs]


@pytest.mark.parametrize("field", [0.0, 0.29])
def test_numeric_sweep_packs_match_lone_decompositions(step_packs, field):
    # consecutive ratios share packs while their count times the longest
    # grid (twice the half) stays within PACK_STEPS; r = 0.005 and -0.01
    # (2,603 and 1,302 half steps) run alone and r = 1e-3 (13,012, past
    # CHUNK_STEPS) steps forward, in three chunks and a tail of 1,448 steps,
    # each a pack of one. In either order every row has the bits of its
    # ratio decomposed alone
    rs = [0.3, 1.0, -2.0, 1e-3, 3.7, 0.05, -0.7, 0.005, 20.0, 100.0, -0.01, 1.4, 8.0, -0.2]
    s = SystemParams(omega_B=larmor_from_field(field))
    alone = {r: decompose(1.0, 1.0 / r, "numeric", s) for r in rs}
    packs = step_packs
    chunk = propagator.CHUNK_STEPS
    for order in (rs, rs[::-1]):
        packs.clear()
        assert sweep_ratio(order, "numeric", s) == [alone[r] for r in order]
        assert [p for p in packs if len(p) > 1] and max(map(len, packs)) >= 3
        assert all(len(p) * 2 * max(p) <= propagator.PACK_STEPS for p in packs if len(p) > 1)
        assert [2603] in packs and [1302] in packs
        assert packs.count([chunk]) == 3 and [2 * 13012 - 3 * chunk] in packs
        assert sum(map(len, packs)) == len(rs) - 1 + 4


@pytest.mark.parametrize("field", [0.0, 0.29])
def test_forward_tails_share_packs_with_lone_bits(step_packs, field):
    # r = 0.0015625 and -0.0015873... have halves past CHUNK_STEPS, so their
    # grids step forward in chunks; the tail of 272 steps shares a pack with
    # r = 0.5's half of 142 when it comes first, and the tail of 12 steps
    # shares a pack with the halves after it. In either order every row
    # has the bits of its ratio decomposed alone
    rs = [0.0015625, 0.5, -0.0015873015873015873, 2.0, 1.0, -0.3]
    s = SystemParams(omega_B=larmor_from_field(field))
    alone = {r: decompose(1.0, 1.0 / r, "numeric", s) for r in rs}
    packs = step_packs
    for order, tails in ((rs, ([272, 142], [12, 105, 114, 174])), (rs[::-1], ([272], [12, 142]))):
        packs.clear()
        assert sweep_ratio(order, "numeric", s) == [alone[r] for r in order]
        assert all(tail in packs for tail in tails)


def test_sweep_ratio():
    rs = [2.0, -0.5, 1.0]
    out = sweep_ratio(rs, "analytic")
    assert [d.ratio for d in out] == rs
    assert all(d.method == "analytic" for d in out)
    for bad in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            sweep_ratio([bad], "analytic")
