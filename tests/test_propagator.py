"""Integrator oracles: precession, decay, the closed form, reversibility."""

import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sechspin import phases, propagator
from sechspin.fidelity import fidelity_sweep, gate_report
from sechspin.model import (
    ENVELOPE_TAIL_ARG,
    PulseParams,
    StateVector,
    SystemParams,
    larmor_from_field,
    sech,
    two_pi_pulse,
)
from sechspin.propagator import (
    MAGNUS_RADIUS,
    MAX_FRAME_PHASE,
    MAX_STEPS,
    OVERLAP_FRACTION,
    TAIL_POWER,
    IntegratorOpts,
    NormBlowup,
    PulseSchedule,
    StepTooLarge,
    evolve_operator,
    evolve_operators,
    propagate,
    propagate_many,
    schedule_for_pulses,
    truncate_qubit,
)
from sechspin.propagator import (
    _expm,
    _fold,
    _frequency_scale,
    _magnus6,
    _running_products,
    _step_matrices,
    _times,
    _Workspace,
)
from sechspin.pulsedesign import design_for_angle
from sechspin.special import overall_phase, rz_state


def _grid(sched, s, opts=IntegratorOpts()):
    """The step grid that propagate and evolve_operator take for sched alone."""
    return next(_times([(sched, s)], opts))


# uniform references step at REFERENCE_TARGET over the guard's rate scale,
# finer than the graded grid's RESOLUTION_TARGET
REFERENCE_TARGET = 0.035


def _uniform_dt(sched, s):
    """The uniform step at REFERENCE_TARGET over the peak rate, the
    reference the graded grid is held against."""
    span = sched.duration
    return span / np.ceil(span * _frequency_scale(sched, s) / REFERENCE_TARGET)


def test_free_precession_cosine():
    # no pulses: |<z|psi>|^2 = cos^2(omega_B t), period pi/omega_B
    w = larmor_from_field(0.29)
    sched = PulseSchedule([], (0.0, 500.0))
    s = SystemParams(omega_B=w)
    traj = propagate(StateVector.ket_z(), sched, s)
    pop = np.abs(traj.states[:, 1]) ** 2
    assert np.max(np.abs(pop - np.cos(w * traj.times) ** 2)) < 1e-8
    assert np.max(np.abs(traj.norms - 1.0)) < 1e-10


def test_trion_decay_norm():
    s = SystemParams(trion_lifetime=900.0)
    sched = PulseSchedule([], (0.0, 900.0))
    traj = propagate(StateVector([0.0, 0.0, 1.0]), sched, s)
    assert np.max(np.abs(traj.norms - np.exp(-traj.times / 900.0))) < 1e-8
    assert np.all(traj.states[:, 0] == 0) and np.all(traj.states[:, 1] == 0)


@pytest.mark.parametrize("delta", [10.0, 1.0, 0.1, 100.0, -100.0])
def test_matches_closed_form_without_precession(delta):
    p = two_pi_pulse(1.0, delta)
    sched = schedule_for_pulses([p])
    traj = propagate(StateVector.ket_z(), sched, SystemParams())
    step = max(len(traj.times) // 60, 1)
    worst = 0.0
    for i in range(0, len(traj.times), step):
        ref = rz_state(float(traj.times[i]), p).amplitudes
        worst = max(worst, np.max(np.abs(traj.states[i] - ref)))
    assert worst < 1e-6


def test_step_count_balances_frame_commutator_error():
    # Magnus-6 errs through the frame diagonal's commutators with the
    # coupling as S**4*|Delta|**3*dt**7, so below the frame-phase cap a
    # pulse counts at S*(1 + (|Delta|/S)**3)**(1/7), S = max(Omega, eta):
    # the count grows from |Delta| ~ 1 (206 steps at 0.1, 228 at 1, 330
    # at 3). The explicit-dt guard keeps the unweighted scale.
    def sched(delta):
        return schedule_for_pulses([two_pi_pulse(1.0, delta)])

    def count(delta):
        return len(propagate(StateVector.ket_z(), sched(delta), SystemParams()).times) - 1

    s = SystemParams()
    assert _frequency_scale(sched(0.1), s) == _frequency_scale(sched(17.0), s) == 1.0
    assert count(0.0) == count(0.1) < count(1.0) < count(3.0) < count(17.1) < count(100.0)
    for delta in (1.0, -3.0, 10.0, 17.1):
        assert count(delta) == pytest.approx(count(0.0) * (1.0 + abs(delta) ** 3) ** TAIL_POWER,
                                             rel=1e-2)
    # past the cap (|Delta| ~ 43) every term of the rate is |Delta| times
    # a fixed profile, max(sech**TAIL_POWER/MAX_FRAME_PHASE, 1/MAGNUS_RADIUS),
    # so the count is |Delta| times its integral over the window, whatever
    # RESOLUTION_TARGET
    t = np.linspace(-ENVELOPE_TAIL_ARG, ENVELOPE_TAIL_ARG, 400_001)
    profile = np.maximum(sech(t) ** TAIL_POWER / MAX_FRAME_PHASE, 1.0 / MAGNUS_RADIUS)
    assert count(-1000.0) == pytest.approx(1000.0 * np.trapezoid(profile, t), rel=1e-4)
    # at the cap's edge too, to the rounding of an even count
    assert count(50.0) == pytest.approx(50.0 * np.trapezoid(profile, t), abs=2.0)
    assert 2 * count(-1000.0) - 1 <= count(2000.0) <= 2 * count(-1000.0)


@pytest.mark.parametrize("delta", [0.3, 1.0, 5.0, None])
def test_sixth_order_convergence(delta):
    # halving dt cuts the error 64x at sixth order (measured 54-64x, the
    # smallest where rounding starts to show); without C_2 the ratio is 16x,
    # without the outer commutator 4x
    s = SystemParams(omega_B=larmor_from_field(0.29), trion_lifetime=900.0)
    if delta is None:
        pair = design_for_angle(np.pi / 2, 1.0)
        pulses = [pair.pulse1, pair.pulse2]
    else:
        pulses = [two_pi_pulse(1.0, delta)]
    sched = schedule_for_pulses(pulses)
    ref = evolve_operator(sched, s, IntegratorOpts(dt=0.005))
    coarse, fine = (np.max(np.abs(evolve_operator(sched, s, IntegratorOpts(dt=h)) - ref))
                    for h in (0.08, 0.04))
    assert coarse >= 40.0 * fine


def test_magnus6_matches_commutator_formula():
    # the entrywise Omega_6 against the nested commutators written with
    # dense 3x3 products, h of both signs, decay on
    rng = np.random.default_rng(7)
    n, w = 40, 0.3
    u = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    h = rng.uniform(-0.1, 0.1, n)
    d = rng.normal(size=n) - 0.05j
    hams = np.zeros((3, n, 3, 3), dtype=complex)
    hams[..., 0, 1] = hams[..., 1, 0] = w
    hams[..., 1, 2] = u
    hams[..., 2, 1] = u.conj()
    hams[..., 2, 2] = d
    a1, a2, a3 = (-1j * h[:, None, None] * hams[k] for k in range(3))

    def comm(x, y):
        return x @ y - y @ x

    alpha1 = a2
    alpha2 = np.sqrt(15.0) / 3.0 * (a3 - a1)
    alpha3 = 10.0 / 3.0 * (a3 - 2.0 * a2 + a1)
    c1 = comm(alpha1, alpha2)
    c2 = -comm(alpha1, 2.0 * alpha3 + c1) / 60.0
    omega = alpha1 + alpha3 / 12.0 + comm(-20.0 * alpha1 - alpha3 + c1, alpha2 + c2) / 240.0
    got = _magnus6(u, h, w, d, _Workspace()).transpose(2, 0, 1)
    assert np.max(np.abs(got - omega)) < 1e-15


@pytest.mark.parametrize("deltas", [(20.0, -0.05), (-0.05, 20.0)])
def test_two_pulse_frame_switch(deltas):
    # Distinct detunings 14/eta apart, B = 0: |z> picks up both overall
    # phases. One pulse is far detuned so its carrier turns 20 rad per 1/eta:
    # integrating the neighbour in that pulse's frame instead of its own
    # costs ~2e-7 here. Milder detunings such as (0.5, -2) interact through
    # their tails by ~3.5e-7 at this spacing at any step size, so they
    # cannot test the frame rule at this tolerance.
    pulses = [two_pi_pulse(1.0, deltas[0], 0.0), two_pi_pulse(1.0, deltas[1], 14.0)]
    u = evolve_operator(schedule_for_pulses(pulses), SystemParams())
    phase = sum(overall_phase(1.0, d) for d in deltas)
    assert abs(u[1, 1] - np.exp(1j * phase)) <= 1e-8


@pytest.mark.parametrize("gamma", [3.135, -3.135])
def test_near_pi_gate_resolves_neighbour_tail(gamma):
    # Delta1 - Delta2 ~ 607*eta: in each pulse's frame the other's tail (1.8e-3
    # of peak at the frame edge) turns ~2*pi per step of 0.01/eta, where
    # Gauss nodes alias it (trion entries off by 1.7e-3). The step rule
    # counts that tail at S**(1/7)*|Delta1 - Delta2|**(6/7)*h**(1/7), so a
    # graded step turns it by under 0.5 rad at the frame edge (measured
    # 0.434), and halving the reference's dt moves nothing
    pair = design_for_angle(gamma, 1.0)
    pulses = [pair.pulse1, pair.pulse2]
    sched = schedule_for_pulses(pulses)
    s = SystemParams()
    dt = _uniform_dt(sched, s)
    turn = abs(pulses[0].detuning - pulses[1].detuning)
    assert turn * dt < 0.1
    times = _grid(sched, s)
    edge = np.searchsorted(times, 0.5 * (pulses[0].center + pulses[1].center))
    assert turn * (times[edge] - times[edge - 1]) < 0.5
    u = evolve_operator(sched, s)
    assert np.max(np.abs(u - evolve_operator(sched, s, IntegratorOpts(dt=dt / 2)))) <= 1e-8
    phase = sum(overall_phase(1.0, p.detuning) for p in pulses)
    assert abs(u[1, 1] - np.exp(1j * phase)) <= 1e-8


@pytest.mark.parametrize("gamma", [0.0, np.pi / 4, -np.pi / 4, 2.25, -2.25,
                                   2.75, -2.75, 3.0, -3.0])
def test_graded_operator_matches_half_step_uniform(gamma):
    # the graded grid stretches steps where the envelopes are small; a
    # uniform run at half the auto dt is the reference
    pair = design_for_angle(gamma, 2.0 / 3.0)
    sched = schedule_for_pulses([pair.pulse1, pair.pulse2])
    s = SystemParams(omega_B=larmor_from_field(0.29), trion_lifetime=900.0)
    dt = _uniform_dt(sched, s)
    ref = evolve_operator(sched, s, IntegratorOpts(dt=dt / 2))
    assert np.max(np.abs(evolve_operator(sched, s) - ref)) <= 1e-9


def test_frame_phase_cap_stays_inside_magnus_radius_in_tails():
    # in the tails the frame-phase cap grows as the envelope falls, but no
    # step turns the frame detuning by more than MAGNUS_RADIUS: without that
    # bound the trion entries at Delta = 100 err by 8.9e-10 against an
    # eighth-step uniform run (measured 1.4e-11 with it)
    sched = schedule_for_pulses([two_pi_pulse(1.0, 100.0)])
    s = SystemParams(omega_B=larmor_from_field(0.29))
    ref = evolve_operator(sched, s, IntegratorOpts(dt=_uniform_dt(sched, s) / 8))
    assert np.max(np.abs(evolve_operator(sched, s) - ref)) <= 1e-10


def test_graded_grid_is_coarser_than_uniform():
    pair = design_for_angle(np.pi / 4, 2.0 / 3.0)
    sched = schedule_for_pulses([pair.pulse1, pair.pulse2])
    s = SystemParams(omega_B=larmor_from_field(0.29))
    graded = len(_grid(sched, s)) - 1
    assert graded <= 2100
    assert graded < round(sched.duration / _uniform_dt(sched, s))


def test_graded_grid_spans_window_where_envelope_underflows():
    # past |eta*t| ~ 745 the sech underflows to 0, and at B = 0 without decay
    # the rate is 0 there too
    sched = PulseSchedule([two_pi_pulse(1.0, 2.0)], (-800.0, 800.0))
    s = SystemParams()
    times = _grid(sched, s)
    assert (times[0], times[-1]) == sched.window
    assert np.all(np.diff(times) > 0)
    ref = evolve_operator(sched, s, IntegratorOpts(dt=0.01))
    assert np.max(np.abs(evolve_operator(sched, s) - ref)) <= 1e-9


def test_graded_grid_refuses_huge_window():
    # 2e9 rate samples: refused before anything is allocated
    sched = PulseSchedule([two_pi_pulse(1.0, 0.0)], (-1e8, 1e8))
    with pytest.raises(StepTooLarge):
        evolve_operator(sched, SystemParams())


@pytest.mark.filterwarnings("ignore:omega_B/eta")   # 2.7 T gives omega_B/eta = 0.102
def test_batched_grids_match_one_schedule_grids(monkeypatch):
    # consecutive schedules that share a window, centers and bandwidths get
    # their grids from one pass; each grid has the bits it gets alone. At
    # 2.7 T the omega_B floor binds in the gates' tails; the pi gate has a
    # window of its own, so it splits the pair gates' batch
    def pair(gamma):
        p = design_for_angle(gamma, 2.0 / 3.0)
        return schedule_for_pulses([p.pulse1, p.pulse2])

    slow, fast = (SystemParams(omega_B=larmor_from_field(b), trion_lifetime=900.0)
                  for b in (0.27, 2.7))
    even = [PulseSchedule([two_pi_pulse(1.0, d)], (-20.0, 20.0)) for d in (1.0, -0.5, 30.0)]
    pi_gate = schedule_for_pulses([two_pi_pulse(2.0 / 3.0, 0.0)])
    pairs = ([(sched, slow) for sched in even] + [(pair(0.5), slow), (pair(0.5), fast),
             (pair(-2.0), slow), (pair(-2.0), fast), (pi_gate, slow), (pair(1.0), fast),
             (PulseSchedule([], (-3.0, 5.0)), fast), (pair(3.0), slow)])
    batches, rate = [], propagator._rate

    def counting(batch, k, t):
        # one call a frame of a batch; the first frame counts the batch
        if k == 0:
            batches.append(len(batch))
        return rate(batch, k, t)

    monkeypatch.setattr(propagator, "_rate", counting)
    # the even schedules share a pass, and so do the four pair gates in a
    # row (GRID_BATCH_SAMPLES = 8,192 over 524 rate samples each), or
    # three of them under a bound of 2,048; an explicit dt gives every
    # schedule its uniform grid
    for bound, sizes in ((propagator.GRID_BATCH_SAMPLES, [3, 4, 1, 1, 1]),
                         (2048, [3, 3, 1, 1, 1, 1])):
        monkeypatch.setattr(propagator, "GRID_BATCH_SAMPLES", bound)
        for opts in (IntegratorOpts(), IntegratorOpts(dt=0.01)):
            alone = [_grid(sched, s, opts) for sched, s in pairs]
            batches.clear()
            got = list(_times(pairs, opts))
            assert len(got) == len(pairs)
            assert all(np.array_equal(a, b) for a, b in zip(got, alone))
            assert batches == (sizes if opts.dt is None else [])
    # a schedule past MAX_STEPS in the middle of a batch raises what it
    # raises alone, after the grids before it
    huge = (PulseSchedule([two_pi_pulse(1.0, 1e5)], (-20.0, 20.0)), slow)
    with pytest.raises(StepTooLarge) as alone:
        _grid(*huge)
    grids = _times(pairs[:2] + [huge] + pairs[2:], IntegratorOpts())
    assert all(np.array_equal(next(grids), _grid(sched, s)) for sched, s in pairs[:2])
    with pytest.raises(StepTooLarge) as batched:
        next(grids)
    assert str(batched.value) == str(alone.value)


def test_single_pulse_propagate_grid():
    # without dt, propagate steps on the graded grid evolve_operator uses;
    # an explicit dt gives the uniform grid of ceil(span/dt) steps
    p = PulseParams(rabi_peak=1.7, detuning=3.0, bandwidth=1.0)
    sched = schedule_for_pulses([p])
    s = SystemParams(omega_B=larmor_from_field(0.29), trion_lifetime=900.0)
    traj = propagate(StateVector.ket_z(), sched, s)
    assert np.array_equal(traj.times, _grid(sched, s))
    t0, t1 = sched.window
    dt = REFERENCE_TARGET / 1.7
    n = int(np.ceil((t1 - t0) / dt))
    traj = propagate(StateVector.ket_z(), sched, s, IntegratorOpts(dt=dt))
    assert np.array_equal(traj.times, np.linspace(t0, t1, n + 1))


# one or two 2*pi pulses 14/eta apart, detunings up to 40*eta (past the
# frame-phase cap), fields up to the paper's 2.7 T, random normalized start
_graded_cases = dict(
    eta=st.floats(0.3, 3.0),
    ratios=st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=2),
    field=st.floats(0.0, 2.7),
    amps=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6).filter(
        lambda a: np.hypot.reduce(a) > 0.1),
)


def _graded_case(eta, ratios, amps):
    pulses = [two_pi_pulse(eta, x * eta, 14.0 * k / eta) for k, x in enumerate(ratios)]
    psi = np.array(amps[:3]) + 1j * np.array(amps[3:])
    return schedule_for_pulses(pulses), StateVector(psi / np.linalg.norm(psi))


@pytest.mark.filterwarnings("ignore:omega_B/eta")
@settings(max_examples=30, deadline=None)
@given(**_graded_cases)
def test_graded_propagate_keeps_norm_without_decay(eta, ratios, field, amps):
    # rounding only: 600 random cases of this family drift by at most 2.1e-12
    sched, psi0 = _graded_case(eta, ratios, amps)
    traj = propagate(psi0, sched, SystemParams(omega_B=larmor_from_field(field)))
    assert np.max(np.abs(traj.norms - 1.0)) <= 1e-11


@pytest.mark.filterwarnings("ignore:omega_B/eta")
@settings(max_examples=30, deadline=None)
@given(lifetime=st.floats(50.0, 2000.0), **_graded_cases)
def test_graded_propagate_norm_never_grows_with_decay(eta, ratios, field, amps, lifetime):
    # where the trion is empty the norm is flat and a step may round up;
    # 600 random cases of this family never rose, so the bound is rounding
    sched, psi0 = _graded_case(eta, ratios, amps)
    s = SystemParams(omega_B=larmor_from_field(field), trion_lifetime=lifetime)
    traj = propagate(psi0, sched, s)
    assert np.max(np.diff(traj.norms)) <= 1e-13


@pytest.mark.filterwarnings("ignore:omega_B/eta")
@settings(max_examples=30, deadline=None)
@given(**_graded_cases)
def test_graded_operator_unitary_without_decay(eta, ratios, field, amps):
    # rounding only: 300 random cases of this family reach 1.8e-12
    sched, _ = _graded_case(eta, ratios, amps)
    u = evolve_operator(sched, SystemParams(omega_B=larmor_from_field(field)))
    assert np.max(np.abs(u.conj().T @ u - np.eye(3))) <= 1e-11


@pytest.mark.filterwarnings("ignore:omega_B/eta")
@settings(max_examples=30, deadline=None)
@given(lifetime=st.floats(50.0, 2000.0), **_graded_cases)
def test_graded_operator_contracts_with_decay(eta, ratios, field, amps, lifetime):
    # 300 random cases of this family never had a singular value above 1
    sched, _ = _graded_case(eta, ratios, amps)
    s = SystemParams(omega_B=larmor_from_field(field), trion_lifetime=lifetime)
    u = evolve_operator(sched, s)
    assert np.linalg.svd(u, compute_uv=False).max() <= 1.0 + 1e-12


@pytest.mark.filterwarnings("ignore:omega_B/eta")
@settings(max_examples=30, deadline=None)
@given(decay=st.booleans(), lifetime=st.floats(50.0, 2000.0), **_graded_cases)
def test_mirrored_schedule_gives_transposed_operator(eta, ratios, field, amps, decay, lifetime):
    # negated centers in reverse order, the same detunings and the reflected
    # window give H'(-t) = H(t)^T (the -i*Gamma diagonal survives the
    # transpose), so U' = U^T with decay off and on; 1,200 random cases of
    # this family reached 3.9e-13
    sched, _ = _graded_case(eta, ratios, amps)
    mirror = PulseSchedule(
        [two_pi_pulse(eta, p.detuning, -p.center) for p in reversed(sched.pulses)],
        (-sched.window[1], -sched.window[0]))
    s = SystemParams(omega_B=larmor_from_field(field),
                     trion_lifetime=lifetime if decay else np.inf)
    u = evolve_operator(sched, s)
    assert np.max(np.abs(evolve_operator(mirror, s) - u.T)) <= 1e-12


def _step_by_step(m, psi):
    """States after each step, m[..., k] @ ... @ m[..., 0] @ psi as (n, 3),
    one matrix-vector product at a time: the exact reference."""
    out = np.empty((m.shape[-1], 3), dtype=complex)
    for k in range(m.shape[-1]):
        psi = m[..., k] @ psi
        out[k] = psi
    return out


def _assert_sampled_rows_match(traj, sched, s, psi0, stride=7):
    """A run keeping every stride-th row (and the last) returns exactly
    those rows of the full run traj."""
    sampled = propagate(StateVector(psi0), sched, s, IntegratorOpts(sample_stride=stride))
    idx = np.unique(np.append(np.arange(0, len(traj.times), stride), len(traj.times) - 1))
    assert np.array_equal(sampled.times, traj.times[idx])
    assert np.array_equal(sampled.states, traj.states[idx])
    assert np.array_equal(sampled.norms, traj.norms[idx])


@pytest.mark.parametrize("field", [0.0, 0.29, 2.7])
@pytest.mark.parametrize("ratio", [0.01, -0.01, 1.0, -1.0, 100.0, -100.0])
def test_mirrored_propagate_matches_forward_scan(field, ratio):
    # an even schedule steps only [c, t_end] and gets [t_start, c] by time
    # reversal; on the same grid stepping forward over every step agrees to
    # rounding (measured at most 5.5e-15)
    sched = PulseSchedule([two_pi_pulse(1.0, 1.0 / ratio)], (-20.0, 20.0))
    s = SystemParams(omega_B=larmor_from_field(field))
    psi0 = np.array([0.6, 0.48j, 0.64])
    traj = propagate(StateVector(psi0), sched, s)
    times = _grid(sched, s)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(times, -times[::-1])
    ref = _step_by_step(_step_matrices([(times, sched)], [s], _Workspace()), psi0)
    assert np.array_equal(traj.states[0], psi0)
    assert np.max(np.abs(traj.states[1:] - ref)) <= 1e-13


def test_mirrored_sampled_rows_match_full_run():
    # |Delta| = 100: 1,302 steps per half, one chunk, so the run is
    # mirrored; the sampled rows on both sides of the center are the full
    # run's rows, with the center row sampled (stride 7) and not (stride 5)
    sched = PulseSchedule([two_pi_pulse(1.0, 100.0)], (-20.0, 20.0))
    s = SystemParams(omega_B=larmor_from_field(0.29))
    psi0 = np.array([0.6, 0.48j, 0.64])
    traj = propagate(StateVector(psi0), sched, s)
    assert (len(traj.times) - 1) // 2 == 1302 <= propagator.CHUNK_STEPS
    for stride in (7, 5):
        _assert_sampled_rows_match(traj, sched, s, psi0, stride)


def test_long_even_schedule_steps_forward_over_chunks():
    # |Delta| = 1e3: 13,012 steps per half, more than one chunk, so the
    # even schedule steps forward over the whole grid, in four chunks
    # (measured 5.0e-14 against step by step)
    sched = PulseSchedule([two_pi_pulse(1.0, -1e3)], (-20.0, 20.0))
    s = SystemParams(omega_B=larmor_from_field(0.29))
    psi0 = np.array([0.6, 0.48j, 0.64])
    traj = propagate(StateVector(psi0), sched, s)
    times = traj.times
    assert (len(times) - 1) // 2 > propagator.CHUNK_STEPS
    ref = _step_by_step(_step_matrices([(times, sched)], [s], _Workspace()), psi0)
    assert np.max(np.abs(traj.states[1:] - ref)) <= 1e-13
    # sampled rows on both sides of the center are the full run's rows
    _assert_sampled_rows_match(traj, sched, s, psi0)


def test_forward_pieces_share_packs_with_lone_bits(monkeypatch, step_packs):
    # forward pieces pack like mirrored halves: pulseless windows of 16 and
    # 32 steps and two-pulse grids share packs with halves, with each other
    # under decay and on uniform grids. A mirrored half of at most
    # SCAN_BLOCK steps doubles its prefixes alone as in a pack; a pulse's
    # half has at least 56 steps, so the last case coarsens the grid to 13.
    # Every trajectory has the bits propagate gives it alone
    s = SystemParams(omega_B=larmor_from_field(0.29))
    short, wide = PulseSchedule([], (0.0, 10.0)), PulseSchedule([], (0.0, 300.0))
    pair = schedule_for_pulses([two_pi_pulse(1.0, 0.667, 0.0), two_pi_pulse(1.0, -0.667, 21.0)])
    single = PulseSchedule([two_pi_pulse(1.0, 1.0)], (-20.0, 20.0))
    decay = SystemParams(omega_B=s.omega_B, trion_lifetime=100.0)
    cases = [
        ([short, wide, short, wide, pair, single, short, pair], s, IntegratorOpts(),
         [[16, 32, 16, 32, 390], [114, 16, 390]]),
        ([pair, single, wide, pair, single], decay, IntegratorOpts(sample_stride=7),
         [[390, 228, 32, 390, 228]]),
        ([single, pair, single, pair], s, IntegratorOpts(dt=0.08), [[500, 741], [500, 741]]),
        ([PulseSchedule([two_pi_pulse(5.0, 0.0)], (-1.0, 1.0)), single], s, IntegratorOpts(),
         [[13, 27]]),
    ]
    psi0 = StateVector(np.array([0.6, 0.48j, 0.64]))
    for k, (scheds, system, opts, expected) in enumerate(cases):
        if k == len(cases) - 1:
            monkeypatch.setattr(propagator, "RESOLUTION_TARGET", 0.3)
        step_packs.clear()
        got = list(propagate_many([psi0] * len(scheds), scheds, system, opts))
        assert step_packs == expected
        for traj, sched in zip(got, scheds):
            alone = propagate(psi0, sched, system, opts)
            assert np.array_equal(traj.times, alone.times)
            assert np.array_equal(traj.states, alone.states)
            assert np.array_equal(traj.norms, alone.norms)


def _random_generators(n, rng, scales):
    """-i*H - Gamma*|trion><trion| stacked (3, 3, n): the physical family."""
    a = rng.normal(size=(n, 3, 3)) + 1j * rng.normal(size=(n, 3, 3))
    x = -0.5j * (a + a.conj().transpose(0, 2, 1)) * scales[:, None, None]
    x[:, 2, 2] -= 0.1 * scales
    return np.ascontiguousarray(x.transpose(1, 2, 0))


def test_batched_exponential_matches_mpmath():
    # norms from 1e-4 to 1e4 hit every scaling group, including the
    # squaring depth a detuning of 1e6 rad/ps needs at dt = 0.01
    x = _random_generators(48, np.random.default_rng(3), np.geomspace(1e-4, 1e4, 48))
    got = _expm(x, _Workspace())
    for k in range(x.shape[-1]):
        norm = np.abs(x[..., k]).sum(axis=0).max()
        with mp.workdps(30):
            ref = np.array(mp.expm(mp.matrix(x[..., k].tolist())).tolist(), dtype=complex)
        # ~100 roundings of 1.1e-16, and squaring grows them with the norm
        assert np.max(np.abs(got[..., k] - ref)) <= 1e-14 * max(1.0, norm)


def test_batched_exponential_leaves_its_input():
    x = _random_generators(40, np.random.default_rng(4), np.geomspace(1e-3, 1e3, 40))
    before = x.copy()
    _expm(x, _Workspace())
    assert np.array_equal(x, before)


@pytest.mark.filterwarnings("ignore:omega_B/eta")
def test_evolve_operators_match_one_gate_at_a_time(step_packs):
    # a mixed list: pairs at B = 0, 0.27 and 2.7 T with decay on and off,
    # the single resonant pulse at |gamma| = pi, one grid longer than the
    # pack cap and one longer than a chunk; every operator is the one
    # evolve_operator returns alone, and the one-chunk fold of its steps
    def pair(gamma):
        p = design_for_angle(gamma, 1.0)
        return schedule_for_pulses([p.pulse1, p.pulse2])

    lone = schedule_for_pulses([two_pi_pulse(1.0, 0.0)])
    past_cap = PulseSchedule([two_pi_pulse(1.0, 100.0)], (-20.0, 20.0))
    past_chunk = PulseSchedule([two_pi_pulse(1.0, -1e3)], (-20.0, 20.0))
    cases = [(pair(g), SystemParams(omega_B=larmor_from_field(b), trion_lifetime=tau))
             for g in (-2.0, 0.5, 1.5) for b in (0.0, 0.27, 2.7) for tau in (900.0, np.inf)]
    cases[4:4] = [(lone, SystemParams(omega_B=larmor_from_field(0.27), trion_lifetime=900.0)),
                  (past_cap, SystemParams(omega_B=larmor_from_field(0.27)))]
    cases[12:12] = [(past_chunk, SystemParams(trion_lifetime=900.0))]
    scheds, systems = zip(*cases)
    packs = step_packs
    got = evolve_operators(scheds, systems)
    steps = [len(_grid(sched, s)) - 1 for sched, s in cases]
    cap, chunk = propagator.PACK_STEPS, propagator.CHUNK_STEPS
    assert steps[12] > chunk and chunk >= steps[5] > cap
    # gates shared packs of at most cap steps times gates; the two long
    # grids ran alone, the longer one chunk by chunk
    assert any(len(p) > 1 for p in packs)
    assert all(len(p) * max(p) <= cap for p in packs if len(p) > 1)
    assert [steps[5]] in packs and [chunk] in packs
    assert sum(len(p) for p in packs) == len(cases) - 1 + -(-steps[12] // chunk)
    for u, (sched, s), n in zip(got, cases, steps):
        assert np.array_equal(u, evolve_operator(sched, s))
        if n <= propagator.CHUNK_STEPS:
            times = _grid(sched, s)
            m = _step_matrices([(times, sched)], [s], _Workspace())
            assert np.array_equal(u, _fold(m) @ np.eye(3))
    # an explicit dt: uniform grids of 765 steps, two gates a pack
    opts = IntegratorOpts(dt=0.05)
    singles = [schedule_for_pulses([two_pi_pulse(1.0, d)]) for d in (0.0, 0.5, -2.0)]
    cases = [(sched, s) for sched in singles for s in systems[:4]]
    packs.clear()
    got = evolve_operators([sched for sched, _ in cases], [s for _, s in cases], opts)
    assert packs == [[765, 765]] * 6
    for u, (sched, s) in zip(got, cases):
        assert np.array_equal(u, evolve_operator(sched, s, opts))


def test_evolve_operators_needs_one_system_per_schedule():
    sched = schedule_for_pulses([two_pi_pulse(1.0, 0.0)])
    with pytest.raises(ValueError, match="one SystemParams per schedule"):
        evolve_operators([sched, sched], [SystemParams()])


def test_running_products_and_fold_match_step_by_step_products():
    # 1000 steps take the running products through two levels of block
    # totals, doubling their in-block prefixes; 2100 steps (132 blocks) run
    # the top level's products in sequence
    for n in (1000, 2100):
        m = _expm(_random_generators(n, np.random.default_rng(5), np.full(n, 0.05)), _Workspace())
        u = np.eye(3, dtype=complex)
        products = np.empty_like(m)
        for k in range(m.shape[-1]):
            u = m[..., k] @ u
            products[..., k] = u
        assert np.max(np.abs(_fold(m) - u)) < 1e-13
        scanned = _running_products(m.copy(), [n], _Workspace())[:, :, 0, :n]
        assert np.max(np.abs(scanned - products)) < 1e-13


def test_running_products_pack_rows_match_packs_of_one():
    # one identity-padded stack of 63 blocks a row: the rows of 8 and 16
    # steps are padded by 1000 steps, 17 and 273 cross a block edge, and
    # the block totals of 272 and 273 steps (16 and 17 of them) fill one
    # block one level up and cross into a second. Every row has the bits of
    # its segment scanned as a pack of one
    lengths = [8, 16, 17, 272, 273, 1000]
    n = sum(lengths)
    m = _expm(_random_generators(n, np.random.default_rng(6), np.full(n, 0.05)), _Workspace())
    packed = _running_products(m.copy(), lengths, _Workspace())
    assert packed.shape == (3, 3, len(lengths), 1008)
    a = 0
    for k, length in enumerate(lengths):
        alone = _running_products(m[..., a:a + length].copy(), [length], _Workspace())
        assert alone.shape[2] == 1
        assert np.array_equal(packed[:, :, k, :length], alone[:, :, 0, :length])
        a += length



def test_running_products_are_prefix_stable():
    # the first L running products of a 2,048-step segment (128 blocks, 127
    # totals, 8 blocks one level up) are those of its first L steps, bit for
    # bit: L within one block, on a block edge and across one, with 16 and
    # 17 block totals (one block one level up and two), and near the end
    n = 2048
    m = _expm(_random_generators(n, np.random.default_rng(7), np.full(n, 0.05)), _Workspace())
    whole = _running_products(m.copy(), [n], _Workspace())[:, :, 0]
    for length in (1, 16, 17, 272, 273, 1000, 2047):
        prefix = _running_products(m[..., :length].copy(), [length], _Workspace())[:, :, 0]
        assert np.array_equal(whole[..., :length], prefix[..., :length]), length

def test_step_build_results_are_not_workspace_views():
    # stacks built into one workspace, as a sweep's packs are, stay as they
    # were when later builds of other sizes reuse it, and equal builds in a
    # workspace of their own: generators whose smallest scaling power is
    # even and odd (the squarings alternate between the result and the
    # workspace), a mixed stack with masked levels, and two step builds
    ws = _Workspace()
    rng = np.random.default_rng(8)
    stacks = [_random_generators(n, rng, scales) for n, scales in
              ((40, np.full(40, 0.02)), (300, np.full(300, 0.3)), (60, np.full(60, 1.5)),
               (500, np.geomspace(1e-3, 1e3, 500)))]
    norms = [np.abs(x).sum(axis=0).max(axis=0) for x in stacks]
    powers = [np.maximum(np.frexp(norm / propagator.TAYLOR_THETA)[1], 0) for norm in norms]
    assert {int(k.min()) % 2 for k in powers} == {0, 1} and powers[3].min() < powers[3].max()
    kept = [_expm(x, ws) for x in stacks]
    sched = schedule_for_pulses([two_pi_pulse(1.0, 1.0)])
    times = _grid(sched, SystemParams())
    kept.append(_step_matrices([(times, sched)], [SystemParams()], ws))
    copies = [m.copy() for m in kept]
    _step_matrices([(times[:60], sched)], [SystemParams(omega_B=0.3)], ws)
    _expm(_random_generators(700, rng, np.full(700, 4.0)), ws)
    for m, copy in zip(kept, copies):
        assert np.array_equal(m, copy)
    for m, x in zip(kept, stacks):
        assert np.array_equal(m, _expm(x, _Workspace()))
    alone = _step_matrices([(times, sched)], [SystemParams()], _Workspace())
    assert np.array_equal(kept[-1], alone)


@pytest.mark.filterwarnings("ignore:omega_B/eta")
def test_sweep_results_are_their_own_arrays(step_packs):
    # what a sweep returns does not point into the working memory its packs
    # share: the arrays kept from propagate_many, evolve_operators, a
    # numeric sweep_ratio and fidelity_sweep, each of several packs, stay
    # bit for bit as they were after calls whose packs have other sizes
    # (8,192-step forward chunks at Delta = -1000, a 2.7 T gate sweep and a
    # B = 0 phase sweep), and equal the calls of each entry alone
    s = SystemParams(omega_B=larmor_from_field(0.29))
    psi0 = StateVector.ket_z()
    ratios = [0.05, 0.3, 1.0, -2.0, 6.0, 40.0]
    scheds = [schedule_for_pulses([two_pi_pulse(1.0, 1.0 / r)]) for r in ratios]
    trajs = list(propagate_many([psi0] * len(scheds), scheds, s))
    assert len(step_packs) > 1
    pairs = [design_for_angle(g, 1.0) for g in (-2.0, 0.5, 1.5)]
    gates = [(schedule_for_pulses([p.pulse1, p.pulse2]), SystemParams(omega_B=larmor_from_field(b)))
             for p in pairs for b in (0.0, 2.7)]
    ops = evolve_operators(*zip(*gates))
    decs = phases.sweep_ratio(ratios, "numeric", s=s)
    angles, fields = (-1.5, 0.5, 3.0), (0.27, 1.35)
    reports = fidelity_sweep(angles, fields)
    kept = [a for t in trajs for a in (t.times, t.states, t.norms)] + ops
    kept += [a for r in reports for a in (r.u_actual, r.u_ideal)]
    copies = [a.copy() for a in kept]
    propagate(psi0, PulseSchedule([two_pi_pulse(1.0, -1000.0)], (-20.0, 20.0)), s)
    assert [propagator.CHUNK_STEPS] in step_packs
    fidelity_sweep(np.linspace(-3.0, 3.0, 25), [2.7])
    phases.sweep_ratio(np.geomspace(0.01, 100.0, 13), "numeric", s=SystemParams())
    for a, copy in zip(kept, copies):
        assert np.array_equal(a, copy)
    for traj, sched in zip(trajs, scheds):
        alone = propagate(psi0, sched, s)
        assert all(np.array_equal(getattr(traj, k), getattr(alone, k))
                   for k in ("times", "states", "norms"))
    for u, (sched, system) in zip(ops, gates):
        assert np.array_equal(u, evolve_operator(sched, system))
    for dec, r in zip(decs, ratios):
        alone = phases.decompose(1.0, 1.0 / r, "numeric", s)
        assert (dec.overall, dec.dynamic) == (alone.overall, alone.dynamic)
    for report, (g, b) in zip(reports, [(g, b) for g in angles for b in fields]):
        alone = gate_report(g, b)
        assert np.array_equal(report.u_actual, alone.u_actual)
        assert report.fidelity == alone.fidelity


# After a warm-up, the minor page faults of a fidelity sweep over the README
# angles at 2.7 T and of a numeric sweep over 13 ratios at 0.29 T, counted
# in a fresh interpreter: the allocator's trimming, which turns freed
# memory into page faults, depends on what the process allocated before.
SWEEP_FAULTS = """
import resource, warnings
import numpy as np
from sechspin import phases
from sechspin.fidelity import fidelity_sweep
from sechspin.model import SystemParams, larmor_from_field
warnings.simplefilter("ignore")
s = SystemParams(omega_B=larmor_from_field(0.29))
for _ in range(2):
    counts = []
    for sweep in (lambda: fidelity_sweep(np.linspace(-3.0, 3.0, 25), [2.7]),
                  lambda: phases.sweep_ratio(np.geomspace(0.01, 100.0, 13), "numeric", s=s)):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        sweep()
        counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*counts)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts the minor page faults of Linux's getrusage")
def test_sweeps_reuse_their_step_build_memory():
    # every pack's step build used to allocate its working arrays afresh;
    # the allocator handed them back to the system after the pack, and the
    # next pack page-faulted them in again. A sweep's packs now share one
    # workspace, faulted in once a sweep. Measured (Linux, glibc 2.36,
    # numpy 2.4, Python 3.11): the gate sweep took 5,464 faults and the
    # phase sweep 350 with fresh arrays a pack, and take 299 and 171 with
    # the workspace. The bound leaves room for other versions of the
    # allocator and numpy
    res = subprocess.run([sys.executable, "-c", SWEEP_FAULTS], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    gate, phase = map(int, res.stdout.split())
    assert gate + phase < 1500, (gate, phase)


def test_grid_halving_convergence():
    p = two_pi_pulse(1.0, 1.0)
    sched = schedule_for_pulses([p])
    s = SystemParams(omega_B=0.0072)
    f1 = propagate(StateVector.ket_z(), sched, s, IntegratorOpts(dt=0.01)).states[-1]
    f2 = propagate(StateVector.ket_z(), sched, s, IntegratorOpts(dt=0.005)).states[-1]
    assert np.max(np.abs(f1 - f2)) < 1e-9


def test_evolve_operator_unitary_without_decay():
    sched = schedule_for_pulses([two_pi_pulse(1.0, 0.7)])
    u = evolve_operator(sched, SystemParams(omega_B=0.007))
    assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-8


def test_evolve_operator_contraction_with_decay():
    sched = schedule_for_pulses([two_pi_pulse(1.0, 0.7)])
    s = SystemParams(omega_B=0.007, trion_lifetime=900.0)
    u = evolve_operator(sched, s)
    smax = np.linalg.svd(u, compute_uv=False).max()
    assert smax <= 1.0 + 1e-9
    assert smax < 1.0                      # decay must actually remove weight


def test_resonant_pulse_phase_pi():
    sched = schedule_for_pulses([two_pi_pulse(1.0, 0.0)])
    u = evolve_operator(sched, SystemParams())
    zz = u[1, 1]
    assert abs(abs(zz) - 1.0) < 1e-6
    assert np.angle(zz) == pytest.approx(np.pi, abs=1e-6)
    assert abs(u[0, 0] - 1.0) < 1e-10      # zbar untouched at omega_B = 0


def test_empty_schedule_identity():
    u = evolve_operator(PulseSchedule([], (0.0, 10.0)), SystemParams())
    assert np.array_equal(u, np.eye(3, dtype=complex))


def test_truncate_qubit():
    m = np.diag([0.5, 0.25, 7.0]).astype(complex)
    q = truncate_qubit(m)
    assert q.shape == (2, 2)
    assert np.array_equal(q, np.diag([0.5, 0.25]))
    q[0, 0] = 0                            # copy, not a view
    assert m[0, 0] == 0.5


def test_trajectory_sampling_stride():
    sched = schedule_for_pulses([two_pi_pulse(1.0, 1.0)])
    traj = propagate(StateVector.ket_z(), sched, SystemParams(),
                     IntegratorOpts(dt=0.01, sample_stride=7))
    t0, t1 = sched.window
    assert traj.times[0] == t0 and traj.times[-1] == t1
    assert len(traj.times) == len(traj.states) == len(traj.norms)
    full = propagate(StateVector.ket_z(), sched, SystemParams(),
                     IntegratorOpts(dt=0.01))
    assert np.allclose(traj.states[-1], full.states[-1], atol=0)


def test_sampled_rows_match_full_trajectory():
    # 9,553 steps: the samples straddle a chunk boundary
    sched = schedule_for_pulses([two_pi_pulse(1.0, 1.0)])
    s = SystemParams(omega_B=0.007)
    full = propagate(StateVector.ket_z(), sched, s, IntegratorOpts(dt=0.004))
    traj = propagate(StateVector.ket_z(), sched, s, IntegratorOpts(dt=0.004, sample_stride=7))
    idx = np.append(np.arange(0, len(full.times), 7), len(full.times) - 1)
    assert len(full.times) > propagator.CHUNK_STEPS
    assert np.array_equal(traj.times, full.times[idx])
    assert np.array_equal(traj.states, full.states[idx])
    assert np.array_equal(traj.norms, full.norms[idx])


def test_norm_blowup_between_samples(monkeypatch):
    # one step grows the norm by 2e-3 and the next undoes it, so no sampled
    # row sees it; the check still covers every step, also when the bumped
    # steps sit in the second segment of a pack
    step_matrices = propagator._step_matrices
    sched = schedule_for_pulses([two_pi_pulse(1.0, 1.0)])
    for segment in (0, 1):
        packs = []

        def bumped(grids, systems, *ws):
            m = step_matrices(grids, systems, *ws)
            k = sum(times.shape[0] - 1 for times, _ in grids[:segment]) + 3
            m[..., k] *= 1.001
            m[..., k + 1] /= 1.001
            packs.append(len(grids))
            return m

        monkeypatch.setattr(propagator, "_step_matrices", bumped)
        with pytest.raises(NormBlowup):
            list(propagate_many([StateVector.ket_z()] * (segment + 1), [sched] * (segment + 1),
                                SystemParams(), IntegratorOpts(sample_stride=1000)))
        assert packs == [segment + 1]


def test_step_guard():
    sched = schedule_for_pulses([two_pi_pulse(1.0, 0.0)])
    with pytest.raises(StepTooLarge):
        propagate(StateVector.ket_z(), sched, SystemParams(),
                  IntegratorOpts(dt=0.2))   # dt*Omega = 0.2 >= 0.1
    # the graded grid over an enormous window: 2e9 rate samples at
    # RATE_SAMPLING/eta apart exceed the step cap, refused before the
    # auxiliary grid is allocated
    half = 1e8
    wide = PulseSchedule([two_pi_pulse(1.0, 0.0, center=0.0)], (-half, half))
    with pytest.raises(StepTooLarge, match="rate samples"):
        propagate(StateVector.ket_z(), wide, SystemParams())
    assert 2.0 * half / propagator.RATE_SAMPLING > MAX_STEPS    # the arithmetic the guard protects
    # gamma = 3.14: the neighbour's tail turns 25 rad per step at dt = 0.01/eta
    pair = design_for_angle(3.14, 1.0)
    with pytest.raises(StepTooLarge):
        evolve_operator(schedule_for_pulses([pair.pulse1, pair.pulse2]), SystemParams(),
                        IntegratorOpts(dt=0.01))


def test_unnormalized_input_rejected():
    sched = PulseSchedule([], (0.0, 1.0))
    with pytest.raises(ValueError):
        propagate(StateVector([0.5, 0.0, 0.0]), sched, SystemParams())


def test_norm_blowup_is_arithmetic_error():
    assert issubclass(NormBlowup, ArithmeticError)
    assert issubclass(StepTooLarge, ValueError)


def test_schedule_validation():
    p = two_pi_pulse(1.0, 0.0, center=0.0)
    with pytest.raises(ValueError):
        PulseSchedule([p], (5.0, -5.0))                    # reversed window
    with pytest.raises(ValueError):
        PulseSchedule([p], (-2.0, 20.0))                   # margin < 5/eta
    q = two_pi_pulse(1.0, 1.0, center=0.0)
    with pytest.raises(ValueError):
        PulseSchedule([p, q], (-20.0, 20.0))               # equal centers
    r = two_pi_pulse(1.0, 1.0, center=3.0)
    with pytest.raises(ValueError):
        PulseSchedule([p, r], (-20.0, 23.0))               # envelopes overlap
    PulseSchedule([p, two_pi_pulse(1.0, 1.0, center=14.0)], (-20.0, 34.0))


def test_overlap_boundary_is_closed_form():
    # envelope j exceeds the fraction on |t - c_j| < arccosh(1/fraction)/eta_j
    x = float(np.arccosh(1.0 / OVERLAP_FRACTION))
    edge = x / 1.0 + x / 2.0
    p = two_pi_pulse(1.0, 0.0, center=0.0)
    with pytest.raises(ValueError):
        PulseSchedule([p, two_pi_pulse(2.0, 1.0, center=edge * (1 - 1e-9))], (-20.0, 40.0))
    PulseSchedule([p, two_pi_pulse(2.0, 1.0, center=edge * (1 + 1e-9))], (-20.0, 40.0))


def test_schedule_for_pulses_margins():
    p = two_pi_pulse(2.0, 0.0, center=5.0)
    sched = schedule_for_pulses([p])
    t0, t1 = sched.window
    # default margin puts the envelope at 1e-8 of peak at the window edge
    assert p.rabi_peak * sech(p.bandwidth * (t0 - p.center)) == pytest.approx(
        1e-8 * p.rabi_peak, rel=1e-6)
    assert t1 - 5.0 == pytest.approx(5.0 - t0, rel=1e-12)
    with pytest.raises(ValueError):
        schedule_for_pulses([])


def test_integrator_opts_validation():
    with pytest.raises(ValueError):
        IntegratorOpts(dt=0.0)
    with pytest.raises(ValueError):
        IntegratorOpts(sample_stride=0)


@pytest.mark.parametrize("stride", [2.5, 3.0, np.float64(3.0), "3"])
def test_integrator_opts_refuses_non_integer_stride(stride):
    # a float stride used to pass and end in numpy's IndexError in propagate
    with pytest.raises(ValueError, match="sample_stride"):
        IntegratorOpts(sample_stride=stride)


def test_fast_precession_warns():
    # the warning points at the line that called propagate or evolve_operator
    sched = schedule_for_pulses([two_pi_pulse(1.0, 0.0)])
    s = SystemParams(omega_B=0.5)
    with pytest.warns(UserWarning) as record:
        propagate(StateVector.ket_z(), sched, s)
        evolve_operator(sched, s)
    assert [w.filename for w in record] == [__file__] * 2
