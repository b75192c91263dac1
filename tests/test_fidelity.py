"""Average gate fidelity and the end-to-end gate reports."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sechspin import fidelity
from sechspin.fidelity import (
    GateReport,
    NonContraction,
    average_fidelity,
    fidelity_sweep,
    free_precession,
    gate_report,
    ideal_rotation,
)
from sechspin.model import SystemParams, bandwidth_from_duration, larmor_from_field, two_pi_pulse
from sechspin.propagator import (
    IntegratorOpts,
    _frequency_scale,
    evolve_operators,
    schedule_for_pulses,
)
from sechspin.pulsedesign import design_for_angle
from sechspin.special import overall_phase

ANGLES = [np.pi / 4, np.pi / 2, 3 * np.pi / 4]


def random_unitary(rng, n=2):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_matches_trace_identity_on_random_unitaries():
    # the state-averaged sum equals (|tr I|^2 + tr(I^dag I))/6 for any U
    rng = np.random.default_rng(11)
    for _ in range(50):
        u, u_id = random_unitary(rng), random_unitary(rng)
        i_mat = u.conj().T @ u_id
        ref = (abs(np.trace(i_mat)) ** 2 + np.trace(i_mat.conj().T @ i_mat).real) / 6.0
        assert abs(average_fidelity(u, u_id) - ref) < 1e-12


def test_common_phase_invariance():
    rng = np.random.default_rng(12)
    for chi in (0.3, 1.7, -2.2):
        u, u_id = random_unitary(rng), random_unitary(rng)
        f0 = average_fidelity(u, u_id)
        f1 = average_fidelity(np.exp(1j * chi) * u, np.exp(1j * chi) * u_id)
        assert abs(f0 - f1) < 1e-12


def test_perfect_gate_scores_one():
    rng = np.random.default_rng(13)
    u = random_unitary(rng)
    assert average_fidelity(u, u) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("theta", [0.0, 0.4, np.pi / 2, np.pi])
def test_phase_error_curve(theta):
    # F(identity vs diag(1, e^{i theta})) = 2/3 + cos(theta)/3
    f = average_fidelity(np.eye(2, dtype=complex), ideal_rotation(theta))
    assert f == pytest.approx(2.0 / 3.0 + np.cos(theta) / 3.0, abs=1e-12)


def test_zero_map_scores_zero():
    assert average_fidelity(np.zeros((2, 2)), ideal_rotation(0.3)) == 0.0


def test_noncontraction_rejected():
    with pytest.raises(NonContraction):
        average_fidelity(1.1 * np.eye(2), np.eye(2))


def random_contractions(rng, n):
    """n random 2x2 complex matrices, each scaled to a largest singular
    value between 0 and 1."""
    g = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    smax = np.linalg.svd(g, compute_uv=False)[:, 0]
    return g * (rng.uniform(0.0, 1.0, n) / smax)[:, None, None]


def test_stack_scores_each_slice_alone():
    # the stacked pass gives each slice the bits it gets alone, and keeps
    # to 1e-15 the per-entry sum it replaced, which squared each |I_ij|
    # with pow where the stack multiplies
    rng = np.random.default_rng(14)
    u = random_contractions(rng, 200)
    u_id = np.array([random_unitary(rng) for _ in range(200)])
    stacked = average_fidelity(u, u_id)
    assert stacked.shape == (200,)
    alone = np.array([average_fidelity(a, b) for a, b in zip(u, u_id)])
    assert np.array_equal(stacked, alone)
    for f, a, b in zip(stacked, u, u_id):
        overlap = a.conj().T @ b
        d0, d1 = overlap[0, 0], overlap[1, 1]
        ref = (abs(d0) ** 2 + abs(d1) ** 2) / 3.0 + (
            abs(overlap[0, 1]) ** 2 + abs(overlap[1, 0]) ** 2
            + d0 * np.conj(d1) + d1 * np.conj(d0)) / 6.0
        assert abs(f - ref.real) <= 1e-15


def test_one_noncontraction_in_a_stack_is_rejected():
    rng = np.random.default_rng(15)
    u = random_contractions(rng, 10)
    u[6] = 1.1 * random_unitary(rng)
    with pytest.raises(NonContraction, match="1.100000000"):
        average_fidelity(u, np.eye(2))


def test_largest_singular_value_matches_svd():
    rng = np.random.default_rng(16)
    u = random_contractions(rng, 1000)
    # and unitaries scaled to either side of the 1 + 1e-6 rejection edge
    edge = np.array([random_unitary(rng) for _ in range(200)])
    edge *= (1.0 + 1e-6 + rng.uniform(-1e-12, 1e-12, 200))[:, None, None]
    for stack in (u, edge):
        ref = np.linalg.svd(stack, compute_uv=False)[:, 0]
        assert np.max(np.abs(fidelity._largest_singular_value(stack) - ref)) <= 1e-15


def test_ideal_rotation_and_precession():
    r = ideal_rotation(0.9)
    assert r[0, 0] == 1.0 and abs(r[1, 1] - np.exp(0.9j)) < 1e-15
    assert r[0, 1] == r[1, 0] == 0.0
    p = free_precession(0.01, 50.0)
    assert np.max(np.abs(p.conj().T @ p - np.eye(2))) < 1e-15
    assert p[0, 0] == pytest.approx(np.cos(0.5))
    assert p[0, 1] == pytest.approx(-1j * np.sin(0.5))


def test_gate_report_reference_point():
    rep = gate_report(np.pi / 2, 0.29)
    assert isinstance(rep, GateReport)
    assert rep.gamma_tot == pytest.approx(np.pi / 2, abs=1e-12)
    assert rep.B == 0.29
    assert rep.u_actual.shape == (2, 2)
    assert 0.0 < rep.residual_population < 0.02
    assert 0.99 < rep.fidelity < 1.0


@pytest.mark.parametrize("gamma", [0.3, np.pi / 4, np.pi / 2, 3 * np.pi / 4, -2.0, np.pi])
def test_closed_loop_exact_without_field_or_decay(gamma):
    rep = gate_report(gamma, 0.0, tau_t=float("inf"))
    assert rep.fidelity == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("gamma", ANGLES)
def test_sign_symmetry(gamma):
    f_pos = gate_report(gamma, 0.29).fidelity
    f_neg = gate_report(-gamma, 0.29).fidelity
    assert abs(f_pos - f_neg) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(gamma=st.floats(-3.0, 3.0), field=st.floats(0.0, 1.35))
def test_sign_symmetry_on_random_gates(gamma, field):
    # the -gamma gate is scored from D*U^dagger*D of the +gamma gate
    # (test_time_reversal_against_direct_propagation), so only the scoring's
    # rounding parts the two
    f_pos = gate_report(gamma, field).fidelity
    f_neg = gate_report(-gamma, field).fidelity
    assert abs(f_pos - f_neg) <= 1e-12


@pytest.mark.filterwarnings("ignore:omega_B/eta")   # 2.7 T sits right at the edge
@pytest.mark.parametrize("gamma", ANGLES)
def test_monotone_degradation_in_field(gamma):
    fs = [gate_report(gamma, b).fidelity for b in (0.27, 1.35, 2.7)]
    assert fs[0] > fs[1] > fs[2]


def test_decay_matches_closed_form_at_zero_field():
    # at B = 0 each 2*pi pulse multiplies the z amplitude by 1 - 1/c_k,
    # c_k = (1 + Gamma/eta + i*Delta_k/eta)/2; the 1.6e-9 left over is tail
    # contact between the pulses at 14/eta, not integration error
    tau_d, tau_t = 1.5, 900.0
    eta = bandwidth_from_duration(tau_d)
    rate = SystemParams(trion_lifetime=tau_t).decay_rate
    for gamma in np.linspace(-3.0, 3.0, 25):
        rep = gate_report(float(gamma), 0.0, tau_d=tau_d, tau_t=tau_t)
        pair = design_for_angle(float(gamma), eta, 14.0 * tau_d)
        c = [(1.0 + rate / eta + 1j * p.detuning / eta) / 2.0 for p in (pair.pulse1, pair.pulse2)]
        zz = np.prod([1.0 - 1.0 / ck for ck in c])
        assert abs(rep.fidelity - average_fidelity(np.diag([1.0, zz]), rep.u_ideal)) <= 5e-9


@pytest.mark.filterwarnings("ignore:omega_B/eta")   # 2.7 T gives omega_B/eta = 0.102
@pytest.mark.parametrize("field", [0.27, 2.7])
def test_readme_gate_sweep_within_budget(field):
    # the README angles with decay on: against a uniform run at a quarter
    # of the step 0.035 over the peak rate, the qubit block errs by at most
    # 1e-10 (measured 3.5e-11 at 0.27 T and 6.1e-11 at 2.7 T, both at
    # gamma = 3; the previous step rule reached 2.0e-11)
    tau_d = 1.5
    eta = bandwidth_from_duration(tau_d)
    s = SystemParams(omega_B=larmor_from_field(field), trion_lifetime=900.0)
    for gamma in np.linspace(-3.0, 3.0, 25):
        pair = design_for_angle(float(gamma), eta, 14.0 * tau_d)
        sched = schedule_for_pulses([pair.pulse1, pair.pulse2])
        ref_opts = IntegratorOpts(dt=0.035 / _frequency_scale(sched, s) / 4)
        ref = gate_report(float(gamma), field, opts=ref_opts).u_actual
        assert np.max(np.abs(gate_report(float(gamma), field).u_actual - ref)) <= 1e-10


def test_decay_costs_fidelity():
    with_decay = gate_report(np.pi / 2, 0.29).fidelity
    without = gate_report(np.pi / 2, 0.29, tau_t=float("inf")).fidelity
    assert with_decay < without


def test_pi_rotation_single_pulse():
    rep = gate_report(np.pi, 0.29)
    assert rep.gamma_tot == pytest.approx(np.pi)
    assert 0.99 < rep.fidelity < 1.0
    with pytest.raises(ValueError):
        gate_report(3.5, 0.29)


def test_interleaved_beats_bare_at_low_field():
    inter = gate_report(np.pi / 2, 0.29, ideal="interleaved").fidelity
    bare = gate_report(np.pi / 2, 0.29, ideal="bare").fidelity
    assert inter > bare
    with pytest.raises(ValueError):
        gate_report(np.pi / 2, 0.29, ideal="fancy")


def test_duration_convention_switch():
    a = gate_report(np.pi / 2, 0.29).fidelity
    b = gate_report(np.pi / 2, 0.29, duration_convention="fwhm").fidelity
    assert a != b                       # genuinely different pulse bandwidths
    assert 0.99 < b < 1.0


@pytest.mark.filterwarnings("ignore:omega_B/eta")   # 2.7 T gives omega_B/eta = 0.102
def test_sweep_shapes():
    reports = fidelity_sweep([0.5, 1.0], [0.29, 1.35, 2.7])
    assert len(reports) == 6
    assert [r.B for r in reports[:3]] == [0.29, 1.35, 2.7]     # gamma-major
    assert reports[0].gamma_tot == pytest.approx(0.5)
    assert fidelity_sweep([], [0.29]) == fidelity_sweep([0.5], []) == []


@pytest.mark.filterwarnings("ignore:omega_B/eta")
def test_sweep_equals_one_report_per_gate():
    # the sweep's gates share packs of operators, each report is a pack of
    # one: every field agrees to the bit, decay on and off, at B = 0, for
    # +-gamma pairs and at the single resonant pulse |gamma| = pi
    angles, fields = [-np.pi, -3.0, -2.0, 0.0, 0.25, 1.0, 2.0, 3.0], [0.0, 0.27, 2.7]
    for kw in ({}, {"tau_t": float("inf")}):
        sweep = fidelity_sweep(angles, fields, **kw)
        alone = [gate_report(g, b, **kw) for g in angles for b in fields]
        assert len(sweep) == len(alone) == 24
        for got, ref in zip(sweep, alone):
            assert np.array_equal(got.u_actual, ref.u_actual)
            assert np.array_equal(got.u_ideal, ref.u_ideal)
            assert (got.fidelity, got.residual_population, got.B, got.gamma_tot) == (
                ref.fidelity, ref.residual_population, ref.B, ref.gamma_tot)


def test_sweep_warning_names_fidelity_module():
    # the fast-precession warning points at the sweep's evolve_operators
    # call, not into the propagator
    with pytest.warns(UserWarning, match="omega_B/eta") as record:
        fidelity_sweep([0.5, 1.0], [2.7])
    assert record and all(w.filename == fidelity.__file__ for w in record)


@pytest.mark.filterwarnings("ignore:omega_B/eta")   # 8 T is past the slow-precession edge
@pytest.mark.parametrize("dt", [False, True])
def test_time_reversal_against_direct_propagation(dt):
    # D*U^dagger*D, D = diag(1, -1, 1), is the operator of the pair run
    # backwards: order reversed, detunings negated, centers 0 and spacing
    # swapped, each built here by hand. gamma = 0 is its own reversal. The
    # integrator keeps the identity to rounding (graded grids mirror, the
    # Gauss nodes are symmetric): measured 1.5e-13 on the full operator
    # graded and 1.7e-13 with dt, 4.0e-15 on the qubit block
    eta, spacing = bandwidth_from_duration(1.5), 21.0
    flip = np.diag([1.0, -1.0, 1.0])
    for gamma in (0.0, 0.25, 2.0, 3.0):
        pair = design_for_angle(gamma, eta, spacing)
        forward = schedule_for_pulses([pair.pulse1, pair.pulse2])
        backward = schedule_for_pulses([two_pi_pulse(eta, -pair.pulse2.detuning, 0.0),
                                        two_pi_pulse(eta, -pair.pulse1.detuning, spacing)])
        for field in (0.0, 0.29, 2.7, 8.0):
            for lifetime in (900.0, float("inf")):
                s = SystemParams(omega_B=larmor_from_field(field), trion_lifetime=lifetime)
                opts = IntegratorOpts(dt=0.035 / _frequency_scale(forward, s)) if dt else None
                u, v = evolve_operators([forward, backward], [s, s], opts)
                assert np.max(np.abs(flip @ u.conj().T @ flip - v)) <= 5e-13


def test_time_reversal_reflects_unequal_gaps():
    # reversed order, centers reflected in the first and last, phases
    # negated: the gaps 5 and 7 come back as 7 and 5
    centers, phis = fidelity._time_reversed([0.0, 5.0, 12.0], [0.25, -1.5, 2.0])
    assert centers == [0.0, 7.0, 12.0]
    assert phis == [-2.0, 1.5, -0.25]


@pytest.mark.filterwarnings("ignore:omega_B/eta")   # 2.7 T is past the slow-precession edge
def test_three_pulse_time_reversal_against_direct_propagation():
    # D*U^dagger*D of three pulses at unequal gaps against the schedule
    # run backwards, built from _time_reversed's centers: detunings
    # negated in reverse order on the same window
    eta = bandwidth_from_duration(1.5)
    flip = np.diag([1.0, -1.0, 1.0])
    pulses = [two_pi_pulse(eta, 0.8, 0.0), two_pi_pulse(eta, -0.3, 16.0),
              two_pi_pulse(eta, 1.7, 37.0)]
    centers, _ = fidelity._time_reversed([p.center for p in pulses], [0.0] * 3)
    backward = [two_pi_pulse(eta, -p.detuning, c) for p, c in zip(reversed(pulses), centers)]
    forward, backward = schedule_for_pulses(pulses), schedule_for_pulses(backward)
    assert backward.window == forward.window
    for field in (0.0, 0.29, 2.7):
        for lifetime in (900.0, float("inf")):
            s = SystemParams(omega_B=larmor_from_field(field), trion_lifetime=lifetime)
            u, v = evolve_operators([forward, backward], [s, s])
            assert np.max(np.abs(flip @ u.conj().T @ flip - v)) <= 5e-13


@pytest.mark.filterwarnings("ignore:omega_B/eta")   # 2.7 T is past the slow-precession edge
@pytest.mark.parametrize("ideal", ["interleaved", "bare"])
def test_reversed_gate_targets_the_reversed_pair(ideal):
    # a -gamma gate is scored against the ideal operator of the |gamma|
    # pair run backwards, built here by hand as in
    # test_time_reversal_against_direct_propagation: bit for bit
    for tau_d in (1.5, 1.0):
        eta, spacing = bandwidth_from_duration(tau_d), 14.0 * tau_d
        for gamma in np.linspace(-3.0, -0.25, 12):
            pair = design_for_angle(-gamma, eta, spacing)
            backward = [two_pi_pulse(eta, -pair.pulse2.detuning, 0.0),
                        two_pi_pulse(eta, -pair.pulse1.detuning, spacing)]
            phis = [overall_phase(eta, p.detuning) for p in backward]
            window = schedule_for_pulses(backward).window
            for field in (0.0, 0.29, 2.7):
                u_id = fidelity._ideal_operator(ideal, phis, [0.0, spacing], window,
                                                larmor_from_field(field))
                got = gate_report(gamma, field, tau_d=tau_d, ideal=ideal)
                assert np.array_equal(got.u_ideal, u_id)


@pytest.mark.filterwarnings("ignore:omega_B/eta")   # 2.7 T gives omega_B/eta = 0.102
def test_sweep_integrates_each_gamma_pair_once(step_packs):
    # the README angles at 2.7 T integrate only the 13 gates with gamma >= 0;
    # each -gamma row is the time reversal of its +gamma gate, exactly
    angles = np.linspace(-3.0, 3.0, 25)
    reports = fidelity_sweep(angles, [2.7])
    steps = sorted(n for pack in step_packs for n in pack)
    step_packs.clear()
    fidelity_sweep(angles[angles >= 0], [2.7])
    assert len(steps) == 13 and steps == sorted(n for pack in step_packs for n in pack)
    flip = np.diag([1.0, -1.0])
    for neg, pos in zip(reports[:12], reports[:12:-1]):
        assert np.array_equal(neg.u_actual, flip @ pos.u_actual.conj().T @ flip)
    # +-pi share their one resonant pulse
    step_packs.clear()
    minus, plus = fidelity_sweep([-np.pi, np.pi], [0.29])
    assert sum(len(pack) for pack in step_packs) == 1
    assert np.array_equal(minus.u_actual, plus.u_actual)
