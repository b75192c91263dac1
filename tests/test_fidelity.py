"""Average gate fidelity and the end-to-end gate reports."""

import numpy as np
import pytest

from sechspin.fidelity import (
    GateReport,
    NonContraction,
    average_fidelity,
    fidelity_sweep,
    free_precession,
    gate_report,
    ideal_rotation,
    population_sweep,
)
from sechspin.model import SystemParams, bandwidth_from_duration
from sechspin.pulsedesign import design_for_angle

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
    rep = gate_report(gamma, 0.0, tau_t=float("inf"), decay=False)
    assert rep.fidelity == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("gamma", ANGLES)
def test_sign_symmetry(gamma):
    f_pos = gate_report(gamma, 0.29).fidelity
    f_neg = gate_report(-gamma, 0.29).fidelity
    assert abs(f_pos - f_neg) <= 1e-9


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
    rate = SystemParams(trion_lifetime=tau_t, decay_enabled=True).decay_rate
    for gamma in np.linspace(-3.0, 3.0, 25):
        rep = gate_report(float(gamma), 0.0, tau_d=tau_d, tau_t=tau_t)
        pair = design_for_angle(float(gamma), eta, 14.0 * tau_d)
        c = [(1.0 + rate / eta + 1j * p.detuning / eta) / 2.0 for p in (pair.pulse1, pair.pulse2)]
        zz = np.prod([1.0 - 1.0 / ck for ck in c])
        assert abs(rep.fidelity - average_fidelity(np.diag([1.0, zz]), rep.u_ideal)) <= 5e-9


def test_decay_costs_fidelity():
    with_decay = gate_report(np.pi / 2, 0.29).fidelity
    without = gate_report(np.pi / 2, 0.29, tau_t=float("inf"), decay=False).fidelity
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


@pytest.mark.filterwarnings("ignore:omega_B/eta")   # 8 T is deliberately fast
def test_sweep_shapes():
    reports = fidelity_sweep([0.5, 1.0], [0.29, 1.35, 2.7])
    assert len(reports) == 6
    assert [r.B for r in reports[:3]] == [0.29, 1.35, 2.7]     # gamma-major
    assert reports[0].gamma_tot == pytest.approx(0.5)
    pops = population_sweep([0.5, 1.0], 8.0)
    assert len(pops) == 2
    assert all(loss > 0 for _, loss in pops)
