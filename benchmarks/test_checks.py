"""The benchmark's checks are not vacuous: real outputs pass, and one
deliberately perturbed result is counted as a failure.

    python3 -m pytest -q benchmarks/test_checks.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402
from sechspin import fidelity, phases, pulsedesign, special  # noqa: E402
from sechspin.model import two_pi_pulse  # noqa: E402


def phase_rows(ratios, method, B):
    s = phases.SystemParams(omega_B=checks.larmor(B))
    return [(d.ratio, d.overall, d.dynamic, d.geometric, d.method)
            for d in phases.sweep_ratio(ratios, method, s)]


def test_phase_check_counts_alpha_off_by_1e6_at_zero_field():
    rows = phase_rows([-2.0, -0.5, 0.5, 2.0], "numeric", 0.0)
    assert checks.check_phase_rows(rows, 0.0)[0] == {}
    r, phi, alpha, gamma, method = rows[2]
    alpha += math.copysign(1e-6, alpha - checks.alpha_closed_form(r))
    rows[2] = (r, phi, alpha, phi - alpha, method)
    failures, _ = checks.check_phase_rows(rows, 0.0)
    assert list(failures) == ["numeric B=0 r=%r" % r]


def test_phase_check_counts_precession_that_raises_alpha():
    rows = phase_rows([0.3, 1.0], "numeric", 0.29)
    assert checks.check_phase_rows(rows, 0.29)[0] == {}
    r, phi, _, _, method = rows[1]
    alpha = checks.alpha_closed_form(r) + 1e-9
    rows[1] = (r, phi, alpha, phi - alpha, method)
    assert len(checks.check_phase_rows(rows, 0.29)[0]) == 1


def test_phase_check_counts_broken_oddness():
    # an even error of 0.9e-9 passes each row's 1e-9 alpha check, not oddness
    rows = phase_rows([-3.0, 3.0], "analytic", 0.0)
    assert checks.check_phase_rows(rows, 0.0)[0] == {}
    rows = [(r, phi, alpha + 9e-10, gamma - 9e-10, m) for r, phi, alpha, gamma, m in rows]
    failures, _ = checks.check_phase_rows(rows, 0.0)
    assert list(failures) == ["analytic B=0 r=3.0"] and "x(-r)" in failures["analytic B=0 r=3.0"]


def gate_rows(angles, B, decay_on):
    kw = {} if decay_on else {"tau_t": math.inf, "decay": False}
    out = []
    for g in angles:
        rep = fidelity.gate_report(g, B, **kw)
        out.append((g, B, rep.fidelity, rep.residual_population, decay_on))
    return out


def test_gate_check_counts_fidelity_asymmetry_of_1e8():
    rows = gate_rows([-0.5, 0.5], 0.27, True) + gate_rows([-0.5, 0.5], 0.0, False)
    assert checks.check_gate_rows(rows)[0] == {}
    g, B, f, loss, decay_on = rows[0]
    rows[0] = (g, B, rows[1][2] - 1e-8, loss, decay_on)
    failures, _ = checks.check_gate_rows(rows)
    assert failures and all("F(gamma) - F(-gamma)" in why for why in failures.values())


def test_gate_check_counts_infidelity_at_zero_field():
    rows = gate_rows([-1.0, 1.0], 0.0, False)
    assert checks.check_gate_rows(rows)[0] == {}
    rows = [(g, B, f - 2e-9, loss, d) for g, B, f, loss, d in rows]
    assert len(checks.check_gate_rows(rows)[0]) == 2


def trajectory(r, times):
    pulse = two_pi_pulse(1.0, 1.0 / r, 0.0)
    states = np.array([special.rz_state(t, pulse).amplitudes for t in times])
    refs = np.array([checks.rz_reference(t, r) for t in times])
    return states, refs


@pytest.mark.parametrize("r", [1.0, -0.1])
def test_state_check_counts_amplitude_off_by_1e9(r):
    times = [-6.0, -1.5, 0.0, 2.5, 11.0, math.inf]
    states, refs = trajectory(r, times)
    assert checks.check_trajectory(r, states, refs)[0] == {}
    states[3, 2] += 1e-9
    assert list(checks.check_trajectory(r, states, refs)[0]) == ["rz_state r=%r" % r]


def test_design_check_counts_round_trip_miss():
    angle = 1.25
    pair = pulsedesign.design_for_angle(angle, 1.0)
    report = {"r1": pair.r1, "r2": pair.r2, "delta1": pair.pulse1.detuning,
              "delta2": pair.pulse2.detuning, "gamma_tot": pair.gamma_tot,
              "residual_dynamic_phase": pulsedesign.verify_cancellation(pair)}
    assert checks.check_design(angle, report) == {}
    report["gamma_tot"] += 1e-11
    assert len(checks.check_design(angle, report)) == 1


def test_inputs_repeat_per_seed_and_keep_ends_and_pairs():
    a = workloads.angle_grid(np.random.default_rng(7))
    assert np.array_equal(a, workloads.angle_grid(np.random.default_rng(7)))
    assert not np.array_equal(a, workloads.angle_grid(np.random.default_rng(8)))
    assert a[0] == -3.0 and a[-1] == 3.0 and a[12] == 0.0
    assert np.array_equal(a, -a[::-1]) and np.all(np.diff(a) > 0)
    r = workloads.log_grid(0.01, 100.0, 61, np.random.default_rng(7))
    assert r[0] == 0.01 and r[-1] == 100.0 and np.all(np.diff(r) > 0)
