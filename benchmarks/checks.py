"""Per-configuration correctness checks for the benchmark workloads.

Every check compares a program output with a value computed here, apart
from the program (closed forms, mpmath, CODATA constants), or with a
property the method must have. Each checker takes parsed outputs and
returns ``(failures, accuracy)``: ``failures`` maps a configuration id to
the reason it missed its check, ``accuracy`` holds the worst errors
measured against a closed form.

Only numpy and mpmath are imported, so the checkers can be fed perturbed
results without running the program.
"""

from __future__ import annotations

import math
import mpmath
import numpy as np

BOHR_MAGNETON = 9.2740100783e-24   # J/T, CODATA 2018
HBAR = 1.054571817e-34             # J*s, CODATA 2018
G_FACTOR = 0.57                    # the CLI default; every workload runs Omega = eta = 1

ANALYTIC_PHI_TOL = 1e-12
ANALYTIC_ALPHA_TOL = 1e-9
NUMERIC_TOL = 1e-6                 # numeric rows at B = 0 (c06 state tolerance)
PRECESSION_ALPHA_COEF = 10.0       # |alpha - 4r/(1+r^2)| <= 10 (omega_B/eta)^2
PRECESSION_PHI_COEF = 2.0          # |phi - 2 atan r| <= 2 (omega_B/eta)^2
ODDNESS_TOL = 1e-9                 # x(-r) = -x(r) (c05)
SYMMETRY_TOL = 1e-9                # F(gamma) = F(-gamma) (c09)
UNITARY_TOL = 1e-9                 # decay off: 1 - F and the loss vanish to RK4 accuracy
ROUND_TRIP_TOL = 1e-12             # design: gamma_tot(r1) = target angle (c08)
RESIDUAL_TOL = 1e-6                # design: alpha1 + alpha2 = 0 (c08)
STATE_TOL = 1e-10                  # rz_state against mpmath, norm, final amplitude

# Known fault: special.hyp2f1 sums the direct series for z <= 0.5 even when
# |Im c| is large; at r = +-0.01 (c = 1/2 +- 50i) the terms reach 1.5e10
# against a sum of 0.71 and the pulse-center amplitude is off by ~1e-7.
KNOWN_FAULT = ("special.hyp2f1: direct 2F1 series at z <= 0.5 cancels "
               "catastrophically for large |Im c|")
KNOWN_FAULT_CONFIGS = frozenset({"rz_state r=0.01", "rz_state r=-0.01"})


def larmor(B: float) -> float:
    """omega_B = g*mu_B*B/(2*hbar) in rad/ps."""
    return G_FACTOR * BOHR_MAGNETON * B / (2.0 * HBAR) * 1e-12


def alpha_closed_form(r: float) -> float:
    """Dynamic phase of one 2*pi sech pulse, precession neglected."""
    return 4.0 * r / (1.0 + r * r)


def phi_closed_form(r: float) -> float:
    return 2.0 * math.atan(r)


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def check_phase_rows(rows, B: float):
    """Rows (r, phi, alpha, gamma, method) of one `sechspin phases` call at field B.

    Ids are "<method> B=<B> r=<r>".
    """
    failures = {}
    alpha_err = phi_err = 0.0
    ratio_sq = larmor(B) ** 2          # (omega_B/eta)^2 with eta = 1
    for r, phi, alpha, gamma, method in rows:
        cid = "%s B=%g r=%r" % (method, B, r)
        if not _finite(r, phi, alpha, gamma):
            failures[cid] = "non-finite output"
            continue
        da = abs(alpha - alpha_closed_form(r))
        dp = abs(phi - phi_closed_form(r))
        if abs(gamma - (phi - alpha)) > 1e-12:
            failures[cid] = "gamma != phi - alpha"
        elif method == "analytic":
            alpha_err, phi_err = max(alpha_err, da), max(phi_err, dp)
            if dp > ANALYTIC_PHI_TOL or da > ANALYTIC_ALPHA_TOL:
                failures[cid] = "analytic |dphi| = %.3g, |dalpha| = %.3g" % (dp, da)
        elif method == "numeric" and B == 0.0:
            alpha_err, phi_err = max(alpha_err, da), max(phi_err, dp)
            if dp > NUMERIC_TOL or da > NUMERIC_TOL:
                failures[cid] = "numeric at B = 0: |dphi| = %.3g, |dalpha| = %.3g" % (dp, da)
        elif method == "numeric":
            if not abs(alpha) < abs(alpha_closed_form(r)):
                failures[cid] = "precession did not lower |alpha|"
            elif da > PRECESSION_ALPHA_COEF * ratio_sq or dp > PRECESSION_PHI_COEF * ratio_sq:
                failures[cid] = ("numeric at B = %g: |dalpha| = %.2f, |dphi| = %.2f "
                                 "(omega_B/eta)^2" % (B, da / ratio_sq, dp / ratio_sq))
        else:
            failures[cid] = "unknown method %r" % (method,)
    analytic = {r: (phi, alpha, gamma) for r, phi, alpha, gamma, m in rows if m == "analytic"}
    for r, values in analytic.items():
        mirror = analytic.get(-r)
        if r > 0 and mirror is not None:
            worst = max(abs(a + b) for a, b in zip(values, mirror))
            if not worst <= ODDNESS_TOL:
                failures.setdefault("analytic B=%g r=%r" % (B, r),
                                    "|x(r) + x(-r)| = %.3g" % worst)
    return failures, {"alpha_err": alpha_err, "phi_err": phi_err}


def check_gate_rows(rows):
    """Rows (gamma, B, fidelity, population_loss, decay_on) of fidelity sweeps.

    Ids are "gate gamma=<gamma> B=<B> decay=<0|1>".
    """
    failures = {}
    closed_form_err = 0.0
    by_key = {}
    for gamma, B, f, loss, decay_on in rows:
        cid = "gate gamma=%r B=%g decay=%d" % (gamma, B, decay_on)
        by_key[(gamma, B, decay_on)] = (cid, f)
        if not _finite(f, loss):
            failures[cid] = "non-finite output"
        elif decay_on and not (0.0 < f <= 1.0 and 0.0 <= loss < 1.0):
            failures[cid] = "F = %r, loss = %r outside (0, 1], [0, 1)" % (f, loss)
        elif not decay_on and not (0.0 < f <= 1.0 + UNITARY_TOL and abs(loss) <= UNITARY_TOL):
            failures[cid] = "decay off: F = %r, loss = %r not unitary" % (f, loss)
        elif not decay_on and B == 0.0:
            closed_form_err = max(closed_form_err, 1.0 - f)
            if not 1.0 - f <= UNITARY_TOL:
                failures[cid] = "B = 0, decay off: 1 - F = %.3g" % (1.0 - f)
    for (gamma, B, decay_on), (cid, f) in by_key.items():
        mirror = by_key.get((-gamma, B, decay_on))
        if gamma != 0.0 and mirror is not None and not abs(f - mirror[1]) <= SYMMETRY_TOL:
            failures.setdefault(cid, "|F(gamma) - F(-gamma)| = %.3g" % abs(f - mirror[1]))
    return failures, {"closed_form_err": closed_form_err}


def check_design(angle: float, report: dict):
    """One `sechspin design --angle <angle>` JSON report (Omega = eta = 1)."""
    cid = "design angle=%r" % angle
    r1 = report["r1"]
    gamma_r1 = 2.0 * math.atan(r1) + 2.0 * math.atan(-1.0 / r1)
    checks = (
        (abs(report["gamma_tot"] - angle), ROUND_TRIP_TOL, "gamma_tot round trip"),
        (abs(gamma_r1 - angle), ROUND_TRIP_TOL, "gamma_tot(r1) round trip"),
        (abs(report["r2"] + 1.0 / r1), 1e-12 * abs(report["r2"]), "r2 != -1/r1"),
        (abs(report["delta1"] - 1.0 / r1), 1e-12 * abs(report["delta1"]), "delta1 != 1/r1"),
        (abs(report["delta2"] + r1), 1e-12 * abs(report["delta2"]), "delta2 != -r1"),
        (abs(report["residual_dynamic_phase"]), RESIDUAL_TOL, "dynamic residual"),
    )
    for err, tol, what in checks:
        if not err <= tol:
            return {cid: "%s: %.3g > %.3g" % (what, err, tol)}
    return {}


def rz_reference(t: float, r: float) -> np.ndarray:
    """Closed-form (zbar, z, trion) amplitudes of a 2*pi pulse, eta = Omega = 1.

    Same closed form as the program (|z> in the far past, precession
    neglected, z = (tanh(t - t_c) + 1)/2 with the center t_c = 0, Delta = 1/r),
    evaluated with mpmath at 30 digits from the exact time. t = +inf gives
    the final state, where the trion term vanishes with (1 - z)^(1 - c).
    """
    with mpmath.workdps(30):
        a = mpmath.mpf(1)
        c = mpmath.mpc(0.5, 0.5 / r)
        if math.isinf(t):
            return np.array([0.0, complex(1 - 1 / c), 0.0])
        z = 1 / (1 + mpmath.exp(-2 * mpmath.mpf(t)))
        c_z = mpmath.hyp2f1(a, -a, c, z)
        c_tau = -(1j * a / c) * mpmath.exp(c * mpmath.log(z)) * mpmath.hyp2f1(a + c, c - a, 1 + c, z)
        return np.array([0.0, complex(c_z), complex(c_tau)])


def check_trajectory(r: float, states: np.ndarray, refs: np.ndarray):
    """States (n, 3) of rz_state over a time grid whose last point is +inf."""
    cid = "rz_state r=%r" % r
    err = float(np.max(np.abs(states - refs)))
    norm_err = float(np.max(np.abs(np.sum(np.abs(states) ** 2, axis=1) - 1.0)))
    final_err = abs(states[-1, 1] - np.exp(2j * math.atan(r)))
    failures = {}
    if not err <= STATE_TOL:
        failures[cid] = "amplitude off mpmath by %.3g" % err
    elif not norm_err <= STATE_TOL:
        failures[cid] = "norm off 1 by %.3g" % norm_err
    elif not final_err <= STATE_TOL:
        failures[cid] = "final z amplitude off exp(2i atan r) by %.3g" % final_err
    return failures, {"state_err": err}
