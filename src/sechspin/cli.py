"""Command-line front end.

Subcommands: phases (ratio sweeps of the phase decomposition), design
(invert the target angle to a canceling pair), fidelity (gate reports and
field/angle sweeps), simulate (raw trajectories). Output is CSV or JSON
on stdout or --out; numeric CSV fields are printed with 17 significant
digits so files round-trip exactly. Exit codes: 0 ok, 1 numerical
failure, 2 usage error. No ANSI escapes are ever emitted, so NO_COLOR
is honored by construction. The parser is built once per process
(build_parser is cached), so each further main() call in the same
interpreter pays only for its own command.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

import numpy as np

from . import fidelity as fid
from . import model, phases, propagator, pulsedesign

FLOAT_FMT = "%.16e"

# what a subcommand's parser reads as a value, not an option, wherever a
# value may stand: anything that starts like a negative number, -inf and
# -nan included. argparse's own pattern has no exponent, no list and no
# -inf (-0.5 passes, -1e-3 and -1,2 do not), so --window -1e3 would be
# refused as a missing value instead of by the window check. argparse
# still matches the flag itself, unique prefixes included, and a flag that
# takes no value leaves the number unrecognized (--sweep -1 exits 2). It
# replaces argparse's private _negative_number_matcher, which Python 3.10
# to 3.13 all consult the same way.
NEGATIVE_VALUE = re.compile(r"-(\d|\.\d|inf|nan)", re.I)

# StepTooLarge is a ValueError that exits 1, so it is caught first
USAGE_ERRORS = (ValueError,)
NUMERIC_ERRORS = (propagator.StepTooLarge, ArithmeticError)


def parse_grid(spec: str) -> np.ndarray:
    """Grid spec: 'lin:lo:hi:n', 'log:lo:hi:n', or a comma list.

    A log grid with lo < 0 < hi is split into symmetric signed decades
    (inner magnitude 1/max(|lo|, hi)), matching the usual log-linear plot
    domain for odd functions of the ratio.
    """
    if spec.startswith(("log:", "lin:")):
        try:
            kind, lo_s, hi_s, n_s = spec.split(":")
            lo, hi, n = float(lo_s), float(hi_s), int(n_s)
        except ValueError:
            raise ValueError("grid %r is not %s:lo:hi:n with numbers lo, hi and "
                             "an integer n" % (spec, spec[:3])) from None
        if n < 1:
            raise ValueError("grid needs at least one point")
        if kind == "lin":
            return np.linspace(lo, hi, n)
        if lo > 0 and hi > 0:
            return np.geomspace(lo, hi, n)
        if lo < 0 and hi < 0:
            return -np.geomspace(-lo, -hi, n)
        if lo < 0 < hi:
            inner = 1.0 / max(-lo, hi)
            half = n // 2
            neg = -np.geomspace(-lo, inner, half)
            pos = np.geomspace(inner, hi, n - half)
            return np.concatenate([neg, pos])
        raise ValueError("log grid endpoints must be nonzero")
    return np.array([float(x) for x in spec.split(",")])


def _float_list(spec: str):
    spec = spec.strip()
    if not spec:
        return []
    return [float(x) for x in spec.split(",")]


def _values(flag: str, parse, spec: str, allow_empty: bool = False):
    """parse(spec), refused with the flag named if it fails, or if it gives
    no value unless allow_empty."""
    try:
        values = parse(spec)
    except ValueError as exc:
        raise ValueError("%s: %s" % (flag, exc)) from None
    if len(values) == 0 and not allow_empty:
        raise ValueError("%s needs at least one value" % flag)
    return values


def _write(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv(header, rows) -> str:
    lines = [header]
    for row in rows:
        cells = [c if isinstance(c, str) else FLOAT_FMT % c for c in row]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _matrix_json(m: np.ndarray):
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m)]


def cmd_phases(args) -> int:
    ratios = _values("--ratios", parse_grid, args.ratios)
    s = model.SystemParams(omega_B=model.larmor_from_field(args.B, args.g))
    methods = ["analytic", "numeric"] if args.method == "both" else [args.method]
    rows = []
    for method in methods:
        for d in phases.sweep_ratio(ratios, method, s, omega=args.omega,
                                    window=args.window):
            rows.append((d.ratio, d.overall, d.dynamic, d.geometric, d.method))
    _write(_csv("r,phi,alpha,gamma,method", rows), args.out)
    return 0


def cmd_design(args) -> int:
    pair = pulsedesign.design_for_angle(args.angle, args.omega, args.spacing)
    residual = pulsedesign.verify_cancellation(pair)
    payload = {
        "r1": pair.r1,
        "r2": pair.r2,
        "delta1": pair.pulse1.detuning,
        "delta2": pair.pulse2.detuning,
        "gamma_tot": pair.gamma_tot,
        "residual_dynamic_phase": residual,
    }
    _write(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _report_kwargs(args):
    return dict(g=args.g, tau_d=args.tau_d, tau_t=args.tau_t,
                spacing=args.spacing, ideal=args.ideal,
                duration_convention=args.duration_convention)


def cmd_fidelity(args) -> int:
    kwargs = _report_kwargs(args)
    b_values = _values("--B", _float_list, args.B)
    if args.sweep:
        angles = _values("--angles", parse_grid, args.angles)
        reports = fid.fidelity_sweep(angles, b_values, **kwargs)
        rows = [(gamma, rep.B, rep.fidelity, rep.residual_population)
                for gamma, rep in zip(np.repeat(angles, len(b_values)), reports)]
        _write(_csv("gamma,B,fidelity,population_loss", rows), args.out)
        return 0
    if len(b_values) != 1:
        raise ValueError("single-report mode takes exactly one --B value")
    rep = fid.gate_report(args.angle, b_values[0], **kwargs)
    payload = {
        "gamma_tot": rep.gamma_tot,
        "B": rep.B,
        "fidelity": rep.fidelity,
        "population_loss": rep.residual_population,
        "ideal": args.ideal,
        "u_actual": _matrix_json(rep.u_actual),
        "u_ideal": _matrix_json(rep.u_ideal),
    }
    _write(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_simulate(args) -> int:
    # no detunings is a pulseless window, which needs --t0/--t1 (below)
    deltas = _values("--delta", _float_list, args.delta, allow_empty=True)
    centers = _values("--centers", _float_list, args.centers, allow_empty=True)
    if len(deltas) == 1 and not centers:
        centers = [0.0]
    if len(centers) != len(deltas):
        raise ValueError("--centers must list one center per detuning")
    pulses = [model.two_pi_pulse(args.eta, d, c) for d, c in zip(deltas, centers)]
    if args.t0 is not None and args.t1 is not None:
        sched = propagator.PulseSchedule(pulses, (args.t0, args.t1))
    elif pulses:
        sched = propagator.schedule_for_pulses(pulses)
    else:
        raise ValueError("no pulses: an explicit --t0/--t1 window is required")
    omega_b = model.larmor_from_field(args.B, args.g)
    s = model.SystemParams(omega_B=omega_b, trion_lifetime=args.tau_t)
    opts = propagator.IntegratorOpts(dt=args.dt, sample_stride=args.stride)
    traj = propagator.propagate(model.StateVector.ket_z(), sched, s, opts)
    rows = []
    for t, psi, norm in zip(traj.times, traj.states, traj.norms):
        rows.append((t, psi[0].real, psi[0].imag, psi[1].real, psi[1].imag,
                     psi[2].real, psi[2].imag, norm))
    _write(_csv("t,re_zbar,im_zbar,re_z,im_z,re_tau,im_tau,norm", rows), args.out)
    return 0


def _parse_inf(text: str) -> float:
    return float("inf") if text.lower() in ("inf", "infinite") else float(text)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The sechspin parser; built on the first call, then shared, so
    callers must not modify it."""
    top = argparse.ArgumentParser(
        prog="sechspin",
        description="Sech-pulse spin rotation phases, pulse design and gate fidelity")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phases", help="phase decomposition over a ratio grid")
    p.add_argument("--ratios", required=True,
                   help="Omega/Delta grid: comma list, lin:lo:hi:n or log:lo:hi:n "
                        "(log with lo<0<hi makes a symmetric signed grid)")
    p.add_argument("--method", choices=["analytic", "numeric", "both"],
                   default="analytic")
    p.add_argument("--omega", type=float, default=1.0,
                   help="Rabi peak = bandwidth [rad/ps] (default 1.0)")
    p.add_argument("--B", type=float, default=0.0,
                   help="magnetic field [T] for the numeric method (default 0)")
    p.add_argument("--g", type=float, default=0.57, help="electron g factor")
    p.add_argument("--window", type=float, default=phases.DEFAULT_WINDOW,
                   help="integration half-width [1/Omega] (default 20)")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_phases)

    p = sub.add_parser("design", help="canceling pair for a target angle")
    p.add_argument("--angle", type=float, required=True,
                   help="target geometric rotation [rad], |angle| < pi")
    p.add_argument("--omega", type=float, default=1.0,
                   help="Rabi peak = bandwidth [rad/ps] (default 1.0)")
    p.add_argument("--spacing", type=float, default=None,
                   help="center spacing [ps] (default 14 pulse durations)")
    p.add_argument("--out", default=None, help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("fidelity", help="gate report or fidelity/population sweep")
    p.add_argument("--angle", type=float, default=np.pi / 2,
                   help="target angle [rad] for a single report")
    p.add_argument("--B", default="0.29",
                   help="field [T]; comma list in --sweep mode (default 0.29)")
    p.add_argument("--g", type=float, default=0.57, help="electron g factor")
    p.add_argument("--tau-d", type=float, default=1.5, help="pulse duration [ps]")
    p.add_argument("--tau-t", type=_parse_inf, default=900.0,
                   help="trion lifetime [ps], 'inf' disables decay")
    p.add_argument("--spacing", type=float, default=None,
                   help="center spacing [ps] (default 14*tau_d)")
    p.add_argument("--ideal", choices=["interleaved", "bare"], default="interleaved",
                   help="target convention: precession in the frame or counted as error")
    p.add_argument("--duration-convention", choices=["time-constant", "fwhm"],
                   default="time-constant",
                   help="how tau_d maps to the sech bandwidth (default time-constant)")
    p.add_argument("--sweep", action="store_true",
                   help="emit CSV over --angles x --B instead of one JSON report")
    p.add_argument("--angles", default="lin:-3.0:3.0:25",
                   help="angle grid for --sweep [rad] (default lin:-3.0:3.0:25)")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_fidelity)

    p = sub.add_parser("simulate", help="raw trajectory CSV from |z>")
    p.add_argument("--config", default=None,
                   help="file of 'key = value' lines, keys matching flag names; "
                        "command-line flags override the file")
    p.add_argument("--eta", type=float, default=1.0,
                   help="bandwidth = Rabi peak [rad/ps] (2*pi pulses)")
    p.add_argument("--delta", default="",
                   help="comma list of detunings [rad/ps], one per pulse")
    p.add_argument("--centers", default="",
                   help="comma list of pulse centers [ps]")
    p.add_argument("--B", type=float, default=0.0, help="magnetic field [T]")
    p.add_argument("--g", type=float, default=0.57, help="electron g factor")
    p.add_argument("--tau-t", type=_parse_inf, default=float("inf"),
                   help="trion lifetime [ps], 'inf' disables decay")
    p.add_argument("--t0", type=float, default=None, help="window start [ps]")
    p.add_argument("--t1", type=float, default=None, help="window end [ps]")
    p.add_argument("--dt", type=float, default=None,
                   help="uniform step [ps] (default: the graded grid)")
    p.add_argument("--stride", type=int, default=1,
                   help="write every stride-th step's row, plus the last "
                        "(the grid is graded unless --dt is given)")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_simulate)
    for p in sub.choices.values():
        p._negative_number_matcher = NEGATIVE_VALUE
    return top


def _config_flags(parser: argparse.ArgumentParser, path: str) -> list:
    """simulate --config's 'key = value' lines as --key=value flags, which
    argparse converts and checks like any other."""
    flags = []
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError("line %d: expected 'key = value'" % lineno)
                key, val = (part.strip() for part in line.split("=", 1))
                flags.append("--%s=%s" % (key.replace("_", "-"), val))
    except (OSError, ValueError) as exc:
        parser.error("cannot read config: %s" % exc)
    return flags


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is not None:
        # the file's flags go right after 'simulate', so explicit ones win
        args = parser.parse_args(argv[:1] + _config_flags(parser, args.config) + argv[1:])
    try:
        return args.func(args)
    except NUMERIC_ERRORS as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 1
    except USAGE_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
