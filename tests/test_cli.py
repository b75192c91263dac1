"""End-to-end command-line behavior via subprocess: exit codes, formats,
determinism, config handling."""

import json
import re
import subprocess
import sys

import numpy as np
import pytest

from sechspin import cli

CMD = [sys.executable, "-m", "sechspin"]


def run(*args, **kw):
    return subprocess.run(CMD + list(args), capture_output=True, text=True, **kw)


@pytest.mark.parametrize("sub", [[], ["phases"], ["design"], ["fidelity"], ["simulate"]])
def test_help_exits_zero(sub):
    res = run(*sub, "--help")
    assert res.returncode == 0
    assert res.stdout.strip()
    assert "\x1b" not in res.stdout          # no ANSI escapes, NO_COLOR honored


def test_phases_csv():
    res = run("phases", "--ratios", "1,2,0.5", "--method", "analytic")
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "r,phi,alpha,gamma,method"
    assert len(lines) == 4
    r, phi, alpha, gamma, method = lines[1].split(",")
    assert method == "analytic"
    assert float(r) == 1.0
    assert float(phi) == pytest.approx(np.pi / 2, rel=1e-12)
    assert float(alpha) == pytest.approx(2.0, abs=1e-6)
    assert float(gamma) == pytest.approx(np.pi / 2 - 2.0, abs=1e-6)


def test_csv_fields_round_trip_exactly():
    res = run("phases", "--ratios", "1.39,0.58", "--method", "analytic")
    for line in res.stdout.strip().split("\n")[1:]:
        for cell in line.split(",")[:-1]:
            assert "%.16e" % float(cell) == cell


def test_phases_both_methods():
    res = run("phases", "--ratios", "1.0", "--method", "both")
    lines = res.stdout.strip().split("\n")
    assert len(lines) == 3
    assert lines[1].endswith("analytic") and lines[2].endswith("numeric")
    a_ana = float(lines[1].split(",")[2])
    a_num = float(lines[2].split(",")[2])
    assert abs(a_ana - a_num) < 1e-3


def test_grid_specs():
    res = run("phases", "--ratios", "lin:1:3:3")
    assert [float(l.split(",")[0]) for l in res.stdout.strip().split("\n")[1:]] \
        == [1.0, 2.0, 3.0]
    assert res.stdout == run("phases", "--ratios", "1,2,3").stdout
    res = run("phases", "--ratios", "log:0.1:10:3")
    vals = [float(l.split(",")[0]) for l in res.stdout.strip().split("\n")[1:]]
    assert vals == pytest.approx([0.1, 1.0, 10.0], rel=1e-12)
    res = run("phases", "--ratios", "log:-10:10:6")
    vals = [float(l.split(",")[0]) for l in res.stdout.strip().split("\n")[1:]]
    assert len(vals) == 6
    assert all(v < 0 for v in vals[:3]) and all(v > 0 for v in vals[3:])
    assert vals[2] == pytest.approx(-0.1) and vals[3] == pytest.approx(0.1)


def test_determinism(tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for f in (f1, f2):
        res = run("phases", "--ratios", "log:0.1:10:7", "--method", "both",
                  "--B", "0.29", "--out", str(f))
        assert res.returncode == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_design_json():
    res = run("design", "--angle", repr(float(np.pi / 2)))
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["r1"] == pytest.approx(np.tan(3 * np.pi / 8), rel=1e-12)
    assert payload["r2"] == pytest.approx(-1.0 / payload["r1"], rel=1e-12)
    assert payload["gamma_tot"] == pytest.approx(np.pi / 2, abs=1e-12)
    assert abs(payload["residual_dynamic_phase"]) < 1e-6
    assert payload["delta1"] == pytest.approx(1.0 / payload["r1"], rel=1e-12)


def test_design_out_of_range_exit_2():
    res = run("design", "--angle", "3.2")
    assert res.returncode == 2
    assert "error" in res.stderr.lower()


@pytest.mark.parametrize("omega", ["0", "nan", "-1"])
def test_design_bad_omega_exit_2(omega):
    # omega is checked before the default spacing 14/omega is formed
    res = run("design", "--angle", "1", "--omega", omega)
    assert res.returncode == 2
    assert res.stdout == ""
    assert "error: omega must be" in res.stderr


def test_fidelity_report_json():
    res = run("fidelity", "--angle", "0.785398163397448", "--B", "0.29")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert 0.99 < payload["fidelity"] < 1.0
    assert payload["B"] == 0.29
    assert 0.0 < payload["population_loss"] < 0.01
    assert payload["ideal"] == "interleaved"
    u = payload["u_actual"]
    assert len(u) == 2 and len(u[0]) == 2 and len(u[0][0]) == 2


def test_fidelity_sweep_csv():
    res = run("fidelity", "--sweep", "--angles", "lin:-1.5:1.5:3",
              "--B", "0.29,1.35")
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "gamma,B,fidelity,population_loss"
    assert len(lines) == 7                       # 3 angles x 2 fields
    assert res.returncode == 0


def test_fidelity_multiple_b_without_sweep_exit_2():
    res = run("fidelity", "--angle", "0.5", "--B", "0.29,1.35")
    assert res.returncode == 2


def test_simulate_csv():
    res = run("simulate", "--eta", "1.0", "--delta", "1.0", "--stride", "100")
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "t,re_zbar,im_zbar,re_z,im_z,re_tau,im_tau,norm"
    last = [float(x) for x in lines[-1].split(",")]
    assert last[-1] == pytest.approx(1.0, abs=1e-8)        # norm conserved


@pytest.mark.parametrize("args, name", [
    (["simulate", "--delta", "nan", "--B", "0.29"], "detuning"),
    (["simulate", "--delta", "inf", "--B", "0.29"], "detuning"),
    (["fidelity", "--sweep", "--angles", "0.5", "--B", "nan"], "B"),
    (["fidelity", "--sweep", "--angles", "0.5", "--B", "inf"], "B"),
    (["phases", "--ratios", "1", "--method", "numeric", "--B", "nan"], "B"),
    # Omega/r overflows to an infinite detuning
    (["phases", "--ratios", "1e-310", "--method", "analytic"], "detuning"),
    (["fidelity", "--tau-d", "inf"], "tau_d"),
    (["simulate", "--delta", "1", "--dt", "inf"], "dt"),
    (["design", "--angle", "1", "--spacing", "inf"], "spacing"),
    (["fidelity", "--spacing", "inf"], "spacing"),
    # omega and window are checked by name before either route computes
    (["phases", "--ratios", "1", "--method", "analytic", "--omega", "inf"], "omega"),
    (["phases", "--ratios", "1", "--method", "numeric", "--omega", "inf"], "omega"),
    (["phases", "--ratios", "1", "--method", "analytic", "--window", "inf"], "window"),
    (["phases", "--ratios", "1", "--method", "numeric", "--window", "inf"], "window"),
])
def test_non_finite_inputs_exit_2(args, name):
    res = run(*args)
    assert res.returncode == 2
    assert res.stdout == ""
    assert "error: %s must be finite" % name in res.stderr
    assert "Warning" not in res.stderr


@pytest.mark.parametrize("method", ["analytic", "numeric"])
def test_overflowed_detuning_names_plain_value(method):
    # both routes print the value as a plain float, not numpy's repr
    res = run("phases", "--ratios", "1e-310", "--method", method)
    assert res.returncode == 2
    assert res.stderr.strip().endswith("error: detuning must be finite, got inf")


@pytest.mark.parametrize("ratio, omega", [
    (1e-3, 1e152), (1.0, 1e155),
    # -Delta*t at the window edge overflows too
    (1e-307, 1.0), (1e-306, 100.0),
    # the carrier phase -Delta*t cancels terms of size 20/r, so an
    # integral of the raw integrand keeps no digit here
    (1e-14, 1.0), (-1e-13, 1.0),
])
def test_analytic_alpha_where_prefactor_squares_overflow(ratio, omega):
    # alpha depends on r alone; Delta**2 or Omega**2 may overflow, but the
    # closed form squares only min(|Delta|, Omega)/max(|Delta|, Omega), so
    # every finite detuning has a value, with no numpy warning
    res = run("phases", "--ratios=%r" % ratio, "--omega", repr(omega), "--method", "analytic")
    assert res.returncode == 0
    assert res.stderr == ""
    alpha = float(res.stdout.strip().split("\n")[1].split(",")[2])
    assert alpha == pytest.approx(4.0 * ratio / (1.0 + ratio ** 2), rel=1e-15)


@pytest.mark.parametrize("omega", [1e-200, 1e-300])
def test_numeric_alpha_at_tiny_omega(omega):
    # the window 20/Omega makes h*h overflow in Omega's units; in units of
    # 1/Omega alpha is the one at Omega = 1 (measured 1.1e-15 apart)
    def alpha(om):
        res = run("phases", "--ratios", "1", "--method", "numeric", "--omega", repr(om))
        assert res.returncode == 0
        assert res.stderr == ""
        return float(res.stdout.strip().split("\n")[1].split(",")[2])
    assert alpha(omega) == pytest.approx(alpha(1.0), abs=1e-14)


def test_simulate_far_detuned_refused():
    # a step may turn the frame detuning by at most 0.6 rad at the pulse
    # center and pi in the tails, so 1e6 rad/ps over the 38 ps window needs
    # ~2.5e7 steps: refused, not run coarse
    res = run("simulate", "--delta", "1e6", "--B", "0.29", "--stride", "200")
    assert res.returncode == 1
    assert res.stdout == ""
    assert re.search(r"numerical failure: grid would need 2\.\d\de\+07 steps \(> 2000000\)",
                     res.stderr)


@pytest.mark.parametrize("args", [
    ["simulate", "--t0", "-1e308", "--t1", "1e308", "--B", "0.29"],
    ["simulate", "--t0", "-1e308", "--t1", "1e308", "--B", "0.29", "--dt", "1"],
    ["simulate", "--t0", "-1e308", "--t1", "1e308", "--B", "0.29", "--delta", "1"],
    ["simulate", "--delta", "1", "--eta", "1e308"],
    ["phases", "--ratios", "1", "--omega", "1e308", "--method", "numeric"],
    ["fidelity", "--angle", "1", "--tau-d", "1e-308"],
])
def test_overflowing_grid_counts_refused(args):
    # a step or rate-sample count that overflows to inf is refused like any
    # count past MAX_STEPS, before int() could meet it
    res = run(*args)
    assert res.returncode == 1
    assert res.stdout == ""
    assert re.search(r"numerical failure: grid would need inf (steps|rate samples) \(> 2000000\)",
                     res.stderr)


def test_huge_step_count_message_is_short():
    # the window 20/Omega = 2e301 ps at 0.29 T needs ~4e300 steps; the
    # count is printed with three digits, not all 301
    res = run("phases", "--ratios", "1", "--method", "numeric", "--omega", "1e-300",
              "--B", "0.29")
    assert res.returncode == 1
    assert res.stdout == ""
    line = [ln for ln in res.stderr.splitlines() if ln.startswith("numerical failure")]
    assert len(line) == 1 and len(line[0]) < 120
    assert re.search(r"grid would need \d\.\d\de\+300 steps", line[0])


@pytest.mark.parametrize("args", [
    ["design", "--angle", "nan"],
    ["design", "--angle", "-inf"],
    ["fidelity", "--angle", "nan"],
    ["fidelity", "--angle", "-inf"],
    ["fidelity", "--angle", "inf"],
    ["fidelity", "--sweep", "--angles", "-nan", "--B", "0.29"],
    ["fidelity", "--sweep", "--angles", "0.5,-Infinity", "--B", "0.29"],
])
def test_non_finite_angle_refused_by_name(args):
    # nan used to pass every range check and end in "a rotation by pi needs
    # only a single resonant pulse"; -inf and -nan are attached to their
    # flag like any other negative value
    res = run(*args)
    assert res.returncode == 2
    assert res.stdout == ""
    assert "error: gamma_target must be finite, got " in res.stderr


@pytest.mark.parametrize("args, flag", [
    (["--sweep", "--angles", "0.5", "--B", ""], "--B"),
    (["--sweep", "--angles", "0.5", "--B", ","], "--B"),
    (["--sweep", "--angles", "0.5", "--B", "0.29,,1.35"], "--B"),
    (["--sweep", "--angles", "", "--B", "0.29"], "--angles"),
    (["--angle", "0.5", "--B", ""], "--B"),
])
def test_empty_list_refused_by_flag(args, flag):
    # an empty --B used to write a header-only sweep with exit 0, and an
    # empty entry failed in float() without naming the flag
    res = run("fidelity", *args)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: %s" % flag)


@pytest.mark.parametrize("argv, message", [
    (["phases", "--ratios=abc"], "--ratios: could not convert"),
    (["phases", "--ratios=log:1:2"], "--ratios: grid 'log:1:2' is not log:lo:hi:n"),
    (["phases", "--ratios=lin:0:1:2.5"], "--ratios: grid 'lin:0:1:2.5' is not lin:lo:hi:n"),
    (["fidelity", "--sweep", "--angles=lin:-3:x:25"], "--angles: grid 'lin:-3:x:25'"),
    (["simulate", "--delta=abc"], "--delta: could not convert"),
    (["simulate", "--delta=1", "--centers=x"], "--centers: could not convert"),
])
def test_malformed_values_refused_by_flag(argv, message, capsys):
    # these used to fail in float() or in unpacking a grid spec, with
    # "not enough values to unpack (expected 4, got 3)" and no flag named
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: " + message)


def test_simulate_without_pulses_needs_window():
    assert run("simulate").returncode == 2
    # centers without detunings are an error, not an empty schedule
    res = run("simulate", "--centers", "3", "--t0", "0", "--t1", "10")
    assert res.returncode == 2
    assert "--centers must list one center per detuning" in res.stderr
    res = run("simulate", "--t0", "0", "--t1", "100", "--B", "0.29", "--stride", "50")
    assert res.returncode == 0
    # an explicitly empty list is the same pulseless window
    assert run("simulate", "--delta=", "--centers=", "--t0", "0", "--t1", "100",
               "--B", "0.29", "--stride", "50").stdout == res.stdout


def test_simulate_coarse_dt_exit_1():
    res = run("simulate", "--eta", "1.0", "--delta", "1.0", "--dt", "0.2")
    assert res.returncode == 1
    assert "numerical failure" in res.stderr


def test_simulate_two_pulses_with_centers():
    res = run("simulate", "--delta", "1.0,-1.0", "--centers", "0,14",
              "--stride", "200")
    assert res.returncode == 0
    res = run("simulate", "--delta", "1.0,-1.0", "--centers", "0")
    assert res.returncode == 2


def test_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eta = 2.0\ndelta = 1.0\nstride = 400   # keep output small\n")
    res = run("simulate", "--config", str(cfg))
    assert res.returncode == 0
    t0 = float(res.stdout.strip().split("\n")[1].split(",")[0])
    # eta = 2 halves the default window half-width arccosh(1e8)/eta
    assert t0 == pytest.approx(-np.arccosh(1e8) / 2.0, rel=1e-6)
    # --config itself follows the flag rules
    for argv in (["--config=" + str(cfg)], ["--conf", str(cfg)]):
        assert run("simulate", *argv).stdout == res.stdout
    # explicit flag beats the file
    res = run("simulate", "--config", str(cfg), "--eta", "1.0")
    assert res.returncode == 0
    t0 = float(res.stdout.strip().split("\n")[1].split(",")[0])
    assert t0 == pytest.approx(-np.arccosh(1e8), rel=1e-6)


def test_config_errors(tmp_path):
    bad_key = tmp_path / "k.cfg"
    bad_key.write_text("etaa = 2.0\n")
    assert run("simulate", "--config", str(bad_key)).returncode == 2
    bad_val = tmp_path / "v.cfg"
    bad_val.write_text("eta = fast\n")
    assert run("simulate", "--config", str(bad_val)).returncode == 2
    bad_line = tmp_path / "l.cfg"
    bad_line.write_text("just words\n")
    assert run("simulate", "--config", str(bad_line)).returncode == 2
    assert run("simulate", "--config", str(tmp_path / "nope.cfg")).returncode == 2


def test_config_negative_values_match_flags(tmp_path):
    cfg = tmp_path / "neg.cfg"
    cfg.write_text("delta = -0.667,0.667\ncenters = 0,21\nB = 0.29\n"
                   "tau_t = 900\nstride = 10\n")
    from_file = run("simulate", "--config", str(cfg))
    assert from_file.returncode == 0
    flags = run("simulate", "--delta=-0.667,0.667", "--centers=0,21", "--B=0.29",
                "--tau-t=900", "--stride=10")
    assert flags.returncode == 0
    assert from_file.stdout == flags.stdout
    # a later flag overrides the file
    overridden = run("simulate", "--config", str(cfg), "--B", "0")
    assert overridden.returncode == 0
    assert overridden.stdout != from_file.stdout


@pytest.mark.parametrize("argv", [
    ["phases", "--method", "analytic", "--ratios", "-1e-3"],
    ["phases", "--method", "analytic", "--ratios", "-1e-3,2"],
    ["design", "--angle", "-1e-1"],
    ["fidelity", "--sweep", "--angles", "-1e-1,2e-1", "--B", "0.29"],
    ["simulate", "--delta", "-1e0", "--centers", "-1e1", "--stride", "50"],
    ["simulate", "--delta", "1", "--t0", "-2e1", "--t1", "2e1", "--stride", "50"],
])
def test_negative_exponent_values_match_attached_form(argv):
    # argparse's negative-number pattern has no exponent and no list, so a
    # flag's separate value -1e-3 or -1,2 used to be taken for an option
    spaced = run(*argv)
    assert spaced.returncode == 0, spaced.stderr
    attached = []
    for arg in argv:
        if arg.startswith("-") and not arg.startswith("--"):
            attached[-1] += "=" + arg
        else:
            attached.append(arg)
    assert spaced.stdout == run(*attached).stdout


@pytest.mark.parametrize("argv, name", [
    # the numeric route used to integrate a window of 5 (alpha = 2.02)
    (["phases", "--ratios", "1", "--window", "5", "--method", "analytic"], "window"),
    (["phases", "--ratios", "1", "--window", "5", "--method", "numeric"], "window"),
    # every subcommand reads a negative-number-like argument as a value,
    # so the parameter's own check names it rather than argparse's
    # "expected one argument", also after a unique prefix of the flag
    (["phases", "--ratios", "1", "--window", "-1e3"], "window"),
    (["phases", "--ratios", "1", "--omega", "-1e-3"], "omega"),
    (["fidelity", "--tau-d", "-1e-3"], "tau_d"),
    (["simulate", "--delta", "1", "--eta", "-2e0"], "rabi_peak"),
    (["phases", "--ratios", "1", "--wind", "-1e3"], "window"),
    (["simulate", "--delta", "1", "--et", "-inf"], "rabi_peak"),
    # a value derived from the flag overflows: the default spacing 14/omega,
    # a detuning and omega_B, which used to be named instead
    (["design", "--angle", "1", "--omega", "1e-320"], "omega"),
    (["design", "--angle", "2.9", "--omega", "1e308"], "omega"),
    (["fidelity", "--angle", "1", "--B", "1e300"], "B"),
    # the default spacing 14*tau_d, a detuning from 1/tau_d and omega_B
    # from a negative g
    (["fidelity", "--angle", "1", "--tau-d", "1e308", "--B", "0.29"], "tau_d"),
    (["fidelity", "--angle", "2.9", "--tau-d", "1e-308", "--B", "0.29"], "tau_d"),
    (["fidelity", "--g", "-0.57"], "g"),
    (["phases", "--ratios", "1", "--method", "numeric", "--B", "0.29", "--g", "-0.57"], "g"),
    (["simulate", "--delta", "1", "--B", "0.29", "--g", "-0.57"], "g"),
])
def test_out_of_range_values_refused_by_name(argv, name):
    res = run(*argv)
    assert res.returncode == 2
    assert res.stdout == ""
    assert "error: %s must be" % name in res.stderr


def test_flags_without_values_take_no_negative_number():
    assert run("phases", "--help", "-1").returncode == 0
    assert run("fidelity", "--sweep", "-1").returncode == 2


def test_in_process_calls_match_fresh_processes(tmp_path, capsys):
    # main() reuses one parser per process: no call's flags, defaults or
    # refusal may leak into the next
    cfg = tmp_path / "neg.cfg"
    cfg.write_text("delta = -0.667,0.667\ncenters = -10.5,10.5\nB = 0.29\nstride = 10\n")
    sequence = [
        ["phases", "--ratios", "0.5,1,-2", "--window", "30"],
        ["phases", "--ratios", "0.5,1,-2"],
        ["design", "--angle", "1", "--omega", "2", "--spacing", "30"],
        ["design", "--angle", "1"],
        ["fidelity", "--tau-t", "inf", "--B", "0"],
        ["fidelity"],
        ["simulate", "--config", str(cfg)],
    ]
    for argv in sequence:
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == run(*argv).stdout
    with pytest.raises(SystemExit) as exc:
        cli.main(["design", "--angle", "1", "--frobnicate"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert cli.main(sequence[1]) == 0
    assert capsys.readouterr().out == run(*sequence[1]).stdout


@pytest.mark.parametrize("argv, message", [
    # the angle is refused before the field of its first gate
    (["fidelity", "--sweep", "--angles", "5", "--B", "nan"], "error: |gamma_target| must be <= pi"),
    # every field of the first angle is refused before the second angle
    (["fidelity", "--sweep", "--angles", "0.5,5", "--B", "0.29,-1"], "error: B must be nonnegative"),
])
def test_sweep_refusals_come_in_gate_order(argv, message):
    res = run(*argv)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.strip() == message


@pytest.mark.parametrize("argv", [["simulate", "--delta", "1", "--tau-t", "0"],
                                  ["fidelity", "--tau-t", "-5"]])
def test_nonpositive_lifetime_exit_2(argv):
    res = run(*argv)
    assert res.returncode == 2
    assert res.stdout == ""
    assert "trion_lifetime must be positive" in res.stderr


def test_unknown_flag_exit_2():
    assert run("phases", "--ratios", "1", "--frobnicate").returncode == 2


# Runs each command, then hyp2f1 at a Gauss-sum point (z = 1) and at c11's
# connection-formula point, in one interpreter where any import of scipy
# raises ImportError: numpy is the only dependency.
SCIPY_BLOCKED = """
import sys
sys.modules["scipy"] = None
from sechspin import cli
from sechspin.special import HypParams, hyp2f1
for argv in %r:
    code = cli.main(argv)
    if code != 0:
        sys.exit("%%s exited with %%d" %% (argv[0], code))
hyp2f1(HypParams(0.5, -0.5, 1.0, 1.0))
hyp2f1(HypParams(0.5, -0.5, 0.5 + 0.35j, 0.7))
"""


def test_cli_runs_without_scipy(tmp_path):
    commands = [
        ["phases", "--ratios", "0.5,2", "--method", "both", "--B", "0.29"],
        ["design", "--angle", "0.5"],
        ["fidelity", "--sweep", "--angles", "0.5", "--B", "0.29"],
        ["simulate", "--delta", "1", "--stride", "100"],
    ]
    argvs = [argv + ["--out", str(tmp_path / ("%d.out" % k))]
             for k, argv in enumerate(commands)]
    res = subprocess.run([sys.executable, "-c", SCIPY_BLOCKED % (argvs,)],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert all((tmp_path / ("%d.out" % k)).stat().st_size > 0 for k in range(len(commands)))
