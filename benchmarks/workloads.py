"""The benchmark's workloads: inputs made from the seed, one timed round, checks.

A round is a fixed list of operations; every round of a run repeats the
same inputs. CLI commands run in-process through ``sechspin.cli.main``
and write to a file that is parsed and checked after the timer stops.
Only calls into the program are timed.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time

import numpy as np

from sechspin import cli, special
from sechspin.model import two_pi_pulse

import checks

# Interior grid points move by up to this share of the grid spacing. Grid
# ends, the pulse center and the +-r / +-gamma pairs stay put.
JITTER = 0.15

README_B = 0.29                     # sechspin phases ... --B 0.29
README_FIELDS = "0.27,1.35,2.7"     # sechspin fidelity --sweep ... --B
RZ_RATIOS = (0.01, 0.1, 1.0, 10.0, 100.0)
RZ_HALF_SPAN = 12.0                 # trajectory grid |t| <= 12/eta, see README


def jittered(grid, rng, keep=()):
    """grid with interior points moved inside their cells; indices in keep stay."""
    grid = np.array(grid, dtype=float)
    step = np.diff(grid)
    for k in range(1, len(grid) - 1):
        if k not in keep:
            grid[k] += rng.uniform(-JITTER, JITTER) * min(step[k - 1], step[k])
    return grid


def log_grid(lo, hi, n, rng):
    """n points from lo to hi, log-spaced, interior jittered in log space."""
    grid = 10.0 ** jittered(np.linspace(math.log10(lo), math.log10(hi), n), rng)
    grid[0], grid[-1] = lo, hi
    return grid


def mirrored(half):
    """-half[::-1] + [0] + half, for a positive increasing half-grid."""
    half = np.asarray(half, dtype=float)
    return np.concatenate([-half[::-1], [0.0], half])


def angle_grid(rng):
    """lin:-3.0:3.0:25 with the positive interior jittered and mirrored."""
    half = jittered(np.linspace(0.0, 3.0, 13), rng)[1:]
    return mirrored(half)


def csv_list(values) -> str:
    return ",".join(repr(float(v)) for v in values)


class Tally:
    """Operations attempted and failed, worst errors, and malformed outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = {}          # config id -> (times failed, last reason)
        self.accuracy = {}
        self.malformed = []

    def add(self, n_configs, failures, accuracy=None):
        self.attempted += n_configs
        for cid, reason in failures.items():
            count = self.failed.get(cid, (0, ""))[0]
            self.failed[cid] = (count + 1, reason)
        for name, err in (accuracy or {}).items():
            self.accuracy[name] = max(self.accuracy.get(name, 0.0), err)

    @property
    def n_failed(self) -> int:
        return sum(count for count, _ in self.failed.values())

    def unexpected(self):
        return sorted(cid for cid in self.failed if cid not in checks.KNOWN_FAULT_CONFIGS)


class Workload:
    """Base: a named list of CLI calls (and library calls) per round."""

    configs_per_round = 0
    warm_argv = ()

    def __init__(self, rng, tmpdir):
        self.tmpdir = tmpdir

    def path(self, name):
        return os.path.join(self.tmpdir, name)

    def run_cli(self, argv, out):
        """Run one CLI command in-process; (seconds, exit code)."""
        if os.path.exists(out):
            os.remove(out)
        t0 = time.perf_counter()
        code = cli.main(argv + ["--out", out])
        return time.perf_counter() - t0, code

    def warm_up(self):
        """Cheap calls down the same code paths, so that lazy imports and
        first-call costs stay out of the timed rounds."""
        for argv in self.warm_argv:
            _, code = self.run_cli(argv, self.path("warm"))
            if code != 0:
                raise RuntimeError("warm-up %r exited with %d" % (argv, code))

    def round(self, tally) -> float:
        raise NotImplementedError


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_phase_rows(path):
    return [(float(d["r"]), float(d["phi"]), float(d["alpha"]), float(d["gamma"]),
             d["method"]) for d in read_csv(path)]


def read_gate_rows(path, decay_on):
    return [(float(d["gamma"]), float(d["B"]), float(d["fidelity"]),
             float(d["population_loss"]), decay_on) for d in read_csv(path)]


def echoes(got, sent) -> bool:
    """The rows carry the requested ratios; phases reports r as
    Omega/(Omega/r), which may differ from r in the last bit."""
    return len(got) == len(sent) and np.allclose(got, sent, rtol=1e-15, atol=0.0)


def failed_call(ids, code):
    return {cid: "CLI exit code %d" % code for cid in ids}


class PhaseScan(Workload):
    """README `phases --ratios log:0.01:100:61 --method both --B 0.29`, plus
    numeric points at B = 0 that must match the closed form."""

    warm_argv = (["phases", "--ratios", "1", "--method", "both", "--B", "0.29"],)

    def __init__(self, rng, tmpdir):
        super().__init__(rng, tmpdir)
        self.ratios = log_grid(0.01, 100.0, 61, rng)
        # jittered like the README grid, whose cells are 1/15 decade wide
        pair = np.array([0.5, 2.0]) * 10.0 ** (rng.uniform(-JITTER, JITTER, 2) / 15.0)
        self.ratios_b0 = np.concatenate([-pair[::-1], pair])
        self.calls = [
            (["phases", "--ratios=" + csv_list(self.ratios), "--method", "both",
              "--B", repr(README_B)], README_B, 2 * len(self.ratios)),
            (["phases", "--ratios=" + csv_list(self.ratios_b0), "--method", "numeric",
              "--B", "0"], 0.0, len(self.ratios_b0)),
        ]
        self.configs_per_round = sum(n for _, _, n in self.calls)

    def round(self, tally):
        spent = 0.0
        for k, (argv, B, n) in enumerate(self.calls):
            out = self.path("phases%d.csv" % k)
            dt, code = self.run_cli(argv, out)
            spent += dt
            if code != 0:
                tally.add(n, failed_call(["phases call %d row %d" % (k, i) for i in range(n)], code))
                continue
            rows = read_phase_rows(out)
            sent = self.ratios if B else self.ratios_b0
            if not echoes([row[0] for row in rows], np.tile(sent, n // len(sent))):
                tally.malformed.append("phases call %d: rows do not echo the ratio grid" % k)
            failures, accuracy = checks.check_phase_rows(rows, B)
            tally.add(n, failures, accuracy)
        return spent


class GateSweep(Workload):
    """README `fidelity --sweep --angles lin:-3.0:3.0:25 --B 0.27,1.35,2.7`,
    plus the B = 0, decay-off slice over the same angles."""

    warm_argv = (["fidelity", "--sweep", "--angles", "0.785", "--B", "0.29"],
                 ["fidelity", "--sweep", "--angles", "0.785", "--B", "0", "--tau-t", "inf"])

    def __init__(self, rng, tmpdir):
        super().__init__(rng, tmpdir)
        self.angles = angle_grid(rng)
        angles = "--angles=" + csv_list(self.angles)
        fields = [float(b) for b in README_FIELDS.split(",")]
        self.calls = [
            (["fidelity", "--sweep", angles, "--B", README_FIELDS], fields, True),
            (["fidelity", "--sweep", angles, "--B", "0", "--tau-t", "inf"], [0.0], False),
        ]
        self.configs_per_round = sum(len(self.angles) * len(b) for _, b, _ in self.calls)

    def round(self, tally):
        spent = 0.0
        rows = []
        for k, (argv, fields, decay_on) in enumerate(self.calls):
            out = self.path("sweep%d.csv" % k)
            dt, code = self.run_cli(argv, out)
            spent += dt
            n = len(self.angles) * len(fields)
            if code != 0:
                tally.add(n, failed_call(["sweep call %d row %d" % (k, i) for i in range(n)], code))
                continue
            got = read_gate_rows(out, decay_on)
            if [(g, b) for g, b, *_ in got] != [(float(g), b) for g in self.angles for b in fields]:
                tally.malformed.append("sweep call %d: rows do not echo angles x fields" % k)
            rows += got
        failures, accuracy = checks.check_gate_rows(rows)
        tally.add(len(rows), failures, accuracy)
        return spent


class ClosedForm(Workload):
    """Closed-form route only: analytic phases on a signed log grid, `design`
    over an angle grid, and library rz_state trajectories."""

    warm_argv = (["phases", "--ratios", "1", "--method", "analytic"],
                 ["design", "--angle", "0.5"])

    def __init__(self, rng, tmpdir):
        super().__init__(rng, tmpdir)
        half = log_grid(0.01, 100.0, 30, rng)
        self.ratios = np.concatenate([-half[::-1], half])
        self.angles = angle_grid(rng)
        n_t = int(4 * RZ_HALF_SPAN) + 1
        center = n_t // 2
        times = jittered(np.linspace(-RZ_HALF_SPAN, RZ_HALF_SPAN, n_t), rng, keep={center})
        self.times = np.append(times, math.inf)
        self.rz_ratios = [s * r for r in RZ_RATIOS for s in (1.0, -1.0)]
        # the mpmath reference stays outside the timed region
        self.refs = {r: np.array([checks.rz_reference(t, r) for t in self.times])
                     for r in self.rz_ratios}
        self.configs_per_round = len(self.ratios) + len(self.angles) + len(self.rz_ratios)

    def round(self, tally):
        spent = 0.0
        out = self.path("analytic.csv")
        dt, code = self.run_cli(["phases", "--ratios=" + csv_list(self.ratios),
                                 "--method", "analytic"], out)
        spent += dt
        n = len(self.ratios)
        if code != 0:
            tally.add(n, failed_call(["analytic r=%r" % r for r in self.ratios], code))
        else:
            rows = read_phase_rows(out)
            if not echoes([row[0] for row in rows], self.ratios):
                tally.malformed.append("analytic phases: rows do not echo the ratio grid")
            failures, accuracy = checks.check_phase_rows(rows, 0.0)
            tally.add(n, failures, accuracy)
        out = self.path("design.json")
        for angle in self.angles:
            dt, code = self.run_cli(["design", "--angle=" + repr(float(angle))], out)
            spent += dt
            if code != 0:
                tally.add(1, failed_call(["design angle=%r" % angle], code))
                continue
            with open(out) as fh:
                tally.add(1, checks.check_design(float(angle), json.load(fh)))
        for r in self.rz_ratios:
            pulse = two_pi_pulse(1.0, 1.0 / r, 0.0)
            t0 = time.perf_counter()
            states = np.array([special.rz_state(t, pulse).amplitudes for t in self.times])
            spent += time.perf_counter() - t0
            tally.add(1, *checks.check_trajectory(r, states, self.refs[r]))
        return spent


WORKLOADS = {"phase-scan": PhaseScan, "gate-sweep": GateSweep, "closed-form": ClosedForm}
