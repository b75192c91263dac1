"""Benchmark of the README's sweeps: one workload per invocation, one process.

    python3 benchmarks/run.py --workload phase-scan --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ./src. The
process first times SETUP_SAMPLES fresh interpreters that import
sechspin.cli and run one cheap command (setup_s), then imports the
package itself, builds the workload's inputs from the seed, warms up, and
runs whole rounds until the next one would overrun --seconds. Every
configuration is checked (see checks.py). The last line of stdout is one
JSON object: correct, attempted, failed and the metrics. With --trace 1
the calls into each module are wrapped (tracing.py) and the per-layer
metrics are printed instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"                 # scratch files of a run, removed at exit
SETUP_SAMPLES = 5
SETUP_TIMEOUT = 60.0
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from sechspin import cli; "
    "sys.exit(cli.main(['phases', '--ratios', '1', '--method', 'analytic', "
    "'--out', sys.argv[2]]))"
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["phase-scan", "gate-sweep", "closed-form"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def setup_seconds(tmpdir) -> float:
    """Median wall time of fresh interpreters from start to first result."""
    out = os.path.join(tmpdir, "setup.csv")
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), out],
                       check=True, timeout=SETUP_TIMEOUT,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
        with open(out) as fh:
            if len(fh.read().splitlines()) != 2:
                raise RuntimeError("set-up command wrote no result row")
    return statistics.median(samples)


def measure(workload, tally, seconds):
    """Timed seconds of whole rounds; stops before a round would overrun."""
    times = []
    start = time.perf_counter()
    while True:
        times.append(workload.round(tally))
        elapsed = time.perf_counter() - start
        if elapsed * (len(times) + 1) / len(times) > seconds:
            return times


def throughput(workload, times) -> float:
    """Configurations completed per second of timed sweep."""
    return workload.configs_per_round * len(times) / sum(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sechspin" / "cli.py").is_file():
        print("benchmark: no package source at %s; run from a checkout root" % SRC,
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmpdir:
        setup_s = None if args.trace else setup_seconds(tmpdir)
        sys.path.insert(0, str(SRC))
        sys.path.insert(1, str(HERE))
        import numpy as np
        import sechspin
        import workloads
        if Path(sechspin.__file__).resolve().parent != SRC / "sechspin":
            print("benchmark: imported sechspin from %s, not from %s"
                  % (sechspin.__file__, SRC), file=sys.stderr)
            return 2

        workload = workloads.WORKLOADS[args.workload](np.random.default_rng(args.seed), tmpdir)
        workload.warm_up()
        tally = workloads.Tally()
        if args.trace:
            import tracing
            half = args.seconds / 2.0
            plain = throughput(workload, measure(workload, tally, half))
            tracer = tracing.Tracer()
            tracer.install()
            traced = measure(workload, tally, half)
            metrics = tracer.metrics(len(traced))
            metrics["trace.overhead_pct"] = (100.0 * (plain / throughput(workload, traced) - 1.0), "%")
            metrics["trace.cfg_per_s"] = (throughput(workload, traced), "cfg/s")
            acc = tally.accuracy
            metrics["phases.alpha_err_max"] = (acc.get("alpha_err", 0.0), "rad")
            metrics["phases.phi_err_max"] = (acc.get("phi_err", 0.0), "rad")
            metrics["fidelity.closed_form_err"] = (acc.get("closed_form_err", 0.0), "1")
            metrics["special.state_err_max"] = (acc.get("state_err", 0.0), "1")
        else:
            times = measure(workload, tally, args.seconds)
            metrics = {
                "cfg_per_s": (throughput(workload, times), "cfg/s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }

    for cid, (count, reason) in sorted(tally.failed.items()):
        known = " [known fault: %s]" % workloads.checks.KNOWN_FAULT \
            if cid in workloads.checks.KNOWN_FAULT_CONFIGS else ""
        print("FAILED %s x%d: %s%s" % (cid, count, reason, known), file=sys.stderr)
    for problem in tally.malformed:
        print("MALFORMED %s" % problem, file=sys.stderr)
    correct = not tally.malformed and not tally.unexpected()
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.n_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
