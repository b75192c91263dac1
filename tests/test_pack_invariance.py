"""No result depends on its pack, grid batch, call or neighbours: every
trajectory, operator and alpha of a mixed list of entries has the bits of
its entry run alone."""

import functools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sechspin.cli import parse_grid
from sechspin.fidelity import _sequence_for
from sechspin.model import SystemParams, larmor_from_field, two_pi_pulse
from sechspin.phases import DEFAULT_WINDOW, _numeric_start, dynamic_phase_numeric
from sechspin.propagator import PACK_STEPS, IntegratorOpts, PulseSchedule, StepTooLarge
from sechspin.propagator import evolve_operators, propagate_many, schedule_for_pulses
from sechspin.pulsedesign import design_for_angle


def system(B, lifetime=math.inf):
    return SystemParams(omega_B=larmor_from_field(B), trion_lifetime=lifetime)


def even(delta, omega=1.0, window=(-20.0, 20.0)):
    """One pulse at its window's center, as a numeric decomposition runs it."""
    return PulseSchedule([two_pi_pulse(omega, delta)], window)


def ratios(rs, B):
    """The entries of sweep_ratio(rs, "numeric", system(B))."""
    return [(even(1.0 / r), system(B)) for r in rs]


def gate(gamma, omega=2.0 / 3.0):
    """The schedule of the pulses fidelity_sweep scores for gamma at its
    default omega: for a pair with gamma < 0, the time reversal of the
    |gamma| pair that _sequence_for gives and the sweep integrates, built
    here by hand."""
    spacing = 14.0 / omega
    pulses = _sequence_for(gamma, omega, spacing)[0]
    if -math.pi < gamma < 0:
        pulses = [two_pi_pulse(omega, -p.detuning, spacing - p.center) for p in reversed(pulses)]
    return schedule_for_pulses(pulses)


def gates(angles, fields):
    """The gates of fidelity_sweep(angles, fields), each by its own pulses."""
    return [(gate(a), system(b, 900.0)) for a in angles for b in fields]


def window(duration):
    return PulseSchedule([], (0.0, duration))


DESIGNED = [design_for_angle(g, 1.0) for g in (-2.9, 0.3, 1.2)]
# windows of 10 and 300 ps have 16 and 32 steps at 0.29 T; r = 0.0015625
# has a half past CHUNK_STEPS, so it steps forward in chunks
PALETTE = ([even(1.0 / r) for r in (1.0, -0.3, 0.01, 0.0015625)]
           + [even(p.detuning) for pair in DESIGNED for p in (pair.pulse1, pair.pulse2)]
           + [gate(g) for g in (0.5, -2.0, 3.0, math.pi)] + [window(10.0), window(300.0)])
DEFAULT, DT, STRIDE = IntegratorOpts(), IntegratorOpts(dt=0.08), IntegratorOpts(sample_stride=7)


@st.composite
def mixed_calls(draw):
    """1-8 palette entries, each with a field and decay on or off, permuted
    and split into consecutive calls, each with its own dt and stride."""
    entries = draw(st.permutations(draw(st.lists(
        st.tuples(st.sampled_from(PALETTE),
                  st.builds(system, st.sampled_from([0.0, 0.29, 2.7]),
                            st.sampled_from([math.inf, 900.0]))),
        min_size=1, max_size=8))))
    cuts = draw(st.lists(st.booleans(), min_size=len(entries) - 1, max_size=len(entries) - 1))
    bounds = [0] + [k + 1 for k, cut in enumerate(cuts) if cut] + [len(entries)]
    opts = st.builds(IntegratorOpts, dt=st.sampled_from([None, 0.08]),
                     sample_stride=st.sampled_from([1, 7]))
    return [(draw(opts), entries[a:b]) for a, b in zip(bounds, bounds[1:])]


@functools.cache
def alone(sched, s, opts):
    """(trajectory, operator, alpha) of one entry in calls of its own, alpha
    None with decay on; None where the dt guard refuses the schedule."""
    try:
        traj = next(propagate_many([start(s)], [sched], s, opts))
    except StepTooLarge:
        return None
    alpha = None if s.decay_rate else dynamic_phase_numeric([traj], [sched], s)[0]
    return traj, evolve_operators([sched], [s], opts)[0], alpha


def start(s):
    """The start state of sweep_ratio's trajectories at omega = 1."""
    return _numeric_start(1.0, [], s, DEFAULT_WINDOW)[0]


# the pulses of the designed pairs, and the inputs of the former CI blocks
# that ran the README sweeps in reverse and joined orders; the hand-built
# invariance tests in test_phases and test_propagator pin their own cases
EXAMPLES = [
    [(DEFAULT, [(even(p.detuning), system(b)) for p in (pair.pulse1, pair.pulse2)])
     for pair, b in zip(DESIGNED, (0.29, 0.0, 2.7))],
    [(DEFAULT, gates(parse_grid("lin:3.0:-3.0:25"), (0.27, 1.35, 2.7)))],
    [(DEFAULT, ratios(parse_grid(spec), 0.29))
     for spec in ("lin:0.03125:6.03125:25", "lin:6.03125:0.03125:25")],
    [(DEFAULT, gates([0.5, math.pi, -0.5], (0.29, 2.7)))],
]


def _with_examples(test):
    for calls in reversed(EXAMPLES):
        test = example(calls=calls)(test)
    return test


@pytest.mark.filterwarnings("ignore:omega_B/eta")
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(calls=mixed_calls())
@_with_examples
def test_no_result_depends_on_its_pack(step_packs, calls):
    # a call's trajectories run under its first entry's system, its
    # operators each under its own; the alphas of every trajectory with
    # decay off take one pass a system, across calls
    passes = {}
    for opts, entries in calls:
        entries = [(sched, s) for sched, s in entries if alone(sched, s, opts)]
        if not entries:
            continue
        scheds = [sched for sched, _ in entries]
        systems = [s for _, s in entries]
        s = systems[0]
        trajs = propagate_many([start(s)] * len(scheds), scheds, s, opts)
        for traj, sched in zip(trajs, scheds):
            lone, _, alpha = alone(sched, s, opts)
            assert all(np.array_equal(getattr(traj, k), getattr(lone, k))
                       for k in ("times", "states", "norms"))
            if alpha is not None:
                for got, item in zip(passes.setdefault(s, ([], [], [])), (traj, sched, alpha)):
                    got.append(item)
        for u, sched, system_ in zip(evolve_operators(scheds, systems, opts), scheds, systems):
            assert np.array_equal(u, alone(sched, system_, opts)[1])
    for s, (trajs, scheds, alphas) in passes.items():
        assert dynamic_phase_numeric(trajs, scheds, s) == alphas
    assert all(len(p) * max(p) <= PACK_STEPS for p in step_packs if len(p) > 1)

