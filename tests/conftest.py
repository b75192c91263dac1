import pytest

from sechspin import propagator


@pytest.fixture
def step_packs(monkeypatch) -> list:
    """A list that collects the step counts of every _step_matrices call's
    grids, one list a pack, while the test runs."""
    step_matrices = propagator._step_matrices
    packs = []

    def counting(grids, systems, *ws):
        packs.append([times.shape[0] - 1 for times, _ in grids])
        return step_matrices(grids, systems, *ws)

    monkeypatch.setattr(propagator, "_step_matrices", counting)
    return packs
