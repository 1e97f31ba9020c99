"""The committed end-to-end oracle of the detailed engine.

Every (kernel, case study, coherence protocol) cell must reproduce its
committed digest through both entry points of the detailed engine: one
``DetailedSimulator.run`` per cell, and one ``SweepSimulator.run`` batch
per kernel. The digests are regenerated only by an explicit script (see
:mod:`tests.sim.golden_digests`), never from here.
"""

import pytest

from tests.sim.golden_digests import (
    PROTOCOLS,
    detailed_digests,
    load_golden,
    sweep_digests,
)


@pytest.fixture(scope="module")
def golden():
    return load_golden()


def assert_matches(golden, digests):
    assert set(digests) == set(golden)
    changed = sorted(key for key, value in digests.items() if golden[key] != value)
    assert not changed, f"{len(changed)} cells drifted from the golden: {changed}"


def test_golden_covers_the_whole_grid(golden):
    assert len(golden) == 6 * 5 * len(PROTOCOLS)


def test_detailed_simulator_reproduces_the_golden(golden):
    assert_matches(golden, detailed_digests())


def test_sweep_simulator_reproduces_the_golden(golden):
    assert_matches(golden, sweep_digests())
