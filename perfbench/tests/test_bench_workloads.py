"""The certification budgets reach every host base, and operation times
are scaled by the reference timings around them."""

import wdcolor
from wdcolor import hosts

from run import REF_WINDOW, REFERENCE_LOOP_MS, scaled_ms
from workloads import CERTIFY_BUDGETS


def _bases_reached(label: str, budget: int) -> bool:
    # certify_lemma takes host i of kind kinds[i % len(kinds)], counting per
    # kind; host_for maps a kind's index j to base j % len(bases)
    kinds = wdcolor.SHORT_KINDS[label]
    reached = {kind: set() for kind in kinds}
    for i in range(budget):
        kind = kinds[i % len(kinds)]
        reached[kind].add(i // len(kinds) % len(hosts._BASES[kind]))
    return all(len(reached[k]) == len(hosts._BASES[k]) for k in kinds)


def test_certify_budgets_are_the_least_that_reach_every_base():
    assert set(CERTIFY_BUDGETS) == set(wdcolor.SHORT_KINDS)
    for label, budget in CERTIFY_BUDGETS.items():
        assert _bases_reached(label, budget), label
        assert not _bases_reached(label, budget - 1), label


def test_scaled_ms_uses_the_reference_timings_around_each_operation():
    # reference timings 10, 20, 20, 20, 40 ms; operations of 100 ms
    refs = [10e6, 20e6, 20e6, 20e6, 40e6]
    result = {"op_ns": [100e6] * 3, "ref_ns": refs, "ref_after": [1, 1, 4]}
    scaled = scaled_ms(result)
    assert REF_WINDOW == 3
    # windows: refs[0:4] -> median 20 ms; refs[1:7] -> median 20 ms
    assert scaled == [100 * REFERENCE_LOOP_MS / 20] * 3
    slow = {"op_ns": [100e6], "ref_ns": [40e6, 40e6], "ref_after": [1]}
    assert scaled_ms(slow) == [100 * REFERENCE_LOOP_MS / 40]
