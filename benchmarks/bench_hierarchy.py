"""E4 (extension): hierarchical manager organization.

The paper: "If the manager thread becomes a bottleneck, then it should be
organized hierarchically."  Shape checks: sub-managers progressively
offload the top manager's per-event consolidation work (top-manager busy
time falls monotonically-ish), the simulated execution is unaffected, and
end-to-end time stays within noise of the flat manager at this scale —
consistent with the paper's note that the manager's average work is much
less than each core thread's.
"""

from repro.harness.experiments import hierarchy


def test_hierarchy(benchmark):
    result = benchmark.pedantic(hierarchy, rounds=1, iterations=1)
    print()
    print(result.render())

    by_subs = {row[0]: row for row in result.rows}
    flat = by_subs[0]
    deepest = by_subs[max(by_subs)]
    # Offload: top-manager busy time shrinks with sub-managers.
    assert deepest[2] < flat[2] * 0.95, "hierarchy failed to offload the top manager"
    # Sub-managers actually did work.
    assert deepest[3] > 0
    # End-to-end time stays in the same regime (manager not yet the
    # bottleneck at this scale).
    assert deepest[1] < flat[1] * 1.3
