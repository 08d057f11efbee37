"""A2 (ablation): which violations speculation tracks.

The paper's section 5.2 closes by arguing that tracking only the rare,
high-impact cache-map violations (ignoring bus violations) could make
speculation viable.  Shape: map-only tracking rolls back no more often
than tracking everything, and is never slower.
"""

from repro.harness.experiments import ablation_tracked


def test_ablation_tracked(benchmark, runner):
    result = benchmark.pedantic(lambda: ablation_tracked(runner), rounds=1, iterations=1)
    print()
    print(result.render())

    by_benchmark = {}
    for name, tracked, rollbacks, t_s, ratio in result.rows:
        by_benchmark.setdefault(name, {})[tracked] = (rollbacks, t_s, ratio)

    for name, entries in by_benchmark.items():
        all_rollbacks, all_time, _ = entries["bus+map"]
        map_rollbacks, map_time, _ = entries["map"]
        assert map_rollbacks <= all_rollbacks, f"{name}: map-only rolled back more"
        assert map_time <= all_time * 1.05, f"{name}: map-only should not be slower"
