"""A3 (ablation): manager thread placement.

Nine simulation threads on eight contexts force one context to host two
threads.  If the manager is *pinned* there, its companion core thread
becomes a permanent laggard and every sync handoff converts the clock
drift into simulated time — unbounded-slack error explodes.  With OS
load balancing (the default) the burden is spread and the error stays in
the paper's single-digit regime.
"""

from repro.harness.experiments import ablation_manager_placement


def test_ablation_manager_placement(benchmark):
    result = benchmark.pedantic(ablation_manager_placement, rounds=1, iterations=1)
    print()
    print(result.render())

    by_benchmark = {}
    for name, placement, speedup, error in result.rows:
        by_benchmark.setdefault(name, {})[placement] = (speedup, error)

    for name, entries in by_benchmark.items():
        balanced_error = entries["balanced"][1]
        pinned_error = entries["pinned"][1]
        assert balanced_error < 0.15, f"{name}: balanced error out of regime"
        assert pinned_error > balanced_error, (
            f"{name}: pinning should worsen unbounded-slack accuracy"
        )
