"""E3 (extension): simulating CMPs larger than the host.

The paper stops at 8 target cores on 8 host contexts and calls for
larger-scale runs (section 7).  Shape checks on 8/16/32-core targets
multiplexed onto the same 8-context host:

- absolute simulation times grow with target size;
- unbounded slack keeps beating cycle-by-cycle at every size (slack also
  absorbs the context-multiplexing imbalance).
"""

from conftest import full_grids

from repro.harness.experiments import scaling


def test_scaling(benchmark):
    core_counts = (8, 16, 32) if full_grids() else (8, 16)
    result = benchmark.pedantic(
        lambda: scaling(core_counts=core_counts), rounds=1, iterations=1
    )
    print()
    print(result.render())

    by_benchmark = {}
    for name, cores, cc, su, speedup, error in result.rows:
        by_benchmark.setdefault(name, []).append((cores, cc, su, speedup, error))

    for name, rows in by_benchmark.items():
        rows.sort()
        # Bigger targets cost more host time to simulate.
        cc_times = [cc for _, cc, _, _, _ in rows]
        assert cc_times == sorted(cc_times), f"{name}: CC time must grow with cores"
        for cores, _, _, speedup, error in rows:
            assert speedup > 1.3, f"{name}@{cores}: slack must keep paying off"
            assert error < 0.5, f"{name}@{cores}: SU error {error:.2%} out of family"
