"""Table 3: fraction of checkpoint intervals with at least one violation.

Shape: F grows with the checkpoint interval for every benchmark, and
benchmarks differ according to how clustered their violations are.
"""

from repro.harness.experiments import table3


def test_table3(benchmark, runner):
    result = benchmark.pedantic(lambda: table3(runner), rounds=1, iterations=1)
    print()
    print(result.render())

    fractions = {row[0]: row[1:] for row in result.rows}
    for name, values in fractions.items():
        assert all(0.0 <= v <= 1.0 for v in values)
        # F grows with the interval: strictly from the smallest to the
        # largest, with only small-sample dips (runs hold ~5-50 intervals,
        # not the paper's thousands) tolerated between neighbours.
        assert values[-1] >= values[0], f"{name}: F must grow with interval"
        for prev, nxt in zip(values, values[1:]):
            assert nxt >= prev - 0.12, f"{name}: F dropped {prev}->{nxt}"
    # Benchmarks differentiate: not all identical at the middle interval.
    middle = [values[1] for values in fractions.values()]
    assert max(middle) > min(middle)
