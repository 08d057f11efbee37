"""Table 4: average distance from interval start to the first violation.

Shape: the rollback distance D_r is a sizable fraction of the interval
(so a rollback wastes real work), and it does not exceed the interval.
"""

from repro.harness.experiments import table4
from repro.harness.experiments import INTERVALS


def test_table4(benchmark, runner):
    result = benchmark.pedantic(lambda: table4(runner), rounds=1, iterations=1)
    print()
    print(result.render())

    intervals = INTERVALS[1:]
    for row in result.rows:
        name, values = row[0], row[1:]
        for interval, distance in zip(intervals, values):
            if distance == "-":
                continue  # no violating interval at this setting
            assert 0 <= distance <= interval, (
                f"{name}: D_r {distance} outside [0, {interval}]"
            )
    # At least some configurations must violate (else Tables 3-5 are moot).
    measured = [v for row in result.rows for v in row[1:] if v != "-"]
    assert measured
