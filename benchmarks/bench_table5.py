"""Table 5: analytical estimate of speculative-slack simulation time.

Shape (the paper's conclusion): the estimated speculative time exceeds
cycle-by-cycle for every benchmark at both long intervals — speculation
does not pay unless violations become much rarer.
"""

from repro.harness.experiments import table5


def test_table5(benchmark, runner):
    result = benchmark.pedantic(lambda: table5(runner), rounds=1, iterations=1)
    print()
    print(result.render())

    for row in result.rows:
        name, cc, *estimates = row
        for estimate in estimates:
            # LU is the borderline case in the paper too (361 vs 343 s);
            # allow it to graze CC but never to beat it decisively.
            assert estimate > cc * 0.90, (
                f"{name}: speculation estimated to clearly beat CC "
                f"({estimate:.3f} vs {cc:.3f}) — not the paper's regime"
            )
