"""E2 (extension): Graphite-style Lax-P2P synchronization.

The paper's section 6 flags Lax-P2P as "an interesting approach, which we
plan to explore further".  Shape checks: P2P lands in the slack family —
faster than cycle-by-cycle, accuracy comparable to bounded slack.
"""

from repro.harness.experiments import p2p_comparison


def test_p2p(benchmark, runner):
    result = benchmark.pedantic(lambda: p2p_comparison(runner), rounds=1, iterations=1)
    print()
    print(result.render())

    by_scheme = {}
    for name, scheme, speedup, error, rate in result.rows:
        by_scheme.setdefault(scheme, []).append((name, speedup, error))

    p2p_rows = [v for k, v in by_scheme.items() if k.startswith("p2p")][0]
    for name, speedup, error in p2p_rows:
        assert speedup > 1.3, f"{name}: P2P should clearly beat cycle-by-cycle"
        assert error < 0.35, f"{name}: P2P error {error:.2%} out of family"
