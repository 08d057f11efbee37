"""E1 (extension): full speculative execution, measured vs modeled.

The paper only estimated speculative slack with its analytical model; this
reproduction implements the complete mechanism (checkpoint, detect,
rollback, cycle-by-cycle replay).  Shape checks:

- the committed execution is free of tracked violations;
- measured speculative time, like the model, does not beat cycle-by-cycle
  at the baseline violation rate;
- the analytical model lands within a factor of ~2 of the measurement
  (it omits rollback cost and assumes steady-state F/D_r).
"""

from repro.harness.experiments import speculative_full


def test_speculative_full(benchmark, runner):
    result = benchmark.pedantic(lambda: speculative_full(runner), rounds=1, iterations=1)
    print()
    print(result.render())

    for name, interval, cc, model_ts, measured_ts, rollbacks, wasted in result.rows:
        assert measured_ts > 0
        assert rollbacks >= 0
        if rollbacks:
            assert wasted > 0
        # Speculation does not beat CC in this regime (paper's conclusion).
        assert measured_ts >= cc * 0.9, f"{name}@{interval}: speculation beat CC"
        # Model vs measurement agreement (order of magnitude).
        assert model_ts * 0.4 <= measured_ts <= model_ts * 2.5, (
            f"{name}@{interval}: model {model_ts:.3f}s vs measured {measured_ts:.3f}s"
        )
