"""A1 (ablation): the cost of violation detection itself.

The paper notes that "the detection of violations takes place during
simulation and unavoidably disturbs the execution of SlackSim".  Shape:
detection costs a measurable but small fraction of simulation time.
"""

from repro.harness.experiments import ablation_detection


def test_ablation_detection(benchmark, runner):
    result = benchmark.pedantic(lambda: ablation_detection(runner), rounds=1, iterations=1)
    print()
    print(result.render())

    for name, off_time, on_time, overhead in result.rows:
        # Detection adds per-event host work; schedule noise can offset a
        # little of it, but it can never be a large win.
        assert on_time >= off_time * 0.97, f"{name}: detection cannot be a speedup"
        assert overhead < 0.30, f"{name}: detection overhead {overhead:.1%} implausibly large"
