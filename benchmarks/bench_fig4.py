"""Figure 4: simulation time vs violation rate.

Three series per benchmark — adaptive slack with 0 % and 5 % violation
bands (one point per target rate) and the fixed series (cycle-by-cycle
plus bounded slack S1..S9) — and the paper's reported shape:

- every adaptive run is faster than cycle-by-cycle;
- a bounded-slack run with a similar violation rate is faster than its
  adaptive counterpart (the cost of the adaptive "safety net");
- simulation time falls as the tolerated violation rate rises.
"""

from conftest import full_grids

from repro.harness.experiments import figure4
from repro.harness.experiments import FIGURE4_TARGETS
from repro.harness.export import ascii_scatter, figure_series

QUICK_TARGETS = FIGURE4_TARGETS[::2]
QUICK_FIXED = (1, 2, 4, 6, 8)
FULL_FIXED = (1, 2, 3, 4, 5, 6, 7, 8, 9)


def test_figure4(benchmark, runner):
    targets = FIGURE4_TARGETS if full_grids() else QUICK_TARGETS
    fixed = FULL_FIXED if full_grids() else QUICK_FIXED
    result = benchmark.pedantic(
        lambda: figure4(runner, targets=targets, fixed_bounds=fixed),
        rounds=1,
        iterations=1,
    )
    print()
    print(result.render())
    print()
    print(
        ascii_scatter(
            figure_series(
                result, "barnes/adaptive-band0", "barnes/adaptive-band0.05",
                "barnes/fixed",
            ),
            x_label="violation rate",
            y_label="sim time (s)",
            title="Figure 4 (barnes): simulation time vs violation rate",
        )
    )

    for name in ("barnes", "fft", "lu", "water"):
        fixed_series = result.series[f"{name}/fixed"]
        cc_rate, cc_time = fixed_series[0]
        assert cc_rate == 0.0  # cycle-by-cycle is violation-free

        for band in ("0", "0.05"):
            adaptive = result.series[f"{name}/adaptive-band{band}"]
            # Adaptive slack always runs faster than cycle-by-cycle.
            assert all(time < cc_time for _, time in adaptive)
            # Higher tolerated rates are not slower (within 10% noise).
            assert adaptive[-1][1] <= adaptive[0][1] * 1.10

    # Bounded slack at a similar violation rate beats adaptive (the price
    # of the adaptive "safety net").  The paper states this as a general
    # observation; assert it pooled across benchmarks.
    dominated = 0
    comparable = 0
    for name in ("barnes", "fft", "lu", "water"):
        adaptive = result.series[f"{name}/adaptive-band0.05"]
        fixed_sorted = sorted(result.series[f"{name}/fixed"][1:])  # by rate
        for rate, time in adaptive:
            candidates = [t for r, t in fixed_sorted if r <= rate * 1.5]
            if candidates:
                comparable += 1
                if min(candidates) <= time:
                    dominated += 1
    assert comparable > 0
    assert dominated / comparable >= 0.5, (
        "bounded slack should usually beat adaptive at similar violation rates "
        f"({dominated}/{comparable})"
    )
