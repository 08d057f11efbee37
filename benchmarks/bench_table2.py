"""Table 2: simulation times of CC, SU, Adaptive, and checkpointing runs.

Checks the paper's reported shape:

- unbounded slack is ~2-3x faster than cycle-by-cycle;
- adaptive slack sits between the two;
- checkpointing every 5K/10K (scaled) cycles costs more than CC;
- 50K/100K intervals land near the plain adaptive time.
"""

from repro.harness.experiments import table2
from repro.harness.experiments import INTERVALS


def test_table2(benchmark, runner):
    result = benchmark.pedantic(lambda: table2(runner), rounds=1, iterations=1)
    print()
    print(result.render())

    for row in result.rows:
        name, cc, su, adaptive = row[0], row[1], row[2], row[3]
        ckpt = dict(zip(INTERVALS, row[4:]))
        speedup = cc / su
        assert 1.5 <= speedup <= 5.0, f"{name}: SU speedup {speedup:.2f} off-shape"
        assert su < adaptive < cc, f"{name}: adaptive must sit between SU and CC"
        # Frequent checkpoints are slower than CC...
        assert ckpt[500] > cc, f"{name}: 5K-interval checkpointing should beat nothing"
        # ...and overhead decreases monotonically with the interval.
        assert ckpt[500] > ckpt[1000] > ckpt[5000] > ckpt[10000]
        # Long intervals approach the plain adaptive time (within 25%).
        assert ckpt[10000] <= adaptive * 1.25
