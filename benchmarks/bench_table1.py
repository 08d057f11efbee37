"""Table 1: the benchmark roster and scaled input sets."""

from repro.harness.experiments import table1


def test_table1(benchmark):
    result = benchmark.pedantic(table1, rounds=1, iterations=1)
    print()
    print(result.render())

    names = [row[0] for row in result.rows]
    assert names == ["barnes", "fft", "lu", "water"]
    for _, paper_input, repro_input in result.rows:
        assert paper_input
        assert repro_input
