"""Bench N1: MHETA evaluation cost (paper: ~5.4 ms per distribution).

The paper's operational claim is that the model is cheap enough to
consult on the fly.  The harness times warm single predictions over the
spectrum candidates of jacobi on HY1 and writes the rendered figure to
``benchmarks/results/model_speed_harness.txt``.  Every figure in it is
host wall time, so the file is git-ignored rather than committed.
"""

from repro.experiments import model_evaluation_timing


def test_timing_harness(benchmark, save_result):
    timing = benchmark.pedantic(
        model_evaluation_timing, rounds=1, iterations=1
    )
    save_result("model_speed_harness", timing.describe())
    assert timing.usable_on_the_fly
