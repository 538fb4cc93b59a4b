"""Bounds on the memory the analyze and simulate paths allocate while
they run.

tracemalloc counts every Python and numpy allocation, so a traced peak is
deterministic for fixed inputs, unlike the resident set.  Each bound is
the peak measured on Python 3.11 / numpy 2.4 plus the margin stated
beside it; the formulations these bounds replaced peaked higher
(bootstrap 6.58 MB; long load 4.53, 2.35, then 2.15 MB; wide load 7.37,
4.61, then 4.09 MB; load and analyze 6.65 MB long, 10.13 MB wide; CSV
write 29.5 MB; simulate 414 B per recorded sweep; cold checkerboard
tables 2.00 MB).
"""

import datetime
import tracemalloc

import numpy as np
import pytest

import latticemarket as lm
from latticemarket import dynamics, io, pipeline

MB = 2 ** 20


def traced_peak_mb(fn, *args):
    """The peak traced allocation while fn(*args) runs, above what was
    traced when it started, in MB."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return (tracemalloc.get_traced_memory()[1] - before) / MB
    finally:
        if not tracing:
            tracemalloc.stop()


def price_columns(markets, days, seed):
    """ISO dates of `days` calendar days and one random-walk price column
    per market, as shortest round-trip strings."""
    rng = np.random.default_rng(seed)
    start = datetime.date(2000, 1, 3).toordinal()
    dates = [datetime.date.fromordinal(start + i).isoformat()
             for i in range(days)]
    prices = 100.0 * np.exp(np.cumsum(
        rng.normal(0.0, 0.01, (markets, days)), axis=1))
    return dates, [list(map(repr, column.tolist())) for column in prices]


def test_bootstrap_counts_a_few_resamples_at_a_time():
    # the analyze workload's shape: 3 999 day groups, 5 000 resamples;
    # measured 4.23 MB, of which the (65, 3999) float count block is 2 MB
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal((2, 40_000))
    rows = lm.moment_sums(x, y, rng.integers(0, 3999, x.size))
    assert len(rows) == 3999
    assert traced_peak_mb(lm.bootstrap_errors, rows, 5000, 7) < 5.0  # +18 %


def write_prices(path, schema, markets, days):
    """A long or a wide price CSV of price_columns(markets, days, 11); the
    wide one has ragged starts, market m empty before day m * days / 80."""
    dates, columns = price_columns(markets, days, 11)
    if schema == "long":
        lines = ["market,date,price"] + [
            f"M{m:02d},{date},{price}" for m, column in enumerate(columns)
            for date, price in zip(dates, column)]
    else:
        for m, column in enumerate(columns):
            column[:m * days // 80] = [""] * (m * days // 80)
        lines = ["date," + ",".join(f"W{m:02d}" for m in range(markets))]
        lines += [",".join(row) for row in zip(dates, *columns)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("schema, markets, days, bound", [
    ("long", 10, 4000, 1.35),           # measured 1.15 MB, +18 %
    ("wide", 20, 5000, 2.3)],           # measured 1.97 MB, +17 %
    ids=["long", "wide"])
def test_load_price_csv_peak(tmp_path, schema, markets, days, bound):
    path = write_prices(tmp_path / "prices.csv", schema, markets, days)
    assert traced_peak_mb(io.load_price_csv, path, schema) < bound


@pytest.mark.parametrize("schema, markets, days, estimator, samples, bound", [
    # analyze's settings: the bootstrap's 2 MB count block comes after
    # the panels and the returns are freed
    ("long", 10, 4000, "phi", 5000, 4.8),     # measured 4.14 MB, +16 %
    # analyze-wide's: the per-scale moment panels set the peak
    ("wide", 20, 5000, "step", 500, 8.4)],    # measured 7.28 MB, +15 %
    ids=["long", "wide"])
def test_load_and_analyze_peak(tmp_path, schema, markets, days, estimator,
                               samples, bound):
    path = write_prices(tmp_path / "prices.csv", schema, markets, days)
    config = pipeline.PipelineConfig(estimator=estimator,
                                     bootstrap_samples=samples, seed=1)
    # the table is passed straight in, as cmd_analyze does, so that
    # analyze_price_table holds the only reference to it
    assert traced_peak_mb(lambda: pipeline.analyze_price_table(
        io.load_price_csv(path, schema), config)) < bound


def test_write_csv_streams_its_rows(tmp_path):
    # three 200 000-value array columns, converted and written a slice of
    # rows at a time
    i = np.arange(200_000)
    columns = [i, 0.1 * i, 1.0 + i / 3.0]
    assert traced_peak_mb(io.write_csv, tmp_path / "out.csv",
                          ["sweep", "M", "price"], columns,
                          io.make_provenance(0)) < 1.0   # measured 0.21 MB


def test_simulate_memory_per_recorded_sweep(tmp_path):
    def peak(sweeps):
        config = pipeline.PipelineConfig(dims=2, side=8, sweeps=sweeps,
                                         burn_in=0, seed=1)
        return traced_peak_mb(pipeline.cmd_simulate, config,
                              tmp_path / str(sweeps))

    peak(2000)      # first-call caches and imports
    per_sweep = (peak(200_000) - peak(20_000)) * MB / 180_000
    # measured 109 B, +47 %: the recorded M, the returns and the
    # autocorrelation's FFT arrays; the CSV rows are converted and
    # written a slice at a time
    assert per_sweep < 160


def test_cold_checkerboard_peak():
    # measured 1.50 MB, +17 %: the (N, 2D) neighbour table, the
    # (2, 2D, N/2) result and one column's index arrays
    dynamics._checkerboard.cache_clear()
    assert traced_peak_mb(dynamics._checkerboard, 2, 128) < 1.75
