"""Price ingestion, provenance-stamped output and the CLI pipelines."""

import csv
import dataclasses
import datetime
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import latticemarket as lm
from latticemarket import cli, io, pipeline
from latticemarket.pipeline import PipelineConfig, analyze_price_table


def strict_json(text):
    """json.loads that rejects the non-standard NaN and Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


def read_output_csv(path):
    """Header and data rows of a CSV written by io.write_csv."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = [row for row in csv.reader(fh)
                         if not row[0].startswith("#")]
    return header, rows


def make_long_csv(path, markets=("ES", "TY", "CL"), days=900, seed=0):
    rng = np.random.default_rng(seed)
    start = datetime.date(2001, 1, 1).toordinal()
    lines = ["market,date,price"]
    for m_i, name in enumerate(markets):
        prices = 100.0 * np.exp(np.cumsum(
            rng.normal(0.0002, 0.01, days)))
        for i in range(days):
            date = datetime.date.fromordinal(start + i)
            lines.append(f"{name},{date.isoformat()},{float(prices[i])!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestLoadPriceCsv:
    def test_two_row_file_single_return(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("market,date,price\n"
                        "ES,2020-01-01,100\nES,2020-01-02,110\n")
        table = io.load_price_csv(path)
        assert table.names() == ["ES"]
        prices = table.markets[0].prices
        assert len(prices) == 2
        assert math.log(prices[1] / prices[0]) == pytest.approx(
            math.log(1.1))

    def test_duplicate_date_named(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("market,date,price\n"
                        "ES,2020-01-01,100\nES,2020-01-01,101\n")
        with pytest.raises(ValueError, match="2020-01-01"):
            io.load_price_csv(path)

    def test_non_positive_price_line_number(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("market,date,price\n"
                        "ES,2020-01-01,100\nES,2020-01-02,-3\n")
        with pytest.raises(ValueError, match="line 3"):
            io.load_price_csv(path)

    def test_malformed_row_line_number(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("market,date,price\nES,2020-01-01\n")
        with pytest.raises(ValueError, match="line 2"):
            io.load_price_csv(path)

    def test_dates_must_increase(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("market,date,price\n"
                        "ES,2020-01-05,100\nES,2020-01-02,101\n")
        with pytest.raises(ValueError, match="not increasing"):
            io.load_price_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            io.load_price_csv(path)

    def test_wide_ragged_starts(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text(
            "date,A,B,C\n"
            "2020-01-01,100,,50\n"
            "2020-01-02,101,,51\n"
            "2020-01-03,102,200,52\n"
            "2020-01-06,103,202,\n")
        markets = {m.name: m for m in io.load_price_csv(
            path, schema="wide").markets}
        assert {name: m.prices.size for name, m in markets.items()} == \
            {"A": 4, "B": 2, "C": 3}
        # the weekend gap is kept, not rejected
        assert markets["A"].dates[-1] == np.datetime64("2020-01-06")

    def test_wide_market_without_prices(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("date,A,B\n2020-01-01,100,\n")
        with pytest.raises(ValueError, match="'B'"):
            io.load_price_csv(path, schema="wide")

    def test_byte_order_mark_before_comment(self, tmp_path):
        # a spreadsheet export's BOM must not hide the comment mark
        text = ("# exported\nmarket,date,price\n"
                "ES,2020-01-01,100\nES,2020-01-02,abc\n")
        path = tmp_path / "p.csv"
        path.write_text("\ufeff" + text.replace("abc", "110"),
                        encoding="utf-8")
        table = io.load_price_csv(path)
        assert table.names() == ["ES"]
        assert list(table.markets[0].prices) == [100.0, 110.0]
        path.write_text("\ufeff" + text, encoding="utf-8")
        with pytest.raises(ValueError, match="line 4: bad price 'abc'"):
            io.load_price_csv(path)


class TestProvenanceOutput:
    def test_csv_header_carries_provenance(self, tmp_path):
        path = tmp_path / "out.csv"
        prov = io.make_provenance(7, inputs={"x": "abc"})
        io.write_csv(path, ["a", "b"], [[1], [2.5]], prov)
        first = path.read_text().splitlines()[0]
        assert first.startswith("# provenance: ")
        payload = json.loads(first.split(": ", 1)[1])
        assert payload["seed"] == 7
        assert payload["version"] == lm.__version__

    def test_float_rendering_roundtrips(self, tmp_path):
        path = tmp_path / "out.csv"
        value = 0.1 + 0.2
        io.write_csv(path, ["v"], [[value]], io.make_provenance(0))
        _, rows = read_output_csv(path)
        assert float(rows[0][0]) == value

    def test_empty_rows_write_the_two_header_lines(self, tmp_path):
        path = tmp_path / "out.csv"
        prov = io.make_provenance(3)
        io.write_csv(path, ["t", "R"], [np.arange(0), np.zeros(0)], prov)
        assert path.read_text(encoding="utf-8") == (
            "# provenance: " + json.dumps(prov, sort_keys=True) + "\nt,R\n")

    def test_json_writes_non_finite_floats_as_null(self, tmp_path):
        path = tmp_path / "out.json"
        io.write_json(path, {"a": math.nan, "b": [np.float64(math.inf)],
                             "c": {"d": (-math.inf, 1.5)}},
                      io.make_provenance(0))
        doc = strict_json(path.read_text())
        assert doc["a"] is None and doc["b"] == [None]
        assert doc["c"] == {"d": [None, 1.5]}


def csv_body(rows) -> bytes:
    """The data lines of write_csv, built one row at a time."""
    return "".join(",".join(map(io.format_float, row)) + "\n"
                   for row in rows).encode()


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                  2.2250738585072014e-308, 1e300, -1e300, 0.1 + 0.2]


@st.composite
def columns_of(draw):
    """Equal-length columns of write_csv's kinds: float64 (specials and
    subnormals among them), float32, int64 and bool arrays, lists of str,
    empty and np.float64 cells, and arrays that format_float must format
    cell by cell: datetime64 (NaT among them) and object arrays of
    np.float32, str and int cells."""
    n = draw(st.integers(0, 30))

    def cells(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))
    floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
    kinds = {
        "float64": lambda: np.array(cells(floats), dtype=np.float64),
        "float32": lambda: np.array(cells(st.floats(width=32)),
                                    dtype=np.float32),
        "int64": lambda: np.array(cells(st.integers(-2 ** 63, 2 ** 63 - 1)),
                                  dtype=np.int64),
        "bool": lambda: np.array(cells(st.booleans()), dtype=bool),
        "list": lambda: cells(st.one_of(
            st.text(st.characters(blacklist_categories=("Cs",))),
            st.just(""), floats.map(np.float64), st.integers())),
        "datetime64": lambda: np.array(
            cells(st.integers(-2 ** 63, 2 ** 63 - 1)),
            dtype=np.int64).view("datetime64[ns]"),
        "object": lambda: np.array(cells(st.one_of(
            st.floats(width=32).map(np.float32), st.text(max_size=3),
            st.integers())) + [None], dtype=object)[:-1],
    }
    names = draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1,
                          max_size=5))
    return [kinds[name]() for name in names]


class TestWriteCsvColumns:
    """write_csv against the row-major reference: format_float of each
    cell of each row, joined by commas."""

    # each example overwrites the one file in tmp_path
    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(columns=columns_of())
    def test_lines_match_the_row_reference(self, tmp_path, columns):
        path = tmp_path / "out.csv"
        header = [f"c{i}" for i in range(len(columns))]
        io.write_csv(path, header, columns, io.make_provenance(0))
        _, head, body = path.read_bytes().split(b"\n", 2)
        assert head == ",".join(header).encode()
        assert body == csv_body(zip(*columns))

    @pytest.mark.parametrize("n", [0, 1, 2 ** 10 - 1, 2 ** 10, 2 ** 10 + 1])
    def test_row_counts_around_the_slice(self, tmp_path, n):
        path = tmp_path / "out.csv"
        columns = [np.arange(n) * 3 + 7, np.arange(n) / 7.0,
                   [f"r{i}" for i in range(n)]]
        io.write_csv(path, ["sweep", "M", "name"], columns,
                     io.make_provenance(0))
        _, _, body = path.read_bytes().split(b"\n", 2)
        assert body == csv_body(zip(*columns))
        assert body.count(b"\n") == n

    @pytest.mark.parametrize("header, columns", [
        (["a", "b"], [[1], [2], [3]]),
        (["a", "b", "c"], [[1], [2]]),
        (["a", "b"], [np.arange(3), np.arange(2)]),
        (["a", "b"], [[], [1.5]])],
        ids=["more-columns", "fewer-columns", "long-short", "empty-one"])
    def test_mismatch_raises_before_the_file_is_opened(self, tmp_path,
                                                       header, columns):
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match="do not match"):
            io.write_csv(path, header, columns, io.make_provenance(0))
        assert not path.exists()


class TestSimulateCommand:
    def test_outputs_and_price_identity(self, tmp_path):
        out = tmp_path / "run"
        code = cli.main([
            "simulate", "--side", "8", "--sweeps", "300", "--burn-in", "50",
            "--temperature", "0.4", "--seed", "5", "--out", str(out)])
        assert code == 0
        header, rows = read_output_csv(out / "magnetization.csv")
        assert header == ["sweep", "M", "price"]
        n_sites = 64
        assert len(rows) == 250
        for row in rows:
            # M = n - N/2 for n shares, and P = n / (N/2) = 1 + 2M/N
            m, price = float(row[1]), float(row[2])
            assert m.is_integer() and abs(m) <= n_sites / 2
            assert price == pytest.approx(1.0 + 2.0 * m / n_sites)
        params = json.loads((out / "params.json").read_text())
        assert params["params"]["seed"] == 5
        assert (out / "returns.csv").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["simulate", "--side", "8", "--sweeps", "200",
                "--burn-in", "20", "--temperature", "0.35", "--seed", "9"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(args + ["--out", str(out_a)]) == 0
        assert cli.main(args + ["--out", str(out_b)]) == 0
        for name in ("magnetization.csv", "returns.csv", "params.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    @pytest.mark.parametrize("argv, recorded", [
        (["--side", "8", "--sweeps", "300", "--burn-in", "50"], 250),
        # (301 - 20) % 3 = 2 sweeps past the last recorded one
        (["--side", "8", "--sweeps", "301", "--burn-in", "20", "--thin", "3"],
         93),
        # past two 2^14-value slices of the streamed rows
        (["--dims", "1", "--side", "8", "--sweeps", "40000"], 38000)],
        ids=["thin-1", "thin-3-ragged", "row-slices"])
    def test_csv_bytes_match_rows_built_one_at_a_time(self, tmp_path, argv,
                                                      recorded):
        out = tmp_path / "run"
        assert cli.main(["simulate", *argv, "--temperature", "0.35",
                         "--seed", "4", "--out", str(out)]) == 0
        params = lm.SimulationParams(**json.loads(
            (out / "params.json").read_text())["params"])
        series = lm.run_simulation(params)
        n_sites = params.side ** params.dims
        files = {
            "magnetization.csv": ("sweep,M,price", [
                (params.burn_in + (i + 1) * params.thin, m,
                 1.0 + 2.0 * m / n_sites)
                for i, m in enumerate(series.values)]),
            "returns.csv": ("t,R", list(enumerate(
                lm.magnetization_to_returns(series).values)))}
        for name, (header, rows) in files.items():
            provenance, text = (out / name).read_bytes().split(b"\n", 1)
            assert provenance.startswith(b"# provenance: ")
            assert text == (header + "\n" + "".join(
                ",".join(map(io.format_float, row)) + "\n"
                for row in rows)).encode()
        assert len(series.values) == recorded

    def test_invalid_sweeps_exit_code(self, tmp_path):
        code = cli.main(["simulate", "--sweeps", "0",
                         "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("temperature", ["nan", "inf"])
    def test_non_finite_temperature_exits_2_without_output(self, tmp_path,
                                                           temperature):
        out = tmp_path / "run"
        assert cli.main(["simulate", "--side", "4", "--sweeps", "20",
                         "--burn-in", "2", "--temperature", temperature,
                         "--out", str(out)]) == 2
        assert not out.exists()

    def test_too_few_records_fail_before_any_sweep(self, tmp_path, caplog,
                                                  monkeypatch):
        # (20000 - 2000) // 15000 = 1 recorded sweep: no return to write
        with pytest.raises(ValueError) as after_run:
            lm.magnetization_to_returns(lm.MagnetizationSeries(
                values=np.zeros(1), params=lm.SimulationParams()))
        calls = []
        monkeypatch.setattr(pipeline.dynamics, "run_simulation",
                            lambda params: calls.append(params))
        out = tmp_path / "run"
        assert cli.main(["simulate", "--side", "16", "--sweeps", "20000",
                         "--thin", "15000", "--out", str(out)]) == 2
        assert calls == []
        assert f"ValueError: {after_run.value}" in caplog.text
        assert not out.exists()

    def test_frozen_run_writes_no_file(self, tmp_path):
        out = tmp_path / "run"
        code = cli.main([
            "simulate", "--side", "4", "--sweeps", "200", "--burn-in", "10",
            "--temperature", "1e-6", "--init", "all_up", "--out", str(out)])
        assert code == 2
        assert not out.exists() or not any(out.iterdir())


    def test_odd_side_exits_2_without_output(self, tmp_path, caplog):
        out = tmp_path / "run"
        assert cli.main(["simulate", "--side", "7", "--out", str(out)]) == 2
        assert not out.exists()
        assert "side 7" in caplog.text

    def test_params_carry_mixing_diagnostics(self, tmp_path, caplog):
        out = tmp_path / "run"
        assert cli.main([
            "simulate", "--side", "8", "--sweeps", "400", "--burn-in", "2",
            "--temperature", "0.35", "--seed", "3", "--out", str(out)]) == 0
        diag = strict_json((out / "params.json").read_text())["diagnostics"]
        assert 0.0 < diag["acceptance_rate"] < 1.0
        assert diag["tau_int"] > 0 and diag["tau_int_reliable"] is True
        assert diag["burn_in_over_tau_int"] == pytest.approx(
            2.0 / diag["tau_int"])
        assert diag["effective_samples"] == pytest.approx(
            398 / (2.0 * diag["tau_int"]))
        series = np.array([float(r[1]) for r in
                           read_output_csv(out / "magnetization.csv")[1]])
        assert diag["binder_cumulant"] == pytest.approx(
            lm.binder_cumulant(series), rel=1e-12)
        assert "below 20 tau_int" in caplog.text

    def test_undefined_diagnostics_are_null(self, tmp_path):
        # 15 recorded sweeps: too few for tau_int (16) and Binder (100)
        out = tmp_path / "run"
        assert cli.main([
            "simulate", "--side", "8", "--sweeps", "40", "--burn-in", "10",
            "--thin", "2", "--temperature", "0.35", "--out", str(out)]) == 0
        diag = strict_json((out / "params.json").read_text())["diagnostics"]
        for key in ("tau_int", "tau_int_reliable", "burn_in_over_tau_int",
                    "effective_samples", "binder_cumulant"):
            assert diag[key] is None
        assert 0.0 < diag["acceptance_rate"] < 1.0


def _variance_csv(path):
    ks = list(range(1, 11))
    io.write_csv(path, ["k", "variance"],
                 [ks, [(2.0 ** k) ** (0.9 - 1.0) for k in ks]],
                 io.make_provenance(0))
    return path


class TestNoScipyAtRunTime:
    """Every command runs on numpy alone: scipy is a test-only oracle.
    No command imports numpy.ma either, which numpy 2 loads at the first
    np.unique call (about 1.1 MB of module objects)."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--side", "4", "--sweeps", "40", "--burn-in", "4"],
        ["analyze", "{prices}", "--horizons", "1,2,3,4",
         "--bootstrap-samples", "100", "--cv-folds", "5"],
        ["analyze", "{prices}", "--horizons", "1,2,3,4", "--estimator",
         "step", "--bootstrap-samples", "100", "--cv-folds", "5"],
        ["fit-kappa", "{variances}"],
        ["predict", "--regime", "scaling"],
        ["predict", "--regime", "exponential"],
        ["predict", "--regime", "matched"],
    ], ids=["simulate", "analyze-phi", "analyze-step", "fit-kappa",
            "predict-scaling", "predict-exponential", "predict-matched"])
    def test_command_loads_no_scipy(self, tmp_path, argv):
        files = {"prices": str(make_long_csv(tmp_path / "p.csv", days=600)),
                 "variances": str(_variance_csv(tmp_path / "v.csv"))}
        argv = [a.format(**files) for a in argv]
        # a fresh interpreter: modules imported by other tests do not count
        script = (
            "import json, sys\n"
            "import latticemarket.cli as cli\n"
            "cli.build_parser()\n"
            "code = cli.main(json.loads(sys.argv[1]))\n"
            "print(json.dumps([code] + sorted(\n"
            "    m for m in sys.modules\n"
            "    if m in ('scipy', 'numpy.ma')\n"
            "    or m.startswith(('scipy.', 'numpy.ma.')))))\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run(
            [sys.executable, "-c", script,
             json.dumps(argv + ["--out", str(tmp_path / "run")])],
            env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout.splitlines()[-1]) == [0]


class TestPredictCommand:
    def test_kappa_one_zeroes_autocorrelation(self, tmp_path):
        out = tmp_path / "pred"
        code = cli.main(["predict", "--kappa", "1.0", "--tau", "32768",
                         "--out", str(out)])
        assert code == 0
        header, rows = read_output_csv(out / "predictions.csv")
        col_ac = header.index("return_autocorrelation")
        col_tr = header.index("trend_return_correlation")
        assert len(rows) == 13
        for row in rows:
            assert float(row[col_ac]) == 0.0
            assert abs(float(row[col_tr])) < 1e-12

    def test_dimension_three_header_records_kappa(self, tmp_path):
        out = tmp_path / "pred3"
        assert cli.main(["predict", "--dimension", "3", "--out",
                         str(out)]) == 0
        first = (out / "predictions.csv").read_text().splitlines()[0]
        payload = json.loads(first.split(": ", 1)[1])
        assert payload["kappa"] == pytest.approx(0.970, abs=5e-4)
        params = json.loads((out / "params.json").read_text())
        assert params["kappa"] == pytest.approx(0.9703557312, abs=1e-9)

    def test_variances_decrease_with_horizon(self, tmp_path):
        out = tmp_path / "pred_dec"
        assert cli.main(["predict", "--kappa", "0.9", "--tau", "32768",
                         "--out", str(out)]) == 0
        header, rows = read_output_csv(out / "predictions.csv")
        for col in ("variance_phi", "variance_tilde"):
            vals = [float(r[header.index(col)]) for r in rows]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_out_of_domain_horizons_dropped(self, tmp_path):
        out = tmp_path / "pred_drop"
        assert cli.main(["predict", "--kappa", "0.9", "--tau", "1024",
                         "--out", str(out)]) == 0
        _, rows = read_output_csv(out / "predictions.csv")
        # scaling regime keeps T <= tau/4 = 256, i.e. k <= 8
        assert max(int(r[0]) for r in rows) == 8

    def test_dropped_horizons_recorded_in_params(self, tmp_path):
        out = tmp_path / "pred"
        assert cli.main(["predict", "--tau", "64", "--predict-horizons",
                         "1,2,3,4,5,6,7,8", "--out", str(out)]) == 0
        _, rows = read_output_csv(out / "predictions.csv")
        assert [int(r[0]) for r in rows] == [1, 2, 3, 4]
        dropped = json.loads((out / "params.json").read_text())[
            "horizons_dropped"]
        assert [row["k"] for row in dropped] == [5, 6, 7, 8]
        # T <= tau/4 bounds the variances, t <= tau the correlations
        assert [row["reason"] for row in dropped] == [
            "scaling-regime variances require T <= tau/4 (T=32.0, tau=64.0)",
            "scaling-regime variances require T <= tau/4 (T=64.0, tau=64.0)",
            "scaling regime requires t <= tau = 64.0",
            "scaling regime requires t <= tau = 64.0"]

    def test_every_horizon_dropped_writes_the_header_alone(self, tmp_path):
        out = tmp_path / "pred"
        assert cli.main(["predict", "--tau", "64", "--predict-horizons",
                         "7,8", "--out", str(out)]) == 0
        provenance, rest = (out / "predictions.csv").read_bytes().split(
            b"\n", 1)
        assert provenance == (out / "hurst.csv").read_bytes().split(b"\n")[0]
        assert rest == (b"k,T,return_autocorrelation,trend_return_correlation,"
                        b"variance_phi,variance_tilde,"
                        b"adjacent_window_correlation\n")

    @pytest.mark.parametrize("ks,fault", [
        ("3,3,4", "predict_horizons must not repeat"),
        (",", "predict_horizons must be positive"),
        ("-40", "predict_horizons must be positive"),
        ("0,1", "predict_horizons must be positive"),
        ("1,1100", "predict_horizons must be k values up to 62")],
        ids=["repeat", "empty", "negative", "zero", "past-int64"])
    def test_bad_predict_horizons_exit_2_without_output(self, tmp_path,
                                                        caplog, ks, fault):
        # a repeat writes a row twice, an empty list an empty table,
        # k = -40 a T of 9.1e-13 with a variance of 0.0, and k = 1100 a
        # T = 2^k past the largest float
        out = tmp_path / "pred"
        with caplog.at_level("ERROR"):
            assert cli.main(["predict", "--regime", "exponential", "--kappa",
                             "0.5", f"--predict-horizons={ks}",
                             "--out", str(out)]) == 2
        assert fault in caplog.text
        assert not out.exists()

    def test_matched_far_past_tau(self, tmp_path):
        # the matched tilde variance is closed-form: at T >> tau no
        # quadrature over (t_star, T) is left to fail
        out = tmp_path / "pred"
        assert cli.main(["predict", "--regime", "matched",
                         "--predict-horizons", "37,40,62",
                         "--out", str(out)]) == 0
        _, rows = read_output_csv(out / "predictions.csv")
        assert [int(row[0]) for row in rows] == [37, 40, 62]
        assert all(math.isfinite(float(v)) for row in rows for v in row)

    def test_invalid_dimension_writes_no_directory(self, tmp_path):
        out = tmp_path / "pred_bad"
        assert cli.main(["predict", "--dimension", "9",
                         "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("regime", ["scaling", "exponential",
                                        "matched"])
    @pytest.mark.parametrize("tau", ["inf", "nan"])
    def test_non_finite_tau_exits_2_without_output(self, tmp_path, regime,
                                                   tau):
        out = tmp_path / "pred"
        assert cli.main(["predict", "--tau", tau, "--regime", regime,
                         "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("regime", ["scaling", "exponential"])
    def test_small_kappa_pure_regimes_use_closed_forms(self, tmp_path,
                                                       regime):
        # the quadrature cannot resolve kappa = 0.05 (matched case below);
        # the pure regimes never call it
        out = tmp_path / "pred"
        assert cli.main(["predict", "--kappa", "0.05", "--regime", regime,
                         "--out", str(out)]) == 0
        _, rows = read_output_csv(out / "predictions.csv")
        assert len(rows) == 13
        assert all(math.isfinite(float(v)) for row in rows for v in row)

    def test_unresolved_quadrature_exits_2_without_output(self, tmp_path,
                                                          caplog):
        # at kappa = 0.05 the t^(kappa-1) end singularity outlasts the
        # quadrature's node range: fail closed rather than write a guess
        out = tmp_path / "pred_quad"
        with caplog.at_level("ERROR"):
            assert cli.main(["predict", "--kappa", "0.05", "--regime",
                             "matched", "--out", str(out)]) == 2
        assert "QuadratureError" in caplog.text
        assert not out.exists()


class TestAnalyzeCommand:
    def test_full_pipeline_outputs(self, tmp_path):
        csv_path = make_long_csv(tmp_path / "prices.csv", days=900)
        out = tmp_path / "analysis"
        code = cli.main([
            "analyze", str(csv_path), "--out", str(out),
            "--horizons", "1,2,3,4", "--bootstrap-samples", "150",
            "--cv-folds", "5", "--seed", "3"])
        assert code == 0
        report = strict_json((out / "report.json").read_text())["report"]
        assert report["horizons_used"] == [1, 2, 3, 4]
        # this seeded i.i.d. panel has a degenerate b(k): no peak, so null
        assert report["parabolic_b"]["degenerate"]
        assert report["parabolic_b"]["amplitude"] is None
        assert report["parabolic_b"]["delta_k"] is None
        assert set(report["regression"]) >= {"a", "b", "c", "se_b",
                                             "r_squared_cv"}
        for name in ("coefficients_by_scale.csv", "variance_by_scale.csv",
                     "moments.csv", "coefficient_table.csv",
                     "trend_autocorrelation.csv"):
            assert (out / name).exists()
        # i.i.d. input: no significant coefficients
        reg = report["regression"]
        assert abs(reg["t_b"]) < 4.0 and abs(reg["t_c"]) < 4.0
        assert math.isfinite(reg["gram_condition"])
        assert reg["gram_condition"] > 0
        assert "kappa" in report and "dimension" in report
        assert report["horizons_dropped"] == []
        # 543 returns per market: the step window T = 512 leaves 31
        # observations in each of the 3 markets, too few pooled; T = 1024
        # leaves none
        short_csv = make_long_csv(tmp_path / "short.csv", days=544)
        out_short = tmp_path / "short"
        code = cli.main([
            "analyze", str(short_csv), "--out", str(out_short),
            "--horizons", "1,2,3,9,10", "--estimator", "step",
            "--bootstrap-samples", "100", "--cv-folds", "5"])
        assert code == 0
        report = strict_json((out_short / "report.json").read_text())["report"]
        assert report["horizons_used"] == [1, 2, 3]
        assert report["horizons_dropped"] == [
            {"k": 9, "reason": "only 93 pooled observations"},
            {"k": 10, "reason": "no market has enough history"}]

    def test_default_horizons_echoed(self, tmp_path):
        csv_path = make_long_csv(tmp_path / "prices.csv", days=600)
        config = PipelineConfig(bootstrap_samples=150, cv_folds=5)
        table = io.load_price_csv(csv_path)
        report = analyze_price_table(table, config)
        assert report["horizons_requested"] == list(range(1, 11))

    def test_oversized_horizon_dropped_with_warning(self, tmp_path, caplog):
        csv_path = make_long_csv(tmp_path / "prices.csv", days=500)
        out = tmp_path / "analysis"
        with caplog.at_level("WARNING", logger="latticemarket"):
            code = cli.main([
                "analyze", str(csv_path), "--out", str(out),
                "--horizons", "1,2,3,4,9,40", "--bootstrap-samples", "150",
                "--cv-folds", "5"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())["report"]
        assert report["horizons_used"] == [1, 2, 3, 4]
        # no market can fill k = 40, so nothing of length 2^40 is built
        assert report["horizons_dropped"] == [
            {"k": k, "reason": "no market has enough history"}
            for k in (9, 40)]
        assert any("k=9" in rec.message for rec in caplog.records)

    def test_planted_cubic_signal_recovered(self, tmp_path):
        # returns generated with a known cubic dependence on their own
        # psi-trend must come back out of the full CSV -> report loop
        a_true, b_true, c_true, horizon = 0.0, 0.15, -0.05, 8.0
        rng = np.random.default_rng(0)
        decay = math.exp(-2.0 / horizon)
        m_t = math.sqrt(1.0 - math.exp(-4.0 / horizon))
        start = datetime.date(1990, 1, 1).toordinal()
        lines = ["market,date,price"]
        for m in range(4):
            acc = 0.0
            r = np.empty(4000)
            r[0] = rng.standard_normal()
            for t in range(3999):
                acc = decay * acc + r[t]
                phi = m_t * acc
                r[t + 1] = (a_true + b_true * phi + c_true * phi ** 3
                            + rng.standard_normal())
            prices = 100.0 * np.exp(np.cumsum(0.01 * r))
            for i in range(4000):
                date = datetime.date.fromordinal(start + i)
                lines.append(f"M{m},{date.isoformat()},{float(prices[i])!r}")
        csv_path = tmp_path / "synthetic.csv"
        csv_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        code = cli.main([
            "analyze", str(csv_path), "--out", str(out), "--horizons", "3",
            "--estimator", "psi", "--bootstrap-samples", "300",
            "--cv-folds", "5", "--seed", "1"])
        assert code == 0
        reg = json.loads((out / "report.json").read_text())["report"]["regression"]
        assert abs(reg["b"] - b_true) <= 3 * reg["se_b"]
        assert abs(reg["c"] - c_true) <= 3 * reg["se_c"]
        assert reg["t_b"] > 5.0 and reg["t_c"] < -5.0
        assert reg["r_squared_cv"] > 0.0

    def test_missing_file_exit_code(self, tmp_path):
        assert cli.main(["analyze", str(tmp_path / "nope.csv"),
                         "--out", str(tmp_path)]) == 2

    def test_bad_price_writes_no_directory(self, tmp_path):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text("market,date,price\nA,2020-01-01,abc\n")
        out = tmp_path / "analysis"
        assert cli.main(["analyze", str(csv_path), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("names,fault", [
        (",B", "empty market name in column 2"),
        ("A,A", "duplicate market 'A' in column 3")], ids=["blank", "repeat"])
    def test_bad_wide_header_exits_2_without_output(self, tmp_path, caplog,
                                                    names, fault):
        # under a valid header this panel analyzes; a blank name would
        # load a market '' and a repeated one merge two columns
        rng = np.random.default_rng(4)
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, (600, 2)), 0))
        days = np.datetime64("2020-01-01") + np.arange(600)
        csv_path = tmp_path / "wide.csv"
        csv_path.write_text(f"date,{names}\n" + "".join(
            f"{d},{a!r},{b!r}\n" for d, (a, b) in zip(days, prices.tolist())))
        argv = ["analyze", str(csv_path), "--schema", "wide", "--estimator",
                "step", "--horizons", "1,2", "--bootstrap-samples", "100",
                "--cv-folds", "5"]
        out = tmp_path / "analysis"
        with caplog.at_level("ERROR"):
            assert cli.main(argv + ["--out", str(out)]) == 2
        assert f"line 1: {fault}" in caplog.text
        assert not out.exists()

    def test_oversized_field_exits_2_without_output(self, tmp_path, caplog):
        csv_path = tmp_path / "big.csv"
        csv_path.write_text('market,date,price\nA,2020-01-01,1.0\n'
                            'A,2020-01-02,"' + "1" * 200_000 + '"\n')
        out = tmp_path / "analysis"
        with caplog.at_level("ERROR"):
            assert cli.main(["analyze", str(csv_path),
                             "--out", str(out)]) == 2
        assert "big.csv: line 3: field larger than field limit" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("horizons,fault", [
        ("3,3,3", "horizons must not repeat"),
        ("2,2,2,3,4,5", "horizons must not repeat"),
        ("1,2,3,1100", "horizons must be k values up to 62")],
        ids=["3,3,3", "2,2,2,3,4,5", "1,2,3,1100"])
    def test_repeated_horizons_exit_2_without_output(self, tmp_path, caplog,
                                                     horizons, fault):
        # a repeated k would count its pairs and its variance point again,
        # and T = 2^1100 overflows a float
        csv_path = make_long_csv(tmp_path / "prices.csv", days=300)
        out = tmp_path / "analysis"
        with caplog.at_level("ERROR"):
            assert cli.main(["analyze", str(csv_path), "--horizons", horizons,
                             "--bootstrap-samples", "100", "--cv-folds", "5",
                             "--out", str(out)]) == 2
        assert fault in caplog.text
        assert not out.exists()

    def test_flat_market_named_without_output(self, tmp_path, caplog):
        csv_path = make_long_csv(tmp_path / "prices.csv", days=300,
                                 markets=("ES", "TY"))
        start = datetime.date(2001, 1, 1).toordinal()
        with open(csv_path, "a", encoding="utf-8") as fh:
            for i in range(300):
                day = datetime.date.fromordinal(start + i).isoformat()
                fh.write(f"FLAT,{day},100.0\n")
        out = tmp_path / "analysis"
        with caplog.at_level("ERROR"):
            assert cli.main(["analyze", str(csv_path), "--horizons", "1,2,3",
                             "--bootstrap-samples", "100", "--cv-folds", "5",
                             "--out", str(out)]) == 2
        assert "market 'FLAT': zero-variance returns" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("permuted", ["6,5,4,3,2,1", "4,2,6,1,5,3"])
    def test_horizon_order_leaves_moments_unchanged(self, tmp_path,
                                                    permuted):
        # moment_scaling sorts its horizons; the pooled curves must be
        # keyed by the same sorted k, or M_q(T) and H_q come out reversed
        csv_path = make_long_csv(tmp_path / "prices.csv", days=700,
                                 markets=("ES", "TY"))
        runs = []
        for horizons in ("1,2,3,4,5,6", permuted):
            out = tmp_path / horizons.replace(",", "")
            assert cli.main(["analyze", str(csv_path), "--horizons", horizons,
                             "--bootstrap-samples", "100", "--cv-folds", "5",
                             "--out", str(out)]) == 0
            report = strict_json((out / "report.json").read_text())["report"]
            runs.append((read_output_csv(out / "moments.csv"),
                         report["moment_scaling"]["hurst"]))
        assert runs[1] == runs[0]
        assert all(fit["H"] > 0 for fit in runs[0][1].values())

    def test_rerun_byte_identical(self, tmp_path):
        csv_path = make_long_csv(tmp_path / "prices.csv", days=700,
                                 markets=("ES", "TY"))
        args = ["analyze", str(csv_path), "--horizons", "1,2,3",
                "--bootstrap-samples", "120", "--cv-folds", "5",
                "--seed", "11"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(args + ["--out", str(out_a)]) == 0
        assert cli.main(args + ["--out", str(out_b)]) == 0
        assert (out_a / "report.json").read_bytes() == \
            (out_b / "report.json").read_bytes()


class TestFitKappaCommand:
    def test_exact_power_law_input(self, tmp_path):
        ks = list(range(1, 11))
        var_csv = tmp_path / "var.csv"
        io.write_csv(var_csv, ["k", "variance"],
                     [ks, [(2.0 ** k) ** (0.96 - 1.0) for k in ks]],
                     io.make_provenance(0))
        out = tmp_path / "fit"
        assert cli.main(["fit-kappa", str(var_csv), "--out", str(out)]) == 0
        result = json.loads((out / "kappa_fit.json").read_text())
        assert result["kappa"] == pytest.approx(0.96, abs=1e-10)
        assert abs(result["dimension"] - 2.9) <= 0.1

    def test_byte_order_mark_before_header(self, tmp_path):
        rows = "".join(f"{k},{(2.0 ** k) ** -0.04!r}\n" for k in range(1, 6))
        var_csv = tmp_path / "var.csv"
        var_csv.write_text("\ufeffk,variance\n" + rows, encoding="utf-8")
        out = tmp_path / "fit"
        assert cli.main(["fit-kappa", str(var_csv), "--out", str(out)]) == 0
        result = json.loads((out / "kappa_fit.json").read_text())
        assert result["kappa"] == pytest.approx(0.96, abs=1e-10)

    def test_synthetic_path_recovers_dimension(self, tmp_path):
        from latticemarket.theory import PropagatorModel
        model = PropagatorModel(tau=2 ** 12, kappa=0.9, regime="scaling")
        path = lm.gaussian_process_from_propagator(model, 2 ** 15, seed=21)
        ks = list(range(1, 9))
        variances = [float(np.mean((path[2 ** k:] - path[:-2 ** k]) ** 2)
                           / 2 ** k) for k in ks]
        var_csv = tmp_path / "var.csv"
        io.write_csv(var_csv, ["k", "variance"], [ks, variances],
                     io.make_provenance(0))
        out = tmp_path / "fit"
        assert cli.main(["fit-kappa", str(var_csv), "--out", str(out)]) == 0
        result = json.loads((out / "kappa_fit.json").read_text())
        assert result["kappa"] == pytest.approx(0.9, abs=0.05)
        true_dim = lm.dimension_for_kappa(0.9)
        assert abs(result["dimension"] - true_dim) <= 0.15

    def test_missing_column_falls_back_to_position(self, tmp_path):
        var_csv = tmp_path / "var.csv"
        var_csv.write_text("k,variance_tilde\n1,0.97\n2,0.95\n3,0.92\n")
        out = tmp_path / "fit"
        assert cli.main(["fit-kappa", str(var_csv), "--out", str(out)]) == 0

    @pytest.mark.parametrize("header, missing", [("scale,var", "'k'"),
                                                 ("k,var", "'variance'")])
    def test_unnamed_columns_rejected(self, tmp_path, caplog, header,
                                      missing):
        var_csv = tmp_path / "var.csv"
        var_csv.write_text(header + "\n1,0.97\n2,0.95\n3,0.92\n")
        out = tmp_path / "fit"
        with caplog.at_level("ERROR"):
            assert cli.main(["fit-kappa", str(var_csv),
                             "--out", str(out)]) == 2
        assert any(missing in rec.message for rec in caplog.records)
        assert not out.exists()

    def test_short_row_exits_2_without_output(self, tmp_path, caplog):
        var_csv = tmp_path / "var.csv"
        var_csv.write_text("k,variance\n1,0.9\n2\n3,0.8\n")
        out = tmp_path / "fit"
        with caplog.at_level("ERROR"):
            assert cli.main(["fit-kappa", str(var_csv),
                             "--out", str(out)]) == 2
        assert any("line 3" in rec.message for rec in caplog.records)
        assert not out.exists()

    def test_oversized_field_exits_2_without_output(self, tmp_path, caplog):
        var_csv = tmp_path / "var.csv"
        var_csv.write_text('k,variance\n1,0.9\n2,"' + "1" * 200_000
                           + '"\n3,0.8\n')
        out = tmp_path / "fit"
        with caplog.at_level("ERROR"):
            assert cli.main(["fit-kappa", str(var_csv),
                             "--out", str(out)]) == 2
        assert "var.csv: line 3: field larger than field limit" in caplog.text
        assert not out.exists()

    def test_bad_cell_names_file_and_line(self, tmp_path, caplog):
        var_csv = tmp_path / "var.csv"
        var_csv.write_text("# note\nk,variance\n1,0.9\n\n2,abc\n3,0.8\n")
        out = tmp_path / "fit"
        with caplog.at_level("ERROR"):
            assert cli.main(["fit-kappa", str(var_csv),
                             "--out", str(out)]) == 2
        assert "var.csv: line 5: could not convert string to float: 'abc'" \
            in caplog.text
        assert not out.exists()

    def test_one_distinct_k_exits_2_without_output(self, tmp_path, caplog):
        var_csv = tmp_path / "var.csv"
        var_csv.write_text("k,variance\n3,0.9\n3,0.8\n3,0.85\n")
        out = tmp_path / "fit"
        with caplog.at_level("ERROR"):
            assert cli.main(["fit-kappa", str(var_csv),
                             "--out", str(out)]) == 2
        assert "distinct k" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_variance_exits_2_without_output(self, tmp_path,
                                                        bad):
        var_csv = tmp_path / "var.csv"
        var_csv.write_text(f"k,variance\n1,0.9\n2,{bad}\n3,0.8\n")
        out = tmp_path / "fit"
        assert cli.main(["fit-kappa", str(var_csv), "--out", str(out)]) == 2
        assert not out.exists()


class TestFailClosedOutput:
    """A command writes all of its files into --out, or none of them."""

    @pytest.mark.parametrize("case", ["out_is_file", "out_under_file",
                                      "name_is_directory"])
    def test_write_failure_exits_2_naming_the_path(self, tmp_path, caplog,
                                                   case):
        blocker = tmp_path / "blocker"
        blocker.write_text("sentinel")
        out, named = {
            "out_is_file": (blocker, blocker),
            "out_under_file": (blocker / "run", blocker),
            "name_is_directory": (tmp_path / "blk",
                                  tmp_path / "blk" / "hurst.csv"),
        }[case]
        if case == "name_is_directory":
            named.mkdir(parents=True)
        before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
        with caplog.at_level("ERROR"):
            assert cli.main(["predict", "--out", str(out)]) == 2
        assert str(named) in caplog.text
        assert blocker.read_text() == "sentinel"
        # no predictions.csv, no staging directory, nothing else new
        assert sorted(p.relative_to(tmp_path)
                      for p in tmp_path.rglob("*")) == before

    def test_failed_write_leaves_no_parents_of_out(self, tmp_path,
                                                   monkeypatch):
        def full_disk(path, *args):
            raise OSError(28, "No space left on device", str(path))
        monkeypatch.setattr(io, "write_csv", full_disk)
        out = tmp_path / "new" / "a" / "b" / "run"
        assert cli.main(["predict", "--out", str(out)]) == 2
        assert list(tmp_path.rglob("*")) == []

    @pytest.mark.parametrize("existing", [True, False])
    def test_failed_analyze_leaves_out_as_it_was(self, tmp_path, caplog,
                                                 monkeypatch, existing):
        csv_path = make_long_csv(tmp_path / "prices.csv", days=700,
                                 markets=("ES", "TY"))
        out = tmp_path / "analysis"
        if existing:
            out.mkdir()
            (out / "sentinel.txt").write_bytes(b"keep me\n")
            (out / "report.json").write_bytes(b'{"older": true}\n')
        before = {p.name: p.read_bytes() for p in out.glob("*")}
        written = []

        def fail_on_second_file(write):
            def patched(path, *args):
                written.append(path)
                if len(written) == 2:
                    raise OSError(28, "No space left on device", str(path))
                return write(path, *args)
            return patched

        monkeypatch.setattr(io, "write_json",
                            fail_on_second_file(io.write_json))
        monkeypatch.setattr(io, "write_csv", fail_on_second_file(io.write_csv))
        with caplog.at_level("ERROR"):
            assert cli.main(["analyze", str(csv_path), "--horizons", "1,2,3",
                             "--bootstrap-samples", "120", "--cv-folds", "5",
                             "--out", str(out)]) == 2
        assert [p.name for p in written] == ["report.json",
                                             "coefficients_by_scale.csv"]
        assert "No space left on device" in caplog.text
        assert out.exists() == existing
        assert {p.name: p.read_bytes() for p in out.glob("*")} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            sorted(["prices.csv"] + ["analysis"] * existing)


class TestConfigPrecedence:
    def test_cli_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"side": 6, "sweeps": 120, "burn_in": 10,
                                   "temperature": 0.5}))
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfg), "--side", "4",
                         "--out", str(out)]) == 0
        params = json.loads((out / "params.json").read_text())
        assert params["params"]["side"] == 4          # CLI wins
        assert params["params"]["sweeps"] == 120      # file beats default

    def test_config_file_with_byte_order_mark(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("\ufeff" + json.dumps({"kappa": 0.9}),
                       encoding="utf-8")
        out = tmp_path / "pred"
        assert cli.main(["predict", "--config", str(cfg),
                         "--out", str(out)]) == 0
        params = json.loads((out / "params.json").read_text())
        assert params["kappa"] == 0.9

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sides": 6}))
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("doc, key", [
        ({"horizons": 5}, "'horizons'"),
        ({"horizons": [1, "2"]}, "'horizons'"),
        ({"bootstrap_samples": "500"}, "'bootstrap_samples'"),
        ({"sweeps": 200.0}, "'sweeps'"),
        ({"seed": True}, "'seed'"),
        ({"temperature": None}, "'temperature'"),
        ({"kappa": "0.9"}, "'kappa'"),
        ({"estimator": 1}, "'estimator'"),
        ([["side", 6]], "JSON object"),
    ])
    def test_wrong_typed_config_value_exits_2(self, tmp_path, caplog, doc,
                                               key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "run"
        with caplog.at_level("ERROR"):
            assert cli.main(["simulate", "--config", str(cfg),
                             "--out", str(out)]) == 2
        assert any(key in rec.message for rec in caplog.records)
        assert not out.exists()

    def test_every_config_field_is_a_flag(self):
        # the CLI takes its override keys from the config's fields
        subs = cli.build_parser()._subparsers._group_actions[0].choices
        dests = {a.dest for sub in subs.values() for a in sub._actions}
        fields = {f.name for f in dataclasses.fields(PipelineConfig)}
        assert fields <= dests

    def test_help_lists_protocol_defaults(self):
        # each flag's help shows the default that PipelineConfig() holds
        subs = cli.build_parser()._subparsers._group_actions[0].choices
        defaults = PipelineConfig()
        for f in dataclasses.fields(defaults):
            value = getattr(defaults, f.name)
            if value is None:           # kappa: no default to show
                continue
            if isinstance(value, list):
                shown = f"{value[0]}..{value[-1]}"
            elif isinstance(value, float):
                shown = f"{value:g}" if value.is_integer() \
                    else f"{value:.4f}"
            else:
                shown = str(value)
            helps = [a.help for sub in subs.values() for a in sub._actions
                     if a.dest == f.name]
            assert helps, f.name
            for text in helps:
                assert f"default {shown}" in text \
                    or f"temperature {shown}" in text, (f.name, text)

    @pytest.mark.parametrize("command", [
        "simulate", "predict", "analyze", "fit-kappa"])
    def test_negative_seed_exits_2_without_output(self, tmp_path, caplog,
                                                  command):
        # checked with the config, before any input is read or any work
        # is done: no command writes seed -1 into its provenance
        inputs = {"analyze": [str(make_long_csv(tmp_path / "p.csv",
                                                days=300))],
                  "fit-kappa": [str(_variance_csv(tmp_path / "v.csv"))]}
        out = tmp_path / "run"
        with caplog.at_level("ERROR"):
            assert cli.main([command, *inputs.get(command, []), "--seed",
                             "-1", "--out", str(out)]) == 2
        assert "seed must be >= 0" in caplog.text
        assert not out.exists()

    def test_key_error_is_a_runtime_error(self, tmp_path, monkeypatch):
        # no input or config fault raises KeyError: one is a bug, exit 1
        def lookup_bug(config, out_dir):
            raise KeyError("k")
        monkeypatch.setattr(cli, "cmd_predict", lookup_bug)
        out = tmp_path / "p"
        assert cli.main(["predict", "--out", str(out)]) == 1
        assert not out.exists()
