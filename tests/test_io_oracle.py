"""The CSV loader against a plain per-cell reference parser.

`reference_load` reads the whole file, then checks it cell by cell: one
`date.fromisoformat` and one `float` per cell, and a per-market duplicate
and order scan.  `io.load_price_csv`, which checks each record as it
reads it and each market's date order as it appends, must give the same
markets, dates and prices on every valid file, and the same message,
line number included, on every invalid one, also when the file holds
two faults.  A fault is named by file and by the physical line on which
its record ends, as `csv.reader.line_num` counts it, so a quoted field
that spans lines moves every later line number.
"""

import csv
import datetime
import io as textio
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from latticemarket import io


# -- the per-cell reference ----------------------------------------------------

def _parse_date(token, line_no):
    try:
        return datetime.date.fromisoformat(token.strip())
    except ValueError as exc:
        raise ValueError(f"line {line_no}: bad date {token!r}") from exc


def _parse_price(token, line_no):
    try:
        price = float(token)
    except ValueError as exc:
        raise ValueError(f"line {line_no}: bad price {token!r}") from exc
    if not price > 0 or not np.isfinite(price):
        raise ValueError(f"line {line_no}: non-positive price {token!r}")
    return price


def _build_market(name, rows):
    seen, prev = set(), None
    for date, _, line_no in rows:
        if date in seen:
            raise ValueError(
                f"line {line_no}: duplicate date {date.isoformat()}"
                f" for market {name!r}")
        seen.add(date)
        if prev is not None:
            if date <= prev:
                raise ValueError(
                    f"line {line_no}: dates not increasing for {name!r}"
                    f" ({date.isoformat()} after {prev.isoformat()})")
        prev = date
    return (name, [r[0] for r in rows], [r[1] for r in rows])


def reference_load(path, schema):
    """(name, dates, prices) per market, in io's market order;
    a fault is raised as '<path>: <message>'."""
    try:
        return _reference_load(path, schema)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _reference_load(path, schema):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader
                if row and not row[0].lstrip().startswith("#")]
    if not rows:
        raise ValueError("empty file")
    header_no, header = rows[0]
    body = rows[1:]
    per_market = {}
    if schema == "long":
        if len(header) < 3:
            raise ValueError(f"line {header_no}: need market,date,price header")
        if not body:
            raise ValueError("no data rows")
        for line_no, row in body:
            if len(row) != 3:
                raise ValueError(f"line {line_no}: expected 3 fields, "
                                 f"got {len(row)}")
            market = row[0].strip()
            if not market:
                raise ValueError(f"line {line_no}: empty market name")
            date = _parse_date(row[1], line_no)
            price = _parse_price(row[2], line_no)
            per_market.setdefault(market, []).append((date, price, line_no))
    else:
        names = [h.strip() for h in header[1:]]
        if not names:
            raise ValueError(f"line {header_no}: wide header needs markets")
        for column, name in enumerate(names, 2):
            if not name:
                raise ValueError(f"line {header_no}: empty market name"
                                 f" in column {column}")
            if name in names[:column - 2]:
                raise ValueError(f"line {header_no}: duplicate market"
                                 f" {name!r} in column {column}")
        if not body:
            raise ValueError("no data rows")
        for line_no, row in body:
            if len(row) != len(header):
                raise ValueError(f"line {line_no}: expected {len(header)}"
                                 f" fields, got {len(row)}")
            date = _parse_date(row[0], line_no)
            for name, token in zip(names, row[1:]):
                if token.strip() == "":
                    continue
                price = _parse_price(token, line_no)
                per_market.setdefault(name, []).append((date, price, line_no))
        for name in names:
            if name not in per_market:
                raise ValueError(f"line {header_no}: market {name!r}"
                                 " has no prices")
    return [_build_market(name, r) for name, r in per_market.items()]


def outcome(loader, text, schema):
    """('ok', markets) or ('error', message) of a loader on the text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prices.csv"
        path.write_text(text, encoding="utf-8")
        try:
            result = loader(path, schema)
        except ValueError as exc:
            return "error", str(exc).replace(str(path), "<path>")
    return "ok", result


def io_load(path, schema):
    table = io.load_price_csv(path, schema=schema)
    for m in table.markets:
        assert m.dates.dtype == np.dtype("datetime64[D]")
    return [(m.name, m.dates.tolist(), m.prices.tolist())
            for m in table.markets]


# -- random panels -------------------------------------------------------------

PAD = st.sampled_from(["", "", " ", "  "])
BAD_DATES = ["NaT", "nat", "2020-01", "2020", "today", "20200105",
             "2020-02-30", "2020-01-05T00", "0000-01-01", "10000-01-01",
             "2020-1-5", "", "2020-W01-1", "abc"]
BAD_PRICES = ["abc", "0", "-3", "0.0", "-0", "inf", "-inf", "nan", "1e999",
              "", "1,5"]
# market names that csv.writer must quote, some over two or three lines
NAMES = st.sampled_from(["M", "M", "a,b", 'say "x"', "two\nlines", "x\n\ny"])


@st.composite
def panels(draw):
    """(schema, rows) of a valid panel: ragged starts and ends, interior
    holes, padded tokens and whitespace-only cells."""
    n_markets = draw(st.integers(1, 4))
    n_days = draw(st.integers(2, 12))
    start = draw(st.integers(datetime.date(1990, 1, 1).toordinal(),
                             datetime.date(2030, 1, 1).toordinal()))
    steps = draw(st.lists(st.integers(1, 4), min_size=n_days - 1,
                          max_size=n_days - 1))
    calendar = [datetime.date.fromordinal(d)
                for d in start + np.cumsum([0] + steps)]
    names = [draw(NAMES) + str(m) for m in range(n_markets)]
    cells = [[None] * n_markets for _ in range(n_days)]
    for m in range(n_markets):
        first = draw(st.integers(0, n_days - 1))
        last = draw(st.integers(first, n_days - 1))
        for d in range(first, last + 1):
            if d in (first, last) or draw(st.integers(0, 3)):
                price = draw(st.floats(1e-3, 1e6))
                cells[d][m] = draw(PAD) + repr(price) + draw(PAD)

    def date_token(d):
        return draw(PAD) + calendar[d].isoformat() + draw(PAD)

    schema = draw(st.sampled_from(["long", "wide"]))
    if schema == "wide":
        rows = [["date"] + [draw(PAD) + n + draw(PAD) for n in names]]
        for d in range(n_days):
            rows.append([date_token(d)] + [
                c if c is not None else draw(st.sampled_from(["", " "]))
                for c in cells[d]])
    else:
        order = [(d, m) for d in range(n_days) for m in range(n_markets)]
        if draw(st.booleans()):
            order.sort(key=lambda dm: dm[1])
        rows = [["market", "date", "price"]]
        rows += [[draw(PAD) + names[m] + draw(PAD), date_token(d), cells[d][m]]
                 for d, m in order if cells[d][m] is not None]
    return schema, rows


def render(rows, draw):
    """CSV text written by csv.writer, with comment and blank lines
    scattered between rows."""
    text = textio.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    for i, row in enumerate(rows):
        if i and draw(st.integers(0, 9)) == 0:
            text.write(draw(st.sampled_from(["# note", "", "  # x,y"])) + "\n")
        writer.writerow(row)
    return text.getvalue()


def inject(schema, rows, draw):
    """Put one fault into the body rows: a bad date or price, a wrong field
    count, a repeated or decreasing date, or an empty market."""
    body = rows[1:]
    r = draw(st.integers(0, len(body) - 1))
    date_col = 1 if schema == "long" else 0
    kinds = ["date", "price", "fields", "repeat", "swap",
             "empty_market" if schema == "long" else "no_prices"]
    kind = draw(st.sampled_from(kinds))
    if kind == "date":
        body[r][date_col] = draw(st.sampled_from(BAD_DATES))
    elif kind == "price":
        cols = range(2, 3) if schema == "long" else range(1, len(rows[0]))
        body[r][draw(st.sampled_from(cols))] = draw(st.sampled_from(BAD_PRICES))
    elif kind == "fields":
        if draw(st.booleans()):
            body[r].append("1")
        else:
            body[r].pop()
    elif kind in ("repeat", "swap") and r > 0:
        other = draw(st.integers(max(r - 3, 0), r - 1))
        if kind == "repeat":
            body[r][date_col] = body[other][date_col]
            if schema == "wide":
                # wide panels are sparse: a price in one column of both
                # rows makes the repeated date a duplicate
                c = draw(st.integers(1, len(rows[0]) - 1))
                if not body[other][c].strip():
                    body[other][c] = "1"
                body[r][c] = body[other][c]
        else:
            body[r][date_col], body[other][date_col] = \
                body[other][date_col], body[r][date_col]
        if schema == "long" and draw(st.booleans()):
            body[r][0] = body[other][0]
    elif kind == "empty_market":
        body[r][0] = " "
    elif kind == "no_prices":
        col = draw(st.integers(1, len(rows[0]) - 1))
        for row in body:
            row[col] = draw(st.sampled_from(["", "  "]))
    return rows


def check_round_trip(draw):
    schema, rows = draw(panels())
    text = render(rows, draw)
    got = outcome(io_load, text, schema)
    assert got == outcome(reference_load, text, schema)
    assert got[0] == "ok"


def check_single_fault(draw):
    schema, rows = draw(panels())
    rows = inject(schema, rows, draw)
    text = render(rows, draw)
    assert outcome(io_load, text, schema) == \
        outcome(reference_load, text, schema)


def check_two_faults(draw):
    schema, rows = draw(panels())
    rows = inject(schema, rows, draw)
    try:
        rows = inject(schema, rows, draw)
    except IndexError:
        # the second fault indexed a cell of a row the first one shortened
        assume(False)
    text = render(rows, draw)
    assert outcome(io_load, text, schema) == \
        outcome(reference_load, text, schema)


# a long run of good rows before a fault: the per-market arrays grow many
# times before the fault is met, and its line number has five digits
MANY_ROWS = 16384


def day(i):
    """The ISO date i days after 2020-01-01."""
    return (datetime.date(2020, 1, 1) + datetime.timedelta(i)).isoformat()


class TestBulkParserOracle:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_valid_panels_round_trip(self, data):
        check_round_trip(data.draw)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_single_fault_same_message(self, data):
        check_single_fault(data.draw)

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_two_faults_same_message(self, data):
        check_two_faults(data.draw)

    @pytest.mark.parametrize("rows", [3, 6, MANY_ROWS])
    def test_later_row_fault_beats_earlier_date_order(self, rows):
        # line 3 goes back in time for A, but a market's date-order fault
        # is reported only after every row has passed, so the bad price
        # after `rows` good rows of B is the reported fault
        text = ("market,date,price\nA,2020-01-02,1\nA,2020-01-01,2\n# note\n"
                + "".join(f"B,{day(i)},3\n" for i in range(rows))
                + f"B,{day(rows)},x\n")
        want = ("error", f"<path>: line {5 + rows}: bad price 'x'")
        assert outcome(reference_load, text, "long") == want
        assert outcome(io_load, text, "long") == want

    def test_numpy_only_date_forms_rejected(self):
        # numpy reads these as dates; date.fromisoformat does not
        for token in ["NaT", "2020-01", "2020", "today", "2020-01-05T00",
                      "0000-01-01", "10000-01-01"]:
            text = f"market,date,price\nA,2020-01-01,1\nA,{token},2\n"
            assert outcome(io_load, text, "long") == \
                ("error", f"<path>: line 3: bad date {token!r}")

    def test_basic_iso_date_is_the_date_not_a_year(self):
        # numpy would read 20200105 as the year 20200105; fromisoformat
        # reads it as 2020-01-05 where it accepts the basic format
        text = "date,A\n2020-01-04,1\n20200105,2\n"
        want = outcome(reference_load, text, "wide")
        assert outcome(io_load, text, "wide") == want
        if want[0] == "ok":
            assert want[1][0][1][1] == datetime.date(2020, 1, 5)

    @pytest.mark.parametrize("header,want", [
        ("date,,B", "<path>: line 1: empty market name in column 2"),
        ("date,A, ", "<path>: line 1: empty market name in column 3"),
        ("date,A,A", "<path>: line 1: duplicate market 'A' in column 3"),
        ("date,A,B, A", "<path>: line 1: duplicate market 'A' in column 4")],
        ids=["blank", "blank-last", "repeat", "repeat-padded"])
    def test_wide_header_fault_names_the_column(self, header, want):
        # a blank or repeated name would load a market named '' or merge
        # two columns into one market, so it fails before any data row
        width = header.count(",")
        text = header + "\n" + "".join(
            f"2020-01-0{d},{','.join(['1'] * width)}\n" for d in (1, 2))
        assert outcome(reference_load, text, "wide") == ("error", want)
        assert outcome(io_load, text, "wide") == ("error", want)

    def test_first_fault_in_file_order_wins(self):
        # a bad price on line 3 precedes a bad date on line 4 and the
        # wrong field count on line 5, whatever the check order
        text = ("date,A,B\n2020-01-01,1,2\n2020-01-02,1,-2\n"
                "2020-13-01,1,2\n2020-01-04,1\n")
        assert outcome(io_load, text, "wide") == \
            ("error", "<path>: line 3: non-positive price '-2'")

    @pytest.mark.parametrize("last,want", [
        ("{next},abc", "bad price 'abc'"),
        ("2020-13-01,3", "bad date '2020-13-01'"),
        ("{next}", "expected 3 fields, got 2"),
        ("2020-01-02,3", "duplicate date 2020-01-02 for market 'B\\nInc'")],
        ids=["price", "date", "fields", "duplicate"])
    @pytest.mark.parametrize("rows", [3, MANY_ROWS])
    def test_two_line_name_counts_both_lines(self, last, want, rows):
        # each record's quoted name spans two lines, so the record after
        # `rows` good ones ends on line 1 + 2 * (rows + 1), not on line
        # rows + 2
        text = ('market,date,price\n'
                + "".join(f'"B\nInc",{day(i)},1\n' for i in range(rows))
                + '"B\nInc",' + last.format(next=day(rows)) + "\n")
        want = ("error", f"<path>: line {3 + 2 * rows}: {want}")
        assert outcome(reference_load, text, "long") == want
        assert outcome(io_load, text, "long") == want

    @pytest.mark.parametrize("header,want", [
        ('date,"A\nB",C', "line 4: bad price 'x'"),
        ('date,"A\nB","A\nB"',
         "line 3: duplicate market 'A\\nB' in column 3")],
        ids=["data-line", "header-line"])
    def test_two_line_wide_header_name_counts_both_lines(self, header, want):
        # the header ends on the line of its last name's closing quote
        text = header + "\n2020-01-01,1,2\n2020-01-02,1,x\n"
        assert outcome(reference_load, text, "wide") == ("error",
                                                         "<path>: " + want)
        assert outcome(io_load, text, "wide") == ("error", "<path>: " + want)


class TestLongRowShortcuts:
    """The long loader's flattened per-row work against the reference:
    padded names of markets that interleave by day, a first field tested
    for '#' before it is stripped, and the check order of a row."""

    def test_interleaved_padded_names(self):
        # the raw token changes on every row; each name recurs
        tokens = ["A", "B", " A", "B", "A ", " B "]
        text = "market,date,price\n" + "".join(
            f"{t},{day(i // 2)},{i + 1}\n" for i, t in enumerate(tokens))
        text += f"A,{day(3)},7\nA,{day(4)},8\n"
        want = outcome(reference_load, text, "long")
        assert outcome(io_load, text, "long") == want
        assert [(name, prices) for name, _, prices in want[1]] == [
            ("A", [1.0, 3.0, 5.0, 7.0, 8.0]), ("B", [2.0, 4.0, 6.0])]

    def test_interleaved_padded_name_repeats_a_date(self):
        text = ("market,date,price\nA,2020-01-01,1\nB,2020-01-01,2\n"
                " A,2020-01-02,3\nB,2020-01-02,4\nA ,2020-01-02,5\n")
        want = ("error", "<path>: line 6: duplicate date 2020-01-02"
                " for market 'A'")
        assert outcome(reference_load, text, "long") == want
        assert outcome(io_load, text, "long") == want

    @pytest.mark.parametrize("first, want", [
        ("A#1", ["A#1", "B"]),          # a '#' past the start is data
        ("  # x", ["B"])],              # a padded '#' opens a comment
        ids=["hash-in-name", "padded-comment"])
    def test_hash_in_the_first_field(self, first, want):
        text = (f"market,date,price\n{first},2020-01-01,1\n"
                f"{first},2020-01-02,2\nB,2020-01-01,3\nB,2020-01-02,4\n")
        got = outcome(io_load, text, "long")
        assert got == outcome(reference_load, text, "long")
        assert [name for name, _, _ in got[1]] == want

    def test_empty_name_reported_before_bad_date(self):
        text = "market,date,price\nA,2020-01-01,1\n  ,2020-13-01,2\n"
        want = ("error", "<path>: line 3: empty market name")
        assert outcome(reference_load, text, "long") == want
        assert outcome(io_load, text, "long") == want
