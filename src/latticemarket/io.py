"""Price and variance table ingestion and provenance-stamped file output.

CSV conventions: UTF-8 (a leading byte-order mark is skipped), comma
separated, '.' decimal, floats rendered by shortest round-trip repr.
Output files start with '# provenance: {...}' carrying input hashes, the
master seed and the package version, so a rerun with identical inputs is
byte-identical (no timestamps anywhere).
"""

from __future__ import annotations

import contextlib
import csv
import datetime
import hashlib
import json
import math
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

_EPOCH = datetime.date(1970, 1, 1).toordinal()


@dataclass(frozen=True)
class MarketSeries:
    """One market's dated price history; dates strictly increasing."""
    name: str
    dates: np.ndarray        # datetime64[D]
    prices: np.ndarray


@dataclass(frozen=True)
class PriceTable:
    markets: list[MarketSeries] = field(default_factory=list)

    def names(self) -> list[str]:
        return [m.name for m in self.markets]


def _records(reader):
    """(line, record) of each data record of a csv.reader, blank and
    comment records left out; a record's line is the one it ends on."""
    return ((reader.line_num, record) for record in reader
            if record and not record[0].lstrip().startswith("#"))


def _order_fault(reader, name: str, day: int, days: array) -> str:
    """The fault of a day not after a market's last, at the reader's line."""
    line = reader.line_num
    date, last = (datetime.date.fromordinal(d + _EPOCH).isoformat()
                  for d in (day, days[-1]))
    if day in days:
        return f"line {line}: duplicate date {date} for market {name!r}"
    return (f"line {line}: dates not increasing for {name!r}"
            f" ({date} after {last})")


@contextlib.contextmanager
def _csv_reader(path):
    """A csv.reader over a UTF-8 file, past its byte-order mark if it has
    one; a ValueError raised while it is open, or a csv.Error at
    reader.line_num, is re-raised naming the file."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            yield reader
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") \
                from None
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def load_price_csv(path, schema: str = "long") -> PriceTable:
    """Load a price CSV in long (market,date,price) or wide format.

    Wide format has a date column, then one price column per market, each
    named once and not blank; empty cells are allowed (ragged starts,
    gaps).  One pass checks each row as it is read (field count, market
    name, date, then each price) and appends each price and its day to
    its market's arrays; markets are kept in order of first price.  The
    first faulty row is reported as '<file>: line <n>: <fault>'; after
    the last row, a wide market with no prices, else the first market
    whose dates do not increase, at its first such date.
    """
    if schema not in ("long", "wide"):
        raise ValueError("schema must be 'long' or 'wide'")
    long = schema == "long"
    with _csv_reader(path) as reader:
        records = _records(reader)
        header_no, header = next(records, (0, None))
        if header is None:
            raise ValueError("empty file")
        markets: dict[str, tuple[array, array]] = {}    # name: days, prices
        unstarted = []                  # wide markets with no price yet
        if long and len(header) < 3:
            raise ValueError(f"line {header_no}: need market,date,price header")
        if not long:
            if len(header) < 2:
                raise ValueError(f"line {header_no}: wide header needs markets")
            names = list(map(str.strip, header[1:]))
            for column, name in enumerate(names, 2):
                if not name or name in names[:column - 2]:
                    what = (f"duplicate market {name!r}" if name
                            else "empty market name")
                    raise ValueError(
                        f"line {header_no}: {what} in column {column}")
            columns = [(array("q"), array("d")) for _ in names]
            unstarted = list(zip(names, columns))
        width = 3 if long else len(header)
        known: dict[str, int] = {}      # date token: day
        faults: dict[str, str] = {}     # market: its first date-order fault
        inf = math.inf
        top = -inf                      # the latest day of any earlier row
        def fault(text: str) -> ValueError:     # at the current record
            return ValueError(f"line {reader.line_num}: {text}")
        for row in reader:
            if not row or "#" in row[0] and row[0].lstrip().startswith("#"):
                continue
            if len(row) != width:
                raise fault(f"expected {width} fields, got {len(row)}")
            if long:
                raw, date, cell = row
                name = raw.strip()
                if not name:
                    raise fault("empty market name")
                if name not in markets:
                    markets[name] = (array("q"), array("d"))
                days, prices = markets[name]
            else:
                date = row[0]
            day = known.get(date)
            if day is None:
                try:
                    day = known[date] = (datetime.date.fromisoformat(
                        date.strip()).toordinal() - _EPOCH)
                except ValueError:
                    raise fault(f"bad date {date!r}") from None
            late = day <= top           # a market may hold this day already
            top = top if late else day
            if long:    # its one price, checked as a wide cell below; this
                        # copy skips the loop's setup, ~11 % of a long load
                try:
                    price = float(cell)
                except ValueError:
                    raise fault(f"bad price {cell!r}") from None
                if not 0.0 < price < inf:
                    raise fault(f"non-positive price {cell!r}")
                if late and days and day <= days[-1] and name not in faults:
                    faults[name] = _order_fault(reader, name, day, days)
                days.append(day)
                prices.append(price)
                continue
            for name, (days, prices), cell in zip(names, columns, row[1:]):
                if not cell.strip():
                    continue
                try:
                    price = float(cell)
                except ValueError:
                    raise fault(f"bad price {cell!r}") from None
                if not 0.0 < price < inf:
                    raise fault(f"non-positive price {cell!r}")
                if late and days and day <= days[-1] and name not in faults:
                    faults[name] = _order_fault(reader, name, day, days)
                days.append(day)
                prices.append(price)
            if unstarted:       # wide markets enter at their first price
                markets.update((n, a) for n, a in unstarted if a[0])
                unstarted = [(n, a) for n, a in unstarted if not a[0]]
        if not known:
            raise ValueError("no data rows")
        if unstarted:
            raise ValueError(f"line {header_no}: market "
                             f"{unstarted[0][0]!r} has no prices")
        if faults:
            raise ValueError(next(faults[n] for n in markets if n in faults))
    return PriceTable(markets=[
        MarketSeries(name=name, dates=np.frombuffer(days, "datetime64[D]"),
                     prices=np.frombuffer(prices, np.float64))
        for name, (days, prices) in markets.items()])


def load_variance_csv(path) -> list[tuple[float, float]]:
    """(k, variance) of each data row of a CSV with a 'k' and a 'variance'
    (else 'variance_tilde') column, such as analyze's variance_by_scale.csv;
    a row shorter than the header or a cell that is not a number is
    rejected as '<file>: line <n>: <fault>'."""
    with _csv_reader(path) as reader:
        records = list(_records(reader))
        if not records:
            raise ValueError("empty file")
        (_, header), *rows = records
        cols = {name.strip().lower(): i for i, name in enumerate(header)}
        if "k" not in cols:
            raise ValueError("header lacks a 'k' column")
        v_name = "variance" if "variance" in cols else "variance_tilde"
        if v_name not in cols:
            raise ValueError("header lacks a 'variance' or 'variance_tilde' "
                             "column")
        k_col, v_col = cols["k"], cols[v_name]
        points = []
        for line, row in rows:
            if len(row) < len(header):
                raise ValueError(f"line {line}: expected {len(header)} "
                                 f"fields, got {len(row)}")
            try:
                points.append((float(row[k_col]), float(row[v_col])))
            except ValueError as exc:
                raise ValueError(f"line {line}: {exc}") from None
    return points


# -- provenance-stamped output ------------------------------------------------

def sha256_of_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sha256_of_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def make_provenance(seed, inputs: dict[str, str] | None = None,
                    extra: dict | None = None) -> dict:
    from . import __version__
    prov = {"version": __version__, "seed": seed,
            "inputs": inputs or {}}
    if extra:
        prov.update(extra)
    return prov


def format_float(x) -> str:
    """Shortest round-trip decimal for floats, plain text otherwise."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


_CSV_SLICE = 1 << 10        # rows converted and written at a time


def _cells(column, a: int, b: int):
    """format_float of each of column[a:b]; a bool, integer or float
    array's through its Python scalars, whose repr (floats) or str is the
    same text."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "biuf":
        return map(repr if column.dtype.kind == "f" else str,
                   column[a:b].tolist())
    return map(format_float, column[a:b])


def write_csv(path, header: list[str], columns, provenance: dict) -> None:
    """A provenance comment, the header, then one line per row of the
    columns (arrays or other sequences), _CSV_SLICE rows at a time; columns
    that do not match the header or each other raise before any write."""
    n_rows = {len(column) for column in columns}
    if len(columns) != len(header) or len(n_rows) > 1:
        raise ValueError(f"{path}: columns do not match the header or "
                         "each other")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# provenance: " + json.dumps(provenance, sort_keys=True)
                 + "\n" + ",".join(header) + "\n")
        for a in range(0, max(n_rows, default=0), _CSV_SLICE):
            b = a + _CSV_SLICE
            fh.write("\n".join(map(",".join, zip(*(
                _cells(column, a, b) for column in columns)))) + "\n")


def _finite_or_null(obj):
    """obj with every non-finite float, however nested, replaced by None."""
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    if isinstance(obj, (float, np.floating)) and not np.isfinite(obj):
        return None
    return obj


def write_json(path, payload: dict, provenance: dict) -> None:
    """Strict RFC 8259 JSON: NaN and +-inf are written as null."""
    doc = _finite_or_null({"provenance": provenance, **payload})
    Path(path).write_text(
        json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n",
        encoding="utf-8")
