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
from dataclasses import dataclass, field
from itertools import compress, islice, repeat
from operator import attrgetter, itemgetter, methodcaller
from pathlib import Path

import numpy as np

_BLOCK_FIELDS = 2 ** 12      # CSV fields parsed per block
_MAX_LINE = np.iinfo(np.int32).max   # per-cell line numbers are int32
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


def _parse_dates(tokens: list[str], known: dict) -> np.ndarray | None:
    """Days of the stripped tokens, or None if date.fromisoformat rejects
    one.  `known` maps tokens parsed before to their day numbers and gains
    this call's new tokens, so each distinct token is parsed once."""
    stripped = list(map(str.strip, tokens))
    try:
        for token in dict.fromkeys(stripped):
            if token not in known:
                known[token] = (datetime.date.fromisoformat(token)
                                .toordinal() - _EPOCH)
    except ValueError:
        return None
    return np.fromiter(map(known.__getitem__, stripped), np.int64,
                       len(stripped)).view("datetime64[D]")


def _row_fault(row: list[str], schema: str, width: int) -> str | None:
    """The first fault of one data row, in the order the checks run."""
    if len(row) != width:
        return f"expected {width} fields, got {len(row)}"
    if schema == "long" and not row[0].strip():
        return "empty market name"
    date, tokens = (row[1], row[2:]) if schema == "long" else (row[0], row[1:])
    if _parse_dates([date], {}) is None:
        return f"bad date {date!r}"
    for token in tokens:
        if schema == "long" or token.strip():
            try:
                price = float(token)
            except ValueError:
                return f"bad price {token!r}"
            if not 0 < price < math.inf:
                return f"non-positive price {token!r}"
    return None


def _group_markets(names: list[str], cells: list) -> list:
    """Cells grouped by market in order of first price, file order within,
    with each market's dates checked at its first duplicate or decrease.
    `cells` holds the day, price, code and line arrays of every cell; it
    is emptied, so each unsorted array is freed as its sorted copy is made."""
    days, prices, codes, lines = cells
    cells.clear()
    first = np.unique(codes, return_index=True)[1]     # per market code
    by_first = np.argsort(first)
    order = np.argsort(first[codes], kind="stable")
    bounds = np.append(0, np.cumsum(np.bincount(codes)[by_first]))
    days = days[order]
    prices = prices[order]
    lines = lines[order]
    ordinals = days.view(np.int64)
    step = np.diff(ordinals)
    step[bounds[1:-1] - 1] = 1          # no check across two markets
    bad = np.flatnonzero(step <= 0)
    if bad.size:
        j = int(bad[0]) + 1
        m = np.searchsorted(bounds, j, side="right") - 1
        name, date = names[by_first[m]], days[j].item().isoformat()
        if (days[bounds[m]:j] == days[j]).any():
            raise ValueError(f"line {lines[j]}: duplicate date {date}"
                             f" for market {name!r}")
        raise ValueError(f"line {lines[j]}: dates not increasing for {name!r}"
                         f" ({date} after {days[j - 1].item().isoformat()})")
    return [MarketSeries(name=names[c], dates=days[lo:hi],
                         prices=prices[lo:hi])
            for c, lo, hi in zip(by_first, bounds[:-1], bounds[1:])]


def _blocks(reader, size: int):
    """(line numbers, rows) of the data records, blank and comment ones
    left out, in each run of `size` records of a csv.reader.  A record's
    line is the one it ends on (reader.line_num once it is read); the
    numbers are int32, and a line past 2**31 - 1 is a ValueError."""
    comment, lines = methodcaller("startswith", "#"), []
    # zip reads a record, then appends reader.line_num to lines, all in C
    records = map(itemgetter(0), zip(reader, map(lines.append, map(
        attrgetter("line_num"), repeat(reader)))))
    while chunk := list(islice(records, size)):
        # a blank record has no first field; "#" stands in for it
        firsts = map(next, map(iter, chunk), repeat("#"))
        keep = ~np.fromiter(map(comment, map(str.lstrip, firsts)), bool,
                            len(chunk))
        if lines[-1] > _MAX_LINE:
            raise ValueError(f"line {lines[-1]}: more than {_MAX_LINE} lines")
        if chunk := list(compress(chunk, keep)):
            yield np.array(lines, np.int32)[keep], chunk
        del chunk, lines[:]             # before more records are read


def _block_cells(body: list, schema: str, width: int, known: dict):
    """Day and price of every price cell of a block of data records, with
    its row and its market label (long: the name, wide: the column), or
    None if a check fails for some row of the block."""
    if any(map(width.__ne__, map(len, body))):
        return None
    if schema == "long":
        names, dates, tokens = map(list, zip(*body))
        labels = list(map(str.strip, names))
        if "" in labels:
            return None
        cell_rows = np.arange(len(body))
    else:
        dates = [row[0] for row in body]
        cells = [token for row in body for token in row[1:]]
        filled = np.flatnonzero(np.fromiter(
            map(bool, map(str.strip, cells)), bool, len(cells)))
        tokens = [cells[i] for i in filled]
        cell_rows, labels = np.divmod(filled, width - 1)
    days = _parse_dates(dates, known)
    try:
        prices = np.fromiter(map(float, tokens), np.float64, len(tokens))
    except ValueError:
        return None
    if days is None or not ((prices > 0) & (prices < math.inf)).all():
        return None
    return days[cell_rows], prices, cell_rows, labels


def _parse_block(lines: np.ndarray, body: list, schema: str, width: int,
                 index: dict, known: dict) -> tuple:
    """Day, price, market code and line of every price cell of a block of
    data records; raises on the block's first faulty row.  A long-format
    market seen for the first time gets the next code in `index`, and a
    new date token its day in `known`, each under a copy of the token; a
    wide-format market's code is its price column."""
    cells = _block_cells(body, schema, width, known)
    if cells is None:
        for line, row in zip(lines, body):
            if fault := _row_fault(row, schema, width):
                raise ValueError(f"line {line}: {fault}")
        raise RuntimeError(f"lines {lines[0]}-{lines[-1]} failed a block "
                           "check that no single row fails")
    days, prices, cell_rows, labels = cells
    if schema == "long":
        for name in dict.fromkeys(labels):
            if name not in index:
                index[name] = len(index)
        codes = np.fromiter(map(index.__getitem__, labels), np.int32,
                            len(labels))
    else:
        codes = labels.astype(np.int32)
    return days, prices, codes, lines[cell_rows]


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

    Wide format has a date column followed by one price column per
    market, each named once and not blank; empty cells are allowed
    (ragged starts, gaps) and recorded per market as missing calendar
    days.  Malformed rows, duplicate dates and non-positive prices are
    rejected as '<file>: line <n>: <fault>'; the first offending line, in
    file order, is the one reported.

    The records are parsed in blocks of about _BLOCK_FIELDS fields, each
    turned into day, price, code and line arrays before the next is read,
    so the CSV's strings never all live at once.
    """
    if schema not in ("long", "wide"):
        raise ValueError("schema must be 'long' or 'wide'")
    with _csv_reader(path) as reader:
        head = next(_blocks(reader, 1), None)
        if head is None:
            raise ValueError("empty file")
        (header_no,), (header,) = head
        width = 3 if schema == "long" else len(header)
        index: dict[str, int] = {}
        if schema == "long" and len(header) < 3:
            raise ValueError(f"line {header_no}: need market,date,price header")
        if schema == "wide":
            if len(header) < 2:
                raise ValueError(f"line {header_no}: wide header needs markets")
            for column, name in enumerate(map(str.strip, header[1:]), 2):
                if not name or name in index:
                    fault = (f"duplicate market {name!r}" if name
                             else "empty market name")
                    raise ValueError(
                        f"line {header_no}: {fault} in column {column}")
                index[name] = len(index)
        parsed, known = [], {}
        for block in _blocks(reader, max(1, _BLOCK_FIELDS // width)):
            parsed.append(_parse_block(*block, schema, width, index, known))
            del block                   # its records go before more are read
        if not parsed:
            raise ValueError("no data rows")
        pieces = list(map(list, zip(*parsed)))  # day, price, code, line
        del parsed
        cells = []
        while pieces:       # a column's pieces go as soon as it is joined
            cells.append(np.concatenate(pieces.pop(0)))
        counts = np.bincount(cells[2], minlength=len(index))   # codes
        names = list(index)
        if not counts.all():
            raise ValueError(f"line {header_no}: market "
                             f"{names[counts.argmin()]!r} has no prices")
        return PriceTable(markets=_group_markets(names, cells))


def load_variance_csv(path) -> list[tuple[float, float]]:
    """(k, variance) of each data row of a CSV with a 'k' and a 'variance'
    (else 'variance_tilde') column, such as analyze's variance_by_scale.csv;
    a row shorter than the header or a cell that is not a number is
    rejected as '<file>: line <n>: <fault>'."""
    with _csv_reader(path) as reader:
        records = [record for block in _blocks(reader, _BLOCK_FIELDS)
                   for record in zip(*block)]
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


def write_csv(path, columns: list[str], rows, provenance: dict) -> None:
    lines = ["# provenance: " + json.dumps(provenance, sort_keys=True)]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(format_float(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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
