"""Price-table ingestion and provenance-stamped file output.

CSV conventions: UTF-8, comma separated, '.' decimal, floats rendered by
shortest round-trip repr.  Output files start with '# provenance: {...}'
carrying input hashes, the master seed and the package version, so a
rerun with identical inputs is byte-identical (no timestamps anywhere).
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import json
import math
from dataclasses import dataclass, field
from itertools import compress, islice, repeat
from operator import methodcaller
from pathlib import Path

import numpy as np

_BLOCK_FIELDS = 2 ** 14      # CSV fields parsed per block


@dataclass(frozen=True)
class MarketSeries:
    """One market's dated price history; dates strictly increasing."""
    name: str
    dates: np.ndarray        # datetime64[D]
    prices: np.ndarray
    gap_days: int = 0

    def __len__(self) -> int:
        return len(self.prices)


@dataclass(frozen=True)
class PriceTable:
    markets: list[MarketSeries] = field(default_factory=list)

    def names(self) -> list[str]:
        return [m.name for m in self.markets]

    def __getitem__(self, name: str) -> MarketSeries:
        for m in self.markets:
            if m.name == name:
                return m
        raise KeyError(name)


def _copy(text: str) -> str:
    """An equal str of its own, which keeps no CSV record's memory alive."""
    return text.encode().decode()


def _parse_dates(tokens: list[str], known: dict) -> tuple[np.ndarray, int]:
    """Days of the stripped tokens and the index of the first bad one
    (len(tokens) if none): exactly the dates date.fromisoformat accepts.
    `known` maps tokens parsed before to their day numbers and gains this
    call's tokens when none is bad, so each distinct token is parsed once.

    numpy parses the new distinct tokens, but it also reads 'NaT', 'today',
    '2020-01' and '20200105' (as a year), so a day that does not print
    back as its token, or lies outside years 1-9999, goes to fromisoformat.
    """
    stripped = list(map(str.strip, tokens))
    distinct = [token for token in dict.fromkeys(stripped)
                if token not in known]
    try:
        days = np.array(distinct, dtype=str).astype("datetime64[D]")
        printed = np.datetime_as_string(days).tolist()
        suspect = ~((days >= np.datetime64("0001-01-01"))
                    & (days <= np.datetime64("9999-12-31"))) | np.fromiter(
            map(str.__ne__, printed, distinct), bool, len(distinct))
    except ValueError:
        days = np.empty(len(distinct), dtype="datetime64[D]")
        suspect = np.ones(len(distinct), dtype=bool)
    for i in np.flatnonzero(suspect):
        try:
            days[i] = datetime.date.fromisoformat(distinct[i])
        except ValueError:
            return days, stripped.index(distinct[i])
    known.update(zip(map(_copy, distinct), days.astype(np.int64).tolist()))
    return np.fromiter(map(known.__getitem__, stripped), np.int64,
                       len(stripped)).view("datetime64[D]"), len(tokens)


def _price(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        return math.nan


def _row_fault(row: list[str], schema: str, width: int) -> str | None:
    """The first fault of one data row, in the order the checks run."""
    if len(row) != width:
        return f"expected {width} fields, got {len(row)}"
    if schema == "long" and not row[0].strip():
        return "empty market name"
    date, tokens = (row[1], row[2:]) if schema == "long" else (row[0], row[1:])
    if _parse_dates([date], {})[1] == 0:
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


def _group_markets(names: list[str], codes: np.ndarray, days: np.ndarray,
                   prices: np.ndarray, lines: np.ndarray) -> list:
    """Cells grouped by market in order of first price, file order within,
    with each market's dates checked at its first duplicate or decrease."""
    first = np.unique(codes, return_index=True)[1]     # per market code
    by_first = np.argsort(first)
    order = np.argsort(first[codes], kind="stable")
    days, prices, lines = days[order], prices[order], lines[order]
    bounds = np.append(0, np.cumsum(np.bincount(codes)[by_first]))
    ordinals = days.astype(np.int64)
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
    gaps = ordinals[bounds[1:] - 1] - ordinals[bounds[:-1]] - np.diff(bounds) + 1
    return [MarketSeries(name=names[c], dates=days[lo:hi],
                         prices=prices[lo:hi], gap_days=int(gap))
            for c, lo, hi, gap in zip(by_first, bounds[:-1], bounds[1:], gaps)]


def _blocks(reader, size: int, start: int):
    """(line numbers, rows) of the data records in each run of `size`
    records of a csv.reader, the first of them record `start`; blank and
    comment records are left out."""
    comment = methodcaller("startswith", "#")
    while chunk := list(islice(reader, size)):
        lines = np.arange(start, start + len(chunk))
        start += len(chunk)
        # a blank record has no first field; "#" stands in for it
        firsts = map(next, map(iter, chunk), repeat("#"))
        skip = np.fromiter(map(comment, map(str.lstrip, firsts)), bool,
                           len(chunk))
        if skip.any():
            chunk, lines = list(compress(chunk, ~skip)), lines[~skip]
        if chunk:
            yield lines, chunk
        del chunk                       # before more records are read


def _parse_prices(tokens: list[str]) -> np.ndarray:
    """float(token) of every token, NaN where float rejects it."""
    try:
        return np.array(tokens, dtype=np.float64)
    except ValueError:
        return np.fromiter(map(_price, tokens), np.float64, len(tokens))


def _parse_block(lines: np.ndarray, body: list, schema: str, width: int,
                 index: dict, column_codes: np.ndarray,
                 known: dict) -> tuple:
    """Day, price, market code and line of every price cell of a block of
    data records; raises on the block's first faulty row.  A long-format
    market seen for the first time gets the next code in `index`, and a
    new date token its day in `known`, each under a copy of the token."""
    short = np.flatnonzero(np.fromiter(map(len, body), np.int64,
                                       len(body)) != width)
    n_ok = int(short[0]) if short.size else len(body)
    rows = body[:n_ok]
    # a cell is one price: its row, and its market label (row or column)
    if schema == "long":
        names, dates, tokens = map(list, zip(*rows)) if rows else ([],) * 3
        labels = list(map(str.strip, names))
        unnamed = [labels.index("")] if "" in labels else []
        cell_rows = np.arange(n_ok)
    else:
        unnamed = []
        dates = [row[0] for row in rows]
        cells = [token for row in rows for token in row[1:]]
        filled = np.flatnonzero(np.fromiter(
            map(bool, map(str.strip, cells)), bool, len(cells)))
        tokens = [cells[i] for i in filled]
        cell_rows, cell_columns = np.divmod(filled, width - 1)
    days, bad_date = _parse_dates(dates, known)
    prices = _parse_prices(tokens)
    bad_price = cell_rows[~(prices > 0) | ~np.isfinite(prices)]
    first = min([n_ok, bad_date, *bad_price[:1], *unnamed])
    if first < len(body):
        raise ValueError(f"line {lines[first]}: "
                         f"{_row_fault(body[first], schema, width)}")
    if schema == "long":
        for name in dict.fromkeys(labels):
            if name not in index:
                index[_copy(name)] = len(index)
        codes = np.fromiter(map(index.__getitem__, labels), np.int64, n_ok)
    else:
        codes = column_codes[cell_columns]
    return days[cell_rows], prices, codes, lines[cell_rows]


def load_price_csv(path, schema: str = "long") -> PriceTable:
    """Load a price CSV in long (market,date,price) or wide format.

    Wide format has a date column followed by one price column per
    market; empty cells are allowed (ragged starts, gaps) and recorded
    per market as missing calendar days.  Malformed rows, duplicate
    dates and non-positive prices are rejected with their line numbers;
    the first offending line, in file order, is the one reported.

    The records are parsed in blocks of about _BLOCK_FIELDS fields, each
    turned into day, price, code and line arrays before the next is read,
    so the CSV's strings never all live at once.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        head = next(_blocks(reader, 1, 1), None)
        if head is None:
            raise ValueError(f"{path}: empty file")
        (header_no,), (header,) = head
        width = 3 if schema == "long" else len(header)
        blocks = _blocks(reader, max(1, _BLOCK_FIELDS // width),
                         header_no + 1)
        block = next(blocks, None)
        if block is None:
            raise ValueError(f"{path}: no data rows")
        if schema == "long":
            if len(header) < 3:
                raise ValueError(
                    f"line {header_no}: need market,date,price header")
        elif schema == "wide":
            if len(header) < 2:
                raise ValueError(f"line {header_no}: wide header needs markets")
        else:
            raise ValueError("schema must be 'long' or 'wide'")
        index: dict[str, int] = {}
        column_codes = np.array(
            [index.setdefault(_copy(h.strip()), len(index))
             for h in header[1:]] if schema == "wide" else [], dtype=np.int64)
        parsed, known = [], {}
        while block is not None:
            parsed.append(_parse_block(*block, schema, width, index,
                                       column_codes, known))
            del block                   # its records go before more are read
            block = next(blocks, None)
    days, prices, codes, lines = map(np.concatenate, zip(*parsed))
    del parsed
    names = list(index)
    for name, count in zip(names, np.bincount(codes, minlength=len(names))):
        if not count:
            raise ValueError(f"market {name!r} has no prices")
    return PriceTable(markets=_group_markets(names, codes, days, prices,
                                             lines))


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


def read_csv_rows(path) -> tuple[list[str], list[list[str]]]:
    """Read a CSV written by write_csv, skipping provenance comments.

    A row with fewer fields than the header is rejected by its line.
    """
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].lstrip().startswith("#"):
                continue
            if rows and len(row) < len(rows[0]):
                raise ValueError(f"{path}: line {reader.line_num}: expected "
                                 f"{len(rows[0])} fields, got {len(row)}")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: empty file")
    return rows[0], rows[1:]
