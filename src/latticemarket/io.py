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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class MarketSeries:
    """One market's dated price history; dates strictly increasing."""
    name: str
    dates: list[datetime.date]
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


def _parse_date(token: str, line_no: int) -> datetime.date:
    try:
        return datetime.date.fromisoformat(token.strip())
    except ValueError as exc:
        raise ValueError(f"line {line_no}: bad date {token!r}") from exc


def _parse_price(token: str, line_no: int) -> float:
    try:
        price = float(token)
    except ValueError as exc:
        raise ValueError(f"line {line_no}: bad price {token!r}") from exc
    if not price > 0 or not np.isfinite(price):
        raise ValueError(f"line {line_no}: non-positive price {token!r}")
    return price


def _build_market(name: str, rows: list[tuple[datetime.date, float, int]]
                  ) -> MarketSeries:
    seen: dict[datetime.date, int] = {}
    gaps = 0
    prev: datetime.date | None = None
    for date, _, line_no in rows:
        if date in seen:
            raise ValueError(
                f"line {line_no}: duplicate date {date.isoformat()}"
                f" for market {name!r}")
        seen[date] = line_no
        if prev is not None:
            if date <= prev:
                raise ValueError(
                    f"line {line_no}: dates not increasing for {name!r}"
                    f" ({date.isoformat()} after {prev.isoformat()})")
            gaps += (date - prev).days - 1
        prev = date
    return MarketSeries(name=name, dates=[r[0] for r in rows],
                        prices=np.array([r[1] for r in rows]), gap_days=gaps)


def load_price_csv(path, schema: str = "long") -> PriceTable:
    """Load a price CSV in long (market,date,price) or wide format.

    Wide format has a date column followed by one price column per
    market; empty cells are allowed (ragged starts, gaps) and recorded
    per market as missing calendar days.  Malformed rows, duplicate
    dates and non-positive prices are rejected with their line numbers.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [(i + 1, row) for i, row in enumerate(csv.reader(fh))
                if row and not row[0].lstrip().startswith("#")]
    if not rows:
        raise ValueError(f"{path}: empty file")
    header_no, header = rows[0]
    body = rows[1:]
    if not body:
        raise ValueError(f"{path}: no data rows")
    per_market: dict[str, list[tuple[datetime.date, float, int]]] = {}
    if schema == "long":
        if len(header) < 3:
            raise ValueError(f"line {header_no}: need market,date,price header")
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
    elif schema == "wide":
        names = [h.strip() for h in header[1:]]
        if not names:
            raise ValueError(f"line {header_no}: wide header needs markets")
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
                raise ValueError(f"market {name!r} has no prices")
    else:
        raise ValueError("schema must be 'long' or 'wide'")
    markets = [_build_market(name, rows_) for name, rows_
               in per_market.items()]
    return PriceTable(markets=markets)


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
    """Read a CSV written by write_csv, skipping provenance comments."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh)
                if row and not row[0].lstrip().startswith("#")]
    if not rows:
        raise ValueError(f"{path}: empty file")
    return rows[0], rows[1:]


def write_trend_csv(trend, path, provenance: dict) -> None:
    """Export a trend series as (t, phi) with a weight descriptor sidecar."""
    rows = [(t, v) for t, v in enumerate(trend.values)]
    write_csv(path, ["t", "phi"], rows, provenance)
    descriptor = {"kind": trend.kind, "horizon": trend.horizon,
                  "warmup": trend.warmup, "weight_sum": trend.weight_sum}
    write_json(str(path) + ".json", descriptor, provenance)
