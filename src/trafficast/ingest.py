"""Packet-trace loading and conversion to packet-rate series.

CSV formats
-----------
Packet trace: header ``time,protocol``, one row per packet, time in float
seconds since capture start.

Value series: optional ``# key=value`` comment lines (``dt``, ``origin``,
``scale_mean``, ``scale_std`` and ``log1p`` are honoured, absent keys take
the :class:`TimeSeries` defaults), then a ``value`` header and one float
per row.  ``write_series_csv`` emits every key and the values with
``repr`` so a written series reloads bit-exactly.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator, Union

import numpy as np

from .errors import ParseError, ValidationError
from .series import TimeSeries

Source = Union[str, Path, IO[str]]

_KNOWN_PROTOCOLS = ("TCP", "UDP")

# Comment keys of a value series CSV and how each value is parsed.
_METADATA = {
    "dt": float,
    "origin": float,
    "scale_mean": float,
    "scale_std": float,
    "log1p": lambda text: {"true": True, "false": False}[text.lower()],
}


@dataclass(frozen=True)
class PacketTrace:
    """Per-packet capture timestamps with a coarse protocol tag.

    Timestamps are seconds since capture start, sorted nondecreasing;
    tags are ``TCP``, ``UDP`` or ``other``.
    """

    timestamps: np.ndarray
    protocols: tuple[str, ...]

    def __post_init__(self):
        ts = np.array(self.timestamps, dtype=float)
        if ts.ndim != 1:
            raise ValidationError("timestamps must be one-dimensional")
        if ts.size != len(self.protocols):
            raise ValidationError("timestamps and protocols must align")
        if ts.size and ts[0] < 0:
            raise ValidationError("timestamps must be nonnegative")
        if np.any(np.diff(ts) < 0):
            raise ValidationError("timestamps must be sorted nondecreasing")
        ts.flags.writeable = False
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "protocols", tuple(self.protocols))

    def __len__(self) -> int:
        return int(self.timestamps.size)


def _open_text(source: Source) -> tuple[IO[str], bool]:
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline=""), True
    return source, False


def _canonical_protocol(raw: str) -> str:
    tag = raw.strip().upper()
    return tag if tag in _KNOWN_PROTOCOLS else "other"


def load_packet_trace(
    source: Source,
    fmt: str = "timestamp-csv",
    filter_protocols: bool = True,
) -> PacketTrace:
    """Load a packet trace from a ``time,protocol`` CSV.

    Rows with protocols other than TCP/UDP are dropped unless
    ``filter_protocols`` is False.  Timestamps are sorted on load.
    """
    if fmt != "timestamp-csv":
        raise ValidationError(f"unknown packet trace format {fmt!r}")
    stream, owned = _open_text(source)
    try:
        reader = csv.DictReader(stream)
        if reader.fieldnames is None:
            raise ParseError("missing header row", line=1)
        fields = [f.strip().lower() for f in reader.fieldnames]
        if "time" not in fields or "protocol" not in fields:
            raise ParseError(
                f"header must contain 'time' and 'protocol', got {reader.fieldnames}",
                line=1,
            )
        t_col = reader.fieldnames[fields.index("time")]
        p_col = reader.fieldnames[fields.index("protocol")]

        times: list[float] = []
        protos: list[str] = []
        for row in reader:
            line = reader.line_num
            raw_t, raw_p = row.get(t_col), row.get(p_col)
            if raw_t is None or raw_p is None:
                raise ParseError("row has fewer columns than the header", line=line)
            try:
                t = float(raw_t)
            except ValueError:
                raise ParseError(f"invalid time value {raw_t!r}", line=line) from None
            if not math.isfinite(t):
                raise ParseError(f"non-finite time value {raw_t!r}", line=line)
            if t < 0:
                raise ValidationError(f"negative timestamp {t} at line {line}")
            tag = _canonical_protocol(raw_p)
            if filter_protocols and tag == "other":
                continue
            times.append(t)
            protos.append(tag)
    finally:
        if owned:
            stream.close()

    order = np.argsort(np.asarray(times), kind="stable") if times else []
    return PacketTrace(
        timestamps=np.asarray(times, dtype=float)[order] if len(times) else np.empty(0),
        protocols=tuple(protos[i] for i in order),
    )


def bin_to_rate(trace: PacketTrace, bin_width: float = 1.0) -> TimeSeries:
    """Count packets per ``bin_width``-second bin, keeping the last partial bin.

    Bin ``i`` covers ``[i*w, (i+1)*w)``; the output length is the number of
    bins needed to cover the last timestamp, so the bin counts always sum
    to the packet count.
    """
    if not bin_width > 0:
        raise ValidationError(f"bin_width must be positive, got {bin_width}")
    if len(trace) == 0:
        raise ValidationError("cannot bin an empty trace: no capture duration")
    idx = np.floor(trace.timestamps / bin_width).astype(int)
    n_bins = int(idx[-1]) + 1
    counts = np.bincount(idx, minlength=n_bins).astype(float)
    return TimeSeries(values=counts, dt=float(bin_width), origin=0.0)


def _iter_lines(stream: IO[str]) -> Iterator[tuple[int, str]]:
    for i, raw in enumerate(stream, start=1):
        yield i, raw.rstrip("\n").rstrip("\r")


def load_series_csv(source: Source) -> TimeSeries:
    """Load a value series CSV; ``# key=value`` comments set the metadata."""
    stream, owned = _open_text(source)
    metadata: dict[str, float | bool] = {}
    values: list[float] = []
    header_seen = False
    value_idx = 0
    try:
        for line, text in _iter_lines(stream):
            if not text.strip():
                continue
            if text.lstrip().startswith("#"):
                body = text.lstrip()[1:].strip()
                if "=" in body:
                    key, _, val = body.partition("=")
                    key, val = key.strip().lower(), val.strip()
                    if key in _METADATA:
                        try:
                            metadata[key] = _METADATA[key](val)
                        except (KeyError, ValueError):
                            raise ParseError(
                                f"invalid {key} metadata {val!r}", line=line
                            ) from None
                continue
            cells = [c.strip() for c in text.split(",")]
            if not header_seen:
                lowered = [c.lower() for c in cells]
                if "value" not in lowered:
                    raise ParseError(
                        f"header must contain a 'value' column, got {cells}", line=line
                    )
                value_idx = lowered.index("value")
                header_seen = True
                continue
            if value_idx >= len(cells):
                raise ParseError("row has fewer columns than the header", line=line)
            try:
                values.append(float(cells[value_idx]))
            except ValueError:
                raise ParseError(
                    f"invalid value {cells[value_idx]!r}", line=line
                ) from None
    finally:
        if owned:
            stream.close()
    if not header_seen:
        raise ParseError("missing header row", line=1)
    if not values:
        raise ParseError("empty series: no value rows after header")
    return TimeSeries(values=np.asarray(values), **metadata)


def write_series_csv(series: TimeSeries, dest: Source) -> None:
    """Write a series CSV that ``load_series_csv`` reloads bit-exactly."""
    stream, owned = (
        (open(dest, "w", encoding="utf-8", newline=""), True)
        if isinstance(dest, (str, Path))
        else (dest, False)
    )
    try:
        stream.write(f"# dt={series.dt!r}\n")
        stream.write(f"# origin={series.origin!r}\n")
        stream.write(f"# scale_mean={series.scale_mean!r}\n")
        stream.write(f"# scale_std={series.scale_std!r}\n")
        stream.write(f"# log1p={series.log1p}\n")
        stream.write("value\n")
        for v in series.values:
            stream.write(f"{float(v)!r}\n")
    finally:
        if owned:
            stream.close()


def series_csv_text(series: TimeSeries) -> str:
    """Render a series to CSV text (same format as ``write_series_csv``)."""
    buf = io.StringIO()
    write_series_csv(series, buf)
    return buf.getvalue()
