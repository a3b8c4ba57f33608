"""Bit-exact readers and writers for flow, depth, image, and tabular
artifacts.

All binary formats are little-endian regardless of host order. Readers
validate structure and raise `FormatError` on malformed input instead of
crashing or returning garbage; a file must end where its payload does.

* flow: 4-byte magic "PIEH", int32 width, int32 height, then row-major
  interleaved float32 (u, v) pairs;
* depth: grayscale PFM ("Pf", dimensions, negative scale for
  little-endian, float32 rows bottom-up);
* images: 16-bit binary PNM (P5 grayscale / P6 color, maxval 65535);
* tables: UTF-8 CSV with a header row, '.' decimal separator,
  newline-terminated.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import FormatError
from .geometry import DepthMap, FlowField, Image

FLOW_MAGIC = b"PIEH"
MAX_DIMENSION = 100_000


def _read_exact(fh, count, what):
    # checked against the file size first: the read itself would allocate
    # the count a header claims, up to 80 GB for the largest dimensions
    left = max(os.fstat(fh.fileno()).st_size - fh.tell(), 0)
    if left < count:
        raise FormatError(f"truncated file: expected {count} bytes of {what}, got {left}")
    return fh.read(count)


# ---------------------------------------------------------------------------
# flow files


def write_flow(path, flow: FlowField) -> None:
    with np.errstate(over="ignore"):  # float32 overflow is caught just below
        values = np.asarray(flow.values, dtype="<f4")
    if not np.isfinite(values).all():
        raise FormatError("flow file payload must be finite")
    H, W = values.shape[:2]
    with open(path, "wb") as fh:
        fh.write(FLOW_MAGIC)
        fh.write(np.array([W, H], dtype="<i4").tobytes())
        fh.write(values.tobytes())


def read_flow(path) -> FlowField:
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != FLOW_MAGIC:
            raise FormatError(f"bad flow magic {magic!r}")
        dims = np.frombuffer(_read_exact(fh, 8, "dimensions"), dtype="<i4")
        W, H = int(dims[0]), int(dims[1])
        if not (0 < W <= MAX_DIMENSION and 0 < H <= MAX_DIMENSION):
            raise FormatError(f"flow dimensions out of range: {W} x {H}")
        payload = _read_exact(fh, 8 * W * H, "flow payload")
        if fh.read(1):
            raise FormatError("trailing bytes after flow payload")
    values = np.frombuffer(payload, dtype="<f4").reshape(H, W, 2)
    if not np.isfinite(values).all():
        raise FormatError("flow file payload must be finite")
    return FlowField(values.astype(np.float64))


# ---------------------------------------------------------------------------
# PFM depth maps


def write_depth_pfm(path, depth: DepthMap) -> None:
    with np.errstate(over="ignore"):  # float32 overflow is caught just below
        values = np.asarray(depth.values, dtype="<f4")
    if not np.isfinite(values).all():
        raise FormatError("depth file payload must be finite")
    H, W = values.shape
    with open(path, "wb") as fh:
        fh.write(b"Pf\n")
        fh.write(f"{W} {H}\n".encode("ascii"))
        fh.write(b"-1.0\n")  # negative scale: little-endian
        fh.write(values[::-1].tobytes())  # bottom-up row order


def read_depth_pfm(path) -> DepthMap:
    with open(path, "rb") as fh:
        header = fh.readline().strip()
        if header != b"Pf":
            raise FormatError(f"bad PFM header {header!r} (only grayscale 'Pf' is supported)")
        dim_line = fh.readline().split()
        if len(dim_line) != 2:
            raise FormatError("malformed PFM dimension line")
        try:
            W, H = int(dim_line[0]), int(dim_line[1])
            scale = float(fh.readline().strip())
        except ValueError as exc:
            raise FormatError(f"malformed PFM header field: {exc}") from None
        if not (0 < W <= MAX_DIMENSION and 0 < H <= MAX_DIMENSION):
            raise FormatError(f"PFM dimensions out of range: {W} x {H}")
        if not scale < 0:  # NaN included
            raise FormatError("big-endian PFM is not supported (scale must be negative)")
        payload = _read_exact(fh, 4 * W * H, "PFM payload")
        if fh.read(1):
            raise FormatError("trailing bytes after PFM payload")
    values = np.frombuffer(payload, dtype="<f4").reshape(H, W)[::-1]
    if not np.isfinite(values).all():
        raise FormatError("PFM payload contains NaN or inf")
    return DepthMap(values.astype(np.float64), mask=values > 0)


# ---------------------------------------------------------------------------
# 16-bit PNM images


def write_image_pnm(path, image: Image) -> None:
    values = np.asarray(image.values, dtype=float)
    quantized = np.rint(np.clip(values, 0.0, 1.0) * 65535.0).astype(">u2")
    H, W = quantized.shape[:2]
    color = quantized.ndim == 3 and quantized.shape[2] == 3
    with open(path, "wb") as fh:
        fh.write(b"P6\n" if color else b"P5\n")
        fh.write(f"{W} {H}\n65535\n".encode("ascii"))
        fh.write(quantized.tobytes())


def read_image_pnm(path) -> Image:
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic not in (b"P5", b"P6"):
            raise FormatError(f"bad PNM magic {magic!r}")
        fields = []
        while len(fields) < 3:
            line = fh.readline()
            if not line:
                raise FormatError("truncated PNM header")
            text = line.split(b"#", 1)[0]
            fields.extend(text.split())
        try:
            W, H, maxval = (int(x) for x in fields[:3])
        except ValueError:
            raise FormatError("malformed PNM header") from None
        if maxval != 65535:
            raise FormatError(f"unsupported PNM maxval {maxval} (expected 65535)")
        if not (0 < W <= MAX_DIMENSION and 0 < H <= MAX_DIMENSION):
            raise FormatError(f"PNM dimensions out of range: {W} x {H}")
        channels = 3 if magic == b"P6" else 1
        payload = _read_exact(fh, 2 * W * H * channels, "PNM payload")
        if fh.read(1):
            raise FormatError("trailing bytes after PNM payload")
    values = np.frombuffer(payload, dtype=">u2").astype(np.float64) / 65535.0
    if channels == 3:
        return Image(values.reshape(H, W, 3))
    return Image(values.reshape(H, W))


# ---------------------------------------------------------------------------
# CSV tables


def _format_cell(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path, rows) -> None:
    """Write a list of dict rows. The columns are the keys of every row,
    in the order they first appear; a row without a key leaves its cell
    empty.

    Cells are rendered with repr() for floats (shortest round-trip, '.'
    decimal), so equal inputs produce byte-identical files. The file is
    UTF-8, so a text cell such as a scene name may hold any character and
    an all-ASCII table keeps its bytes.
    """
    import csv

    rows = list(rows)
    if not rows:
        raise FormatError("cannot infer CSV headers from zero rows")
    headers = list(dict.fromkeys(key for row in rows for key in row))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(headers)
        for row in rows:
            writer.writerow([_format_cell(row.get(h, "")) for h in headers])


def read_csv(path) -> list:
    """Read a CSV written by `write_csv` back into dict rows (strings)."""
    import csv

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        table = [row for row in reader if row]
    if not table:
        raise FormatError("empty CSV file")
    headers = table[0]
    out = []
    for cells in table[1:]:
        if len(cells) != len(headers):
            raise FormatError("CSV row width does not match header")
        out.append(dict(zip(headers, cells)))
    return out
