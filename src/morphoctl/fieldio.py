"""Field snapshot files and CSV time series.

Snapshot format (bit-exact round trip): one ASCII header line

    MCFIELD 1 <nx> <ny> <t>\n

followed by nx*ny IEEE-754 64-bit little-endian values in row-major order
(y-major rows of x), i.e. exactly the C-order bytes of the (ny, nx) field
array.  The time stamp is written with repr so it round-trips as a double.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import FormatError
from .grid import Grid

MAGIC = "MCFIELD"
VERSION = 1


def write_snapshot(path, grid: Grid, t: float, f: np.ndarray) -> None:
    grid.check(f)
    header = f"{MAGIC} {VERSION} {grid.nx} {grid.ny} {t!r}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(f, dtype="<f8").tobytes())


def read_snapshot(path) -> tuple[int, int, float, np.ndarray]:
    """Returns (nx, ny, t, values) with values of shape (ny, nx)."""
    with open(path, "rb") as fh:
        line = fh.readline(257)  # a header of at most 256 bytes, then its newline
        if not line.endswith(b"\n"):
            raise FormatError("header line too long" if len(line) == 257
                              else "unexpected end of file in header")
        header = line[:-1]
        parts = header.decode("ascii", errors="replace").split()
        if len(parts) != 5 or parts[0] != MAGIC:
            raise FormatError(f"bad header {header!r}")
        if parts[1] != str(VERSION):
            raise FormatError(f"unsupported version {parts[1]}")
        try:
            nx, ny, t = int(parts[2]), int(parts[3]), float(parts[4])
        except ValueError as exc:
            raise FormatError(f"bad header fields {parts[2:]}") from exc
        if nx < 1 or ny < 1:
            raise FormatError(f"bad grid size {nx}x{ny}")
        # Size the read from the file, not from the header alone: exactly nx*ny doubles.
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != nx * ny * 8:
            raise FormatError(f"payload of {size} bytes, a {nx}x{ny} field needs {nx * ny * 8}")
        payload = fh.read(size)
        values = np.frombuffer(payload, dtype="<f8").reshape(ny, nx).copy()
    return nx, ny, t, values


def write_csv(path, header: str, rows) -> None:
    """Plain CSV writer; rows are iterables formatted with repr for floats."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    return str(v)
