"""Small shared helpers: byte I/O."""

from __future__ import annotations

import io
from pathlib import Path


def write_bytes(destination, blob: bytes) -> None:
    if isinstance(destination, (str, Path)):
        Path(destination).write_bytes(blob)
    else:
        destination.write(blob)


def read_bytes(source) -> bytes:
    if isinstance(source, (str, Path)):
        return Path(source).read_bytes()
    if isinstance(source, io.IOBase) or hasattr(source, "read"):
        return source.read()
    raise TypeError(f"cannot read from {type(source)}")
