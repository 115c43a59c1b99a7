"""Byte I/O and the one set of checks behind the four binary file formats.

Each file is a 4-byte magic, a little-endian header whose first field is a
u32 version, then little-endian payload arrays.  ``perfbench/checks.py``
reads QOPC, QOQS and QOFM with readers of its own, so these layouts are a
contract:

QOPC  point cloud (``pointcloud``)
      header  ``<IQHBB``: version 1, count, feature_dim 0, source tag 1, 0
      payload count records of position f4[3], origin f4[3], time f4,
              class_id u2, flags u2 (bit 0 = dynamic), packed
QOQS  query batch (``supervision``)
      header  ``<IQH``: version 1, count, feature_dim 0
      payload count records of query f4[4], occ u1, class u2, packed
QOVX  voxel volume (``scene``)
      header  ``<I3Id6d``: version 2, nx, ny, nz, cell size, mins[3], maxs[3]
      payload nx * ny * nz cells u2 in C order (0 = free, else class + 1)
QOFM  field model (``field``)
      header  ``<II``: version 1, n layer sizes; then ``<nI``: the layer
              sizes; then ``<IIIff2f3I``: n_classes, feature_dim 0, Fourier
              bands, min and max frequency, k_hr, beta, grid width, height
              and channels
      payload f4 grid (height, width, channels), then per layer W and b

A header with a non-zero feature_dim comes from the feature head this
program no longer has, and is refused like an unknown version.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import BadMagicError, FormatVersionError, TruncatedFileError

_VERSION = struct.Struct("<I")


def read_bytes(source) -> bytes:
    if isinstance(source, (str, Path)):
        return Path(source).read_bytes()
    if hasattr(source, "read"):
        return source.read()
    raise TypeError(f"cannot read from {type(source)}")


def write(destination, parts) -> None:
    """Write each of ``parts`` (bytes, or C-contiguous arrays, written through
    their buffer) in turn to ``destination``, a path or a binary stream.  No
    part is copied or joined to another; an iterator is consumed one part
    at a time."""
    if isinstance(destination, (str, Path)):
        with open(destination, "wb") as f:
            write(f, parts)
        return
    for part in parts:
        destination.write(part)


class Reader:
    """One binary file, read front to back after its magic and header.

    ``headers`` maps each readable version to its header struct, whose first
    field is the version; the unpacked header is ``header``.  A read past the
    end of the file raises TruncatedFileError.
    """

    def __init__(self, source, magic: bytes, headers: dict[int, struct.Struct]):
        self.data = read_bytes(source)
        self.name = magic.decode()
        if self.data[:4] != magic:
            raise BadMagicError(f"not a {self.name} file")
        self.offset = 4
        self._need(_VERSION.size)
        (version,) = _VERSION.unpack_from(self.data, 4)
        if version not in headers:
            raise FormatVersionError(f"unsupported {self.name} version {version}")
        self.header = self.unpack(headers[version])

    def _need(self, nbytes: int) -> None:
        if len(self.data) < self.offset + nbytes:
            raise TruncatedFileError(
                f"{self.name} file truncated: {len(self.data)} bytes, "
                f"needs {self.offset + nbytes}"
            )

    def unpack(self, fmt: struct.Struct) -> tuple:
        self._need(fmt.size)
        values = fmt.unpack_from(self.data, self.offset)
        self.offset += fmt.size
        return values

    def array(self, dtype, count: int) -> np.ndarray:
        """The next ``count`` items of ``dtype``: a read-only view of the file."""
        dtype = np.dtype(dtype)
        self._need(count * dtype.itemsize)
        arr = np.frombuffer(self.data, dtype, count, self.offset)
        self.offset += count * dtype.itemsize
        return arr

    def no_features(self, feature_dim: int) -> None:
        if feature_dim:
            raise FormatVersionError(
                f"{self.name} file has feature columns (feature_dim {feature_dim})"
            )
