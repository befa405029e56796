"""Binary matrix files.

Matrix files are little-endian: a fixed header (magic, version, rows, cols)
followed by interleaved (re, im) float64 pairs, with a JSON sidecar holding
row labels and a payload checksum.  Round-trips are bit-exact.

Writes are streamed: a matrix may be given as an iterable of row blocks, and
each block is written and hashed as it arrives, so a stack of operators built
one at a time is never held whole.  The header's row count is filled in at
the end.  Reads go straight into the returned array.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from collections.abc import Iterable
from pathlib import Path

import numpy as np

MAGIC = b"PBTM"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sIQQ")


def save_matrix(
    path: str | os.PathLike, matrix: np.ndarray | Iterable[np.ndarray], labels: list | None = None
) -> None:
    """Write a complex matrix and its JSON sidecar.

    ``matrix`` is one 2-D array or an iterable of 2-D row blocks of equal
    width, stored as their concatenation.  A failed write leaves neither file.
    """
    path = Path(path)
    meta_path = Path(str(path) + ".json")
    blocks = [matrix] if isinstance(matrix, np.ndarray) else matrix
    digest = hashlib.sha256()
    rows, cols = 0, None
    fh = open(path, "wb")
    try:
        with fh:
            fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, 0, 0))
            for block in blocks:
                buf = np.ascontiguousarray(block, "<c16")
                if buf.ndim != 2:
                    raise ValueError("only matrices are stored")
                if cols is None:
                    cols = buf.shape[1]
                elif buf.shape[1] != cols:
                    raise ValueError(f"row block of width {buf.shape[1]}, expected {cols}")
                rows += buf.shape[0]
                fh.write(buf.data)
                digest.update(buf.data)
                del block, buf  # free this block before the next is built
            if cols is None:
                raise ValueError("no row blocks to store")
            fh.seek(0)
            fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, rows, cols))
        sidecar = {
            "rows": rows,
            "cols": cols,
            "dtype": "complex-f64",
            "layout": "row-major",
            "endianness": "little",
            "checksum": digest.hexdigest(),
            "labels": labels or [],
        }
        meta_path.write_text(json.dumps(sidecar))
    except BaseException:
        path.unlink(missing_ok=True)
        meta_path.unlink(missing_ok=True)
        raise


def load_matrix(path: str | os.PathLike) -> tuple[np.ndarray, dict]:
    """Read a matrix file back, validating header, length and checksum."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError("file is shorter than a matrix header")
        magic, version, rows, cols = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ValueError("not a matrix file")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported format version {version}")
        # checked before allocating, so a corrupt header cannot ask for a huge array
        if os.fstat(fh.fileno()).st_size - _HEADER.size != rows * cols * 16:
            raise ValueError("payload length does not match header dimensions")
        mat = np.empty((rows, cols), dtype="<c16")
        fh.readinto(mat.data)
    meta_path = Path(str(path) + ".json")
    meta = json.loads(meta_path.read_text()) if meta_path.exists() else {}
    if meta.get("checksum") and meta["checksum"] != hashlib.sha256(mat.data).hexdigest():
        raise ValueError("payload checksum mismatch")
    return mat, meta


def schur_labels(index) -> list:
    return [
        {"diagram": list(lam.rows), "copy": r, "path": list(tab.growth)}
        for lam, r, tab in index
    ]
