"""Binary matrix files.

Matrix files are little-endian: a fixed header (magic, version, rows, cols)
followed by interleaved (re, im) float64 pairs, with a JSON sidecar holding
row labels and a payload checksum.  Round-trips are bit-exact.

Writes are streamed: a matrix may be given as an iterable of row blocks, and
each block is written as it arrives, so a stack of operators built one at a
time is never held whole.  The checksum runs beside the writes: each block's
digest update goes to a hasher thread, started before the block is written,
so the block is hashed while it is written and while the next one is built.
That thread is joined before the next block is copied for the file, so the
digest takes the blocks in order, at most one thread hashes at a time, and
no more blocks are held than without it.  The header's row count is filled
in at the end.  A ``MatrixWriter`` opens its file when it is made, so a
caller can learn that a path is unwritable before building what goes in it.
Reads go straight into the returned array.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import threading
from collections.abc import Iterable
from pathlib import Path

import numpy as np

MAGIC = b"PBTM"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sIQQ")


class MatrixWriter:
    """One matrix file, created when the writer is made.

    ``write`` streams the matrix and writes the sidecar.  Leaving the
    writer's ``with`` block before ``write`` has finished, as a failed build
    or write does, leaves neither file.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self.meta_path = Path(str(path) + ".json")
        self._fh = open(self.path, "wb")
        self._written = False

    def __enter__(self) -> MatrixWriter:
        return self

    def __exit__(self, *exc_info) -> None:
        self._fh.close()
        if not self._written:
            self.path.unlink(missing_ok=True)
            self.meta_path.unlink(missing_ok=True)

    def write(self, matrix: np.ndarray | Iterable[np.ndarray], labels: list | None = None) -> None:
        """Write a complex matrix and its sidecar.

        ``matrix`` is one 2-D array or an iterable of 2-D row blocks of equal
        width, stored as their concatenation.
        """
        blocks = [matrix] if isinstance(matrix, np.ndarray) else matrix
        fh = self._fh
        digest = hashlib.sha256()
        rows, cols = 0, None
        hashing = None
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, 0, 0))
        try:
            for block in blocks:
                if hashing is not None:
                    hashing.join()  # frees the block before, ahead of this one's copy
                buf = np.ascontiguousarray(block, "<c16")
                if buf.ndim != 2:
                    raise ValueError("only matrices are stored")
                if cols is None:
                    cols = buf.shape[1]
                elif buf.shape[1] != cols:
                    raise ValueError(f"row block of width {buf.shape[1]}, expected {cols}")
                rows += buf.shape[0]
                hashing = threading.Thread(target=digest.update, args=(buf.data,))
                hashing.start()
                fh.write(buf.data)
                del block, buf  # free this block before the next is built
        finally:
            if hashing is not None:
                hashing.join()
        if cols is None:
            raise ValueError("no row blocks to store")
        fh.seek(0)
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, rows, cols))
        fh.close()
        sidecar = {
            "rows": rows,
            "cols": cols,
            "dtype": "complex-f64",
            "layout": "row-major",
            "endianness": "little",
            "checksum": digest.hexdigest(),
            "labels": labels or [],
        }
        self.meta_path.write_text(json.dumps(sidecar))
        self._written = True


def save_matrix(
    path: str | os.PathLike, matrix: np.ndarray | Iterable[np.ndarray], labels: list | None = None
) -> None:
    """Write a complex matrix and its JSON sidecar (``MatrixWriter.write``).
    A failed write leaves neither file."""
    with MatrixWriter(path) as out:
        out.write(matrix, labels)


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
