"""Binary matrix files.

Matrix files are little-endian: a fixed header (magic, version, rows, cols)
followed by interleaved (re, im) float64 pairs, with a JSON sidecar holding
row labels and a payload checksum.  Round-trips are bit-exact.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"PBTM"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sIQQ")


def save_matrix(path: str | os.PathLike, matrix: np.ndarray, labels: list | None = None) -> None:
    """Write a complex matrix and its JSON sidecar."""
    mat = np.ascontiguousarray(np.asarray(matrix, dtype=np.complex128))
    if mat.ndim != 2:
        raise ValueError("only matrices are stored")
    payload = mat.astype("<c16").tobytes()
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, mat.shape[0], mat.shape[1])
    path = Path(path)
    path.write_bytes(header + payload)
    sidecar = {
        "rows": mat.shape[0],
        "cols": mat.shape[1],
        "dtype": "complex-f64",
        "layout": "row-major",
        "endianness": "little",
        "checksum": hashlib.sha256(payload).hexdigest(),
        "labels": labels or [],
    }
    Path(str(path) + ".json").write_text(json.dumps(sidecar))


def load_matrix(path: str | os.PathLike) -> tuple[np.ndarray, dict]:
    """Read a matrix file back, validating header, length and checksum."""
    raw = Path(path).read_bytes()
    magic, version, rows, cols = _HEADER.unpack(raw[: _HEADER.size])
    if magic != MAGIC:
        raise ValueError("not a matrix file")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version}")
    payload = raw[_HEADER.size :]
    if len(payload) != rows * cols * 16:
        raise ValueError("payload length does not match header dimensions")
    meta_path = Path(str(path) + ".json")
    meta = json.loads(meta_path.read_text()) if meta_path.exists() else {}
    if meta.get("checksum") and meta["checksum"] != hashlib.sha256(payload).hexdigest():
        raise ValueError("payload checksum mismatch")
    mat = np.frombuffer(payload, dtype="<c16").reshape(rows, cols).copy()
    return mat, meta


def schur_labels(index) -> list:
    return [
        {"diagram": list(lam.rows), "copy": r, "path": list(tab.growth)}
        for lam, r, tab in index
    ]
