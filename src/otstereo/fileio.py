"""Readers and writers for the file formats the command line uses.

Images travel as 8-bit PGM (both ASCII P2 and binary P5 are read;
P2 is written). Disparity grids travel as CSV with a literal NaN
token for no-data cells, at 9 significant digits so a write/read
round trip is lossless at that precision. Point clouds are ASCII PLY
with float x, y, z, intensity vertex properties.
"""
from __future__ import annotations

import json
import math
import re

import numpy as np

_COMMENT = re.compile(rb"#[^\n]*")
_DIGITS_AND_SPACE = re.compile(rb"[0-9 \t\n\r\v\f]*")


def _pgm_tokens(raw: bytes):
    """Yield whitespace-separated header tokens, skipping # comments."""
    pos = 0
    while pos < len(raw):
        ch = raw[pos : pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            end = raw.find(b"\n", pos)
            pos = len(raw) if end < 0 else end + 1
        else:
            end = pos
            while end < len(raw) and not raw[end : end + 1].isspace():
                end += 1
            yield raw[pos:end], end
            pos = end


def read_pgm(path) -> np.ndarray:
    """Read a P2 or P5 grayscale image as floats in [0, 1]."""
    with open(path, "rb") as handle:
        raw = handle.read()
    tokens = _pgm_tokens(raw)
    try:
        magic, _ = next(tokens)
    except StopIteration:
        raise ValueError(f"{path}: empty file")
    if magic not in (b"P2", b"P5"):
        raise ValueError(f"{path}: not a PGM file (magic {magic!r})")
    try:
        (w, _), (h, _), (maxval, header_end) = (next(tokens) for _ in range(3))
        width, height, maxval = int(w), int(h), int(maxval)
    except (StopIteration, ValueError):
        raise ValueError(f"{path}: malformed PGM header")
    if width < 1 or height < 1 or not 0 < maxval <= 255:
        raise ValueError(
            f"{path}: unsupported PGM geometry {width}x{height} maxval {maxval}"
        )
    if magic == b"P5":
        data = raw[header_end + 1 : header_end + 1 + width * height]
        if len(data) != width * height:
            raise ValueError(f"{path}: truncated P5 raster")
        values = np.frombuffer(data, dtype=np.uint8).astype(float)
    else:
        raster = _COMMENT.sub(b"", raw[header_end:])
        if not _DIGITS_AND_SPACE.fullmatch(raster):
            raise ValueError(f"{path}: P2 raster holds a non-integer sample")
        samples = raster.split()
        if len(samples) != width * height:
            raise ValueError(
                f"{path}: expected {width * height} samples, found {len(samples)}"
            )
        values = np.array(samples, dtype=float)
    if values.max(initial=0.0) > maxval:
        raise ValueError(f"{path}: sample exceeds maxval {maxval}")
    return (values / maxval).reshape(height, width)


def _write_p2(path, levels: np.ndarray, comment: str | None = None) -> None:
    """Write 0-255 integer levels as an ASCII P2 image, comment after the magic."""
    h, w = levels.shape
    lines = ["P2", *([f"# {comment}"] if comment else []), f"{w} {h}", "255"]
    lines.extend(" ".join(map(str, row)) for row in levels.tolist())
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")


def write_pgm(path, image: np.ndarray) -> None:
    """Write intensities in [0, 1] as an ASCII P2 image."""
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-d image, got shape {image.shape}")
    _write_p2(path, np.clip(np.rint(image * 255.0), 0, 255).astype(int))


def write_disparity_pgm(path, values: np.ndarray) -> None:
    """Render a disparity grid to P2, recording the scale in a comment.

    Values are scaled linearly so the largest defined disparity maps
    to 255, then clamped; no-data cells render as 0. The factor is
    written as `# disparity-scale <s>` so viewers can invert it.
    """
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values)
    peak = values[finite].max() if finite.any() else 0.0
    scale = 255.0 / peak if peak > 0 else 1.0
    levels = np.zeros(values.shape, dtype=int)
    levels[finite] = np.clip(np.rint(values[finite] * scale), 0, 255).astype(int)
    _write_p2(path, levels, f"disparity-scale {scale:.9g}")


def write_csv(path, values: np.ndarray) -> None:
    """One line per row, comma separated, NaN spelled literally."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {values.shape}")
    fmt = "{:.9g}".format
    with open(path, "w", encoding="ascii") as handle:
        for row in values.tolist():
            handle.write(",".join(fmt(v) if math.isfinite(v) else "NaN" for v in row))
            handle.write("\n")


def read_csv(path) -> np.ndarray:
    """Read a NaN-tokened CSV grid; malformed rows name their index."""
    rows = []
    width = None
    with open(path, encoding="ascii") as handle:
        for index, line in enumerate(handle):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise ValueError(
                    f"{path}: row {index} has {len(cells)} cells, expected {width}"
                )
            try:
                rows.append([float(cell) for cell in cells])
            except ValueError:
                raise ValueError(f"{path}: row {index} holds a non-numeric cell")
    if not rows:
        return np.empty((0, 0))
    return np.array(rows, dtype=float)


def write_ply(path, points: np.ndarray) -> None:
    """ASCII PLY with float x, y, z, intensity per vertex."""
    points = np.asarray(points, dtype=float)
    if points.size and (points.ndim != 2 or points.shape[1] != 4):
        raise ValueError(f"expected an (n, 4) array, got shape {points.shape}")
    count = 0 if points.size == 0 else points.shape[0]
    header = [
        "ply",
        "format ascii 1.0",
        f"element vertex {count}",
        "property float x",
        "property float y",
        "property float z",
        "property float intensity",
        "end_header",
    ]
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(header) + "\n")
        for row in points.reshape(count, 4):
            handle.write(" ".join(f"{v:.9g}" for v in row) + "\n")


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
