"""Readers and writers for the file formats the command line uses.

Images travel as 8-bit PGM (both ASCII P2 and binary P5 are read;
P2 is written). Disparity grids travel as CSV with a literal NaN
token for no-data cells, at 9 significant digits so a write/read
round trip is lossless at that precision. Point clouds are ASCII PLY
with float x, y, z, intensity vertex properties.

No codec formats or parses cells one at a time in Python. The text
writers work a block of rows at a time: each distinct cell spelling
in the block is formatted once, and the block is written as one byte
gather from a table of those spellings, so memory stays bounded
whatever the grid's size. The readers hand the raster or grid to
numpy's C parsers once the text has passed the checks that name a
malformed sample or row.
"""
from __future__ import annotations

import json
import math
import re

import numpy as np

_COMMENT = re.compile(rb"#[^\n]*")
# the bytes a P2 raster may hold once its comments are gone
_DIGITS_AND_SPACE = b"0123456789 \t\n\r\v\f"
# cells per block of rows a text writer formats and gathers at once
_BLOCK_CELLS = 1 << 15
_LEVELS = [str(level) for level in range(256)]


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
        samples = np.frombuffer(data, dtype=np.uint8)
    else:
        raster = raw[header_end:]
        if b"#" in raster:
            raster = _COMMENT.sub(b"", raster)
        if raster.translate(None, _DIGITS_AND_SPACE):
            raise ValueError(f"{path}: P2 raster holds a non-integer sample")
        # exact once the check passed; it reads a blank raster as one 0.
        # int64, not a narrower type: those wrap large samples silently
        samples = (
            np.fromstring(raster, dtype=np.int64, sep=" ")
            if raster.strip()
            else np.empty(0, dtype=np.int64)
        )
        if samples.size != width * height:
            raise ValueError(
                f"{path}: expected {width * height} samples, found {samples.size}"
            )
    if samples.max(initial=0) > maxval:
        raise ValueError(f"{path}: sample exceeds maxval {maxval}")
    return np.divide(samples, maxval, dtype=float).reshape(height, width)


def _write_lines(handle, grid: np.ndarray, sep: str, spell) -> None:
    """Write a 2-d grid one line per row, its cells joined by `sep`.

    `spell(cells)` takes a flat block of cells and returns the list of
    their distinct spellings with each cell's index into it, as a
    fresh array. Each block is written as one gather from a byte table
    of those spellings, each ending in `sep`, or in a newline for the
    last cell of a row.
    """
    rows, width = grid.shape
    if width == 0:
        handle.write(b"\n" * rows)
        return
    step = max(1, _BLOCK_CELLS // width)
    for start in range(0, rows, step):
        tokens, index = spell(grid[start : start + step].ravel())
        count = len(tokens)
        text = np.array(tokens, dtype=bytes)
        size = text.dtype.itemsize
        length = np.fromiter(map(len, tokens), dtype=np.intp, count=count)
        table = np.zeros((2, count, size + 1), dtype=np.uint8)
        table[:, :, :size] = text.view(np.uint8).reshape(count, size)
        table[0, np.arange(count), length] = ord(sep)
        table[1, np.arange(count), length] = ord("\n")
        index[width - 1 :: width] += count
        cells = table.reshape(2 * count, -1).take(index, axis=0).ravel()
        # spellings hold no NUL, so dropping NULs drops the padding
        handle.write(cells.compress(cells != 0))


def _spell_floats(spell_one):
    """A `_write_lines` speller over the distinct float64 bit patterns.

    Bit patterns, not values: 0.0 and -0.0 compare equal but spell
    differently.
    """

    def spell(cells: np.ndarray):
        bits, index = np.unique(cells.view(np.int64), return_inverse=True)
        return [spell_one(v) for v in bits.view(np.float64).tolist()], index

    return spell


def _spell_csv(value: float) -> str:
    return f"{value:.9g}" if math.isfinite(value) else "NaN"


def _write_p2(path, grid: np.ndarray, levels, comment: str | None = None) -> None:
    """Write a grid as an ASCII P2 image, comment after the magic.

    `levels(cells)` maps a flat block of the grid to integer levels
    0-255, so no whole-frame level array is ever held.
    """
    h, w = grid.shape
    header = ["P2", *([f"# {comment}"] if comment else []), f"{w} {h}", "255"]
    with open(path, "wb") as handle:
        handle.write(("\n".join(header) + "\n").encode("ascii"))
        _write_lines(handle, grid, " ", lambda cells: (_LEVELS, levels(cells)))


def write_pgm(path, image: np.ndarray) -> None:
    """Write intensities in [0, 1] as an ASCII P2 image."""
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-d image, got shape {image.shape}")
    if np.isnan(image).any():
        raise ValueError("image holds a NaN intensity")
    _write_p2(
        path,
        image,
        lambda cells: np.clip(np.rint(cells * 255.0), 0, 255).astype(np.intp),
    )


def write_disparity_pgm(path, values: np.ndarray) -> None:
    """Render a disparity grid to P2, recording the scale in a comment.

    Values are scaled linearly so the largest defined disparity maps
    to 255, then clamped; no-data cells render as 0. The factor is
    written as `# disparity-scale <s>` so viewers can invert it.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {values.shape}")
    peak = np.max(values, where=np.isfinite(values), initial=0.0)
    scale = 255.0 / peak if peak > 0 else 1.0

    def levels(cells):
        scaled = np.clip(np.rint(cells * scale), 0, 255)
        return np.where(np.isfinite(cells), scaled, 0).astype(np.intp)

    _write_p2(path, values, levels, f"disparity-scale {scale:.9g}")


def write_csv(path, values: np.ndarray) -> None:
    """One line per row, comma separated, NaN spelled literally."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {values.shape}")
    with open(path, "wb") as handle:
        _write_lines(handle, values, ",", _spell_floats(_spell_csv))


def read_csv(path) -> np.ndarray:
    """Read a NaN-tokened CSV grid; malformed rows name their index.

    Blank lines are skipped. A row is malformed if its cell count
    differs from the first row's, or if numpy's parser rejects a cell;
    the first malformed row in the file is named.
    """
    with open(path, encoding="ascii") as handle:
        numbered = [
            (index, line) for index, line in enumerate(map(str.strip, handle)) if line
        ]
    if not numbered:
        return np.empty((0, 0))
    rows, lines = zip(*numbered)
    cells = [line.count(",") + 1 for line in lines]
    even = next((k for k, n in enumerate(cells) if n != cells[0]), len(lines))
    try:
        values = _parse_csv(lines[:even])
    except ValueError:
        for k in range(even):
            try:
                _parse_csv(lines[k : k + 1])
            except ValueError:
                raise ValueError(
                    f"{path}: row {rows[k]} holds a non-numeric cell"
                ) from None
        raise
    if even < len(lines):
        raise ValueError(
            f"{path}: row {rows[even]} has {cells[even]} cells, expected {cells[0]}"
        )
    return values


def _parse_csv(lines) -> np.ndarray:
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)


def write_ply(path, points: np.ndarray) -> None:
    """ASCII PLY with float x, y, z, intensity per vertex."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 4:
        raise ValueError(f"expected an (n, 4) array, got shape {points.shape}")
    count = points.shape[0]
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
    with open(path, "wb") as handle:
        handle.write(("\n".join(header) + "\n").encode("ascii"))
        spell = _spell_floats("{:.9g}".format)
        _write_lines(handle, points, " ", spell)


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
