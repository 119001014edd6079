"""Readers and writers of every file the command line reads or writes.

Images travel as 8-bit PGM (both ASCII P2 and binary P5 are read;
P2 is written). Disparity grids travel as CSV with a literal NaN
token for no-data cells, at 9 significant digits so a write/read
round trip is lossless at that precision; iteration series as such
CSV under a header. Point clouds are ASCII PLY with float x, y, z,
intensity vertex properties, and reports JSON: per-scanline records
(write_scanlines) or one object (write_json), spelled here byte for
byte as json.dumps(indent=2, sort_keys=True) spells them, so no
command loads json. The writers take the library's records and arrays
as they are.

No codec parses cells one at a time in Python or formats a cell
value twice within a block. The images of cartoon scenes repeat most
of their rows, so the writers do not spell a row again that repeats
the row before it, and the readers parse each distinct line once;
repeats are found by exact comparison of whole rows or lines. The
text writers work a block of rows at a time, so memory stays bounded
whatever the grid's size: a repeated row is written as the bytes of
the row before, each distinct cell value of the other rows is
formatted once, all in one format call, and the block goes out as one
byte gather from a table of those spellings, NUL-padded to one width,
from which one bytes.translate drops the padding. The readers hand
the distinct lines to numpy's C parsers in one call and gather the
parsed lines back in file order, each into the one array they
return: P2 lines are scaled to [0, 1] before the gather, and CSV
lines gathered as parsed.
"""
from __future__ import annotations

import io
import math
import re

import numpy as np

# the bytes a P2 raster may hold once its comments are gone
_DIGITS_AND_SPACE = b"0123456789 \t\n\r\v\f"
# cells per block of rows a text writer formats and gathers at once
_BLOCK_CELLS = 1 << 15
_LEVELS = [str(level) for level in range(256)]


def read_pgm(path) -> np.ndarray:
    """Read a P2 or P5 grayscale image as floats in [0, 1].

    A P2 raster's distinct lines are parsed once each and scaled once
    each (_p2_samples); the scaled lines are gathered into the image.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    # a header token after the whitespace and # comments before it (a #
    # inside a token is part of it), matched where the last token ended: a
    # search would restart inside a trailing comment and read it as tokens.
    # Compiled here, not at import, as generate reads no image; re caches it.
    token_pattern = re.compile(rb"(?:\s|#[^\n]*(?:\n|\Z))*([^\s#]\S*)")
    tokens, header_end = [], 0
    while len(tokens) < 4 and (token := token_pattern.match(raw, header_end)):
        tokens.append(token[1])
        header_end = token.end()
    if not tokens:
        raise ValueError(f"{path}: empty file")
    if tokens[0] not in (b"P2", b"P5"):
        raise ValueError(f"{path}: not a PGM file (magic {tokens[0]!r})")
    try:
        magic, w, h, maxval = tokens
        width, height, maxval = int(w), int(h), int(maxval)
    except ValueError:
        raise ValueError(f"{path}: malformed PGM header")
    if width < 1 or height < 1 or not 0 < maxval <= 255:
        raise ValueError(
            f"{path}: unsupported PGM geometry {width}x{height} maxval {maxval}"
        )
    if magic == b"P5":
        data = raw[header_end + 1 : header_end + 1 + width * height]
        if len(data) != width * height:
            raise ValueError(f"{path}: truncated P5 raster")
        samples, lines = np.frombuffer(data, dtype=np.uint8), None
    else:
        raster = raw[header_end:]
        if b"#" in raster:
            raster = re.sub(rb"#[^\n]*", b"", raster)
        if raster.translate(None, _DIGITS_AND_SPACE):
            raise ValueError(f"{path}: P2 raster holds a non-integer sample")
        samples, lines = _p2_samples(raster)
        found = sum(span.stop - span.start for span in lines) if lines else samples.size
        if found != width * height:
            raise ValueError(f"{path}: expected {width * height} samples, found {found}")
    if samples.max(initial=0) > maxval:
        raise ValueError(f"{path}: sample exceeds maxval {maxval}")
    values = np.divide(samples, maxval, dtype=float)
    if lines:
        values = np.concatenate([values[line] for line in lines])
    return values.reshape(height, width)


def _p2_samples(raster: bytes):
    """The samples of a P2 raster of digits and whitespace, and its lines.

    If a line that is not blank repeats, each distinct line is parsed
    once, all in one call, and the lines are the slices of the samples
    that give the raster's lines in file order; a line need not be one
    image row. Otherwise the raster is parsed whole, in order, and the
    lines are None.
    """
    # readlines finds line ends with memchr; bytes.split tests each byte
    lines = [line for line in io.BytesIO(raster).readlines() if not line.isspace()]
    if not lines:
        # numpy would read a blank text as one 0
        return np.empty(0, dtype=np.int64), None
    distinct, ids = _distinct(lines)
    if len(distinct) == len(lines):
        return _parse_samples(raster), None
    # a -1 closes each distinct line: no sample of the raster reads as one
    samples = _parse_samples(b" -1\n".join(distinct) + b" -1")
    ends = np.flatnonzero(samples < 0).tolist()
    starts = [0, *(end + 1 for end in ends[:-1])]
    return samples, [slice(starts[k], ends[k]) for k in ids]


def _distinct(lines):
    """Distinct lines in order of first appearance; each line's index into them."""
    first: dict = {}
    ids = [first.setdefault(line, len(first)) for line in lines]
    return list(first), ids


def _parse_samples(text: bytes) -> np.ndarray:
    # exact on digits and whitespace; int64, not a narrower type:
    # those wrap large samples silently
    return np.fromstring(text, dtype=np.int64, sep=" ")


def _write_lines(handle, grid: np.ndarray, sep: str, spell) -> None:
    """Write a 2-d float64 grid one line per row, its cells joined by `sep`.

    The rows go a block at a time. A row bit-for-bit equal to the row
    before it, in this block or the last, is written as that row's
    bytes again. The other rows go to `spell(cells)`, which takes their
    flat cells and returns the list of their distinct spellings with
    each cell's index into it, as a fresh array, and are written as one
    gather from a table of those spellings padded with NULs, each
    ending in `sep`, or in a newline for the last cell of a row, with
    the NULs dropped.
    """
    rows, width = grid.shape
    if width == 0:
        handle.write(b"\n" * rows)
        return
    step = max(1, _BLOCK_CELLS // width)
    bits = grid.view(np.int64)
    last = b""  # the last row written
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        block = grid[start:stop]
        lo = max(start, 1)
        fresh = np.ones(stop - start, dtype=bool)
        fresh[lo - start :] = (bits[lo:stop] != bits[lo - 1 : stop - 1]).any(axis=1)
        heads = None if fresh.all() else np.flatnonzero(fresh)
        if heads is not None:
            lead = heads[0] if heads.size else stop - start
            handle.write(last * lead)
            if not heads.size:
                continue
            block = block[heads]
        tokens, index = spell(block.ravel())
        count = len(tokens)
        text = np.array(tokens, dtype=bytes)
        size = text.dtype.itemsize
        length = np.fromiter(map(len, tokens), dtype=np.intp, count=count)
        table = np.zeros((2, count, size + 1), dtype=np.uint8)
        table[:, :, :size] = text.view(np.uint8).reshape(count, size)
        table[0, np.arange(count), length] = ord(sep)
        table[1, np.arange(count), length] = ord("\n")
        index[width - 1 :: width] += count
        cells = table.reshape(2 * count, -1).take(index, axis=0).reshape(len(block), -1)
        if heads is not None:
            cells = np.repeat(cells, np.diff(heads, append=stop - start), axis=0)
        # spellings hold no NUL, so dropping NULs drops the padding
        handle.write(cells.tobytes().translate(None, b"\0"))
        last = cells[-1].tobytes().translate(None, b"\0")


def _spell_floats(nonfinite: str | None = None):
    """A `_write_lines` speller over the distinct float64 bit patterns.

    A block's distinct values are spelled in one `%.9g` format, which
    spells each as format(value, ".9g") does (-0, nan, inf, -inf);
    `nonfinite`, if given, spells NaN and the infinities instead. Bit
    patterns, not values: 0.0 and -0.0 compare equal but spell
    differently.
    """

    def spell(cells: np.ndarray):
        bits, index = np.unique(cells.view(np.int64), return_inverse=True)
        values = bits.view(np.float64)
        tokens = ("%.9g\n" * values.size % tuple(values.tolist())).split("\n")
        tokens.pop()  # the empty text after the last newline
        if nonfinite is not None:
            for k in np.flatnonzero(~np.isfinite(values)).tolist():
                tokens[k] = nonfinite
        return tokens, index

    return spell


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
        _write_lines(handle, values, ",", _spell_floats("NaN"))


def read_csv(path) -> np.ndarray:
    """Read a NaN-tokened CSV grid; malformed rows name their index.

    Blank lines are skipped, and each distinct line is parsed once, all
    in one call. If that parse fails, the first malformed row in the
    file is named: its cell count differs from the first row's, or
    numpy's parser rejects it alone.
    """
    with open(path, encoding="ascii") as handle:
        numbered = [
            (index, line) for index, line in enumerate(map(str.strip, handle)) if line
        ]
    if not numbered:
        return np.empty((0, 0))
    rows, lines = zip(*numbered)
    distinct, ids = _distinct(lines)
    try:
        values = _parse_csv(distinct)
    except ValueError:
        expected = distinct[0].count(",") + 1
        for k, line in enumerate(distinct):
            cells = line.count(",") + 1
            problem = f"has {cells} cells, expected {expected}"
            if cells == expected:
                try:
                    _parse_csv([line])
                    continue
                except ValueError:
                    problem = "holds a non-numeric cell"
            raise ValueError(f"{path}: row {rows[ids.index(k)]} {problem}") from None
        raise
    return values if len(distinct) == len(ids) else values[ids]


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
        _write_lines(handle, points, " ", _spell_floats())


def write_series(path, records) -> None:
    """CSV of NamedTuples of one type: their field names, then one line each.

    Cells are spelled as by write_csv, so integer fields, as iteration
    counts, read as integers below 10**9, where .9g spells them whole.
    """
    with open(path, "wb") as handle:
        handle.write((",".join(records[0]._fields) + "\n").encode("ascii"))
        grid = np.array(records, dtype=float)
        _write_lines(handle, grid, ",", _spell_floats("NaN"))


def write_json(path, payload) -> None:
    """One object as json.dump spells it, indent 2 and keys sorted (_spell_json)."""
    text = _spell_json(payload) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


# the characters json.dumps escapes by name
_ESCAPES = {
    '"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r",
    "\t": "\\t",
}


def _spell_string(text: str) -> str:
    """text as a JSON string, escaped as json.dumps's ensure_ascii does."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    return '"' + "".join(map(_spell_char, text)) + '"'


def _spell_char(char: str) -> str:
    if " " <= char <= "~" and char not in '"\\':
        return char
    if char in _ESCAPES:
        return _ESCAPES[char]
    code = ord(char)
    if code < 0x10000:
        return f"\\u{code:04x}"
    code -= 0x10000  # astral: a UTF-16 surrogate pair
    return f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}"


def _spell_json(value, indent: str = "") -> str:
    """value as json.dumps(value, indent=2, sort_keys=True) spells it.

    Takes dicts with str keys, lists, tuples, str, None, bool, int and
    float (NaN and the infinities as NaN, Infinity and -Infinity), and
    raises TypeError on anything else. `indent` starts every line after
    the first, as it would for a value nested that deep.
    """
    if isinstance(value, str):
        return _spell_string(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_spell_json(item, inner) for item in value]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        items = [
            f"{_spell_string(key)}: {_spell_json(item, inner)}"
            for key, item in sorted(value.items())
        ]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write_scanlines(path, records) -> None:
    """Write {"scanlines": records}, mappings each with an int "y" (_scanlines_text)."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(_scanlines_text(records))


def _clean(value):
    """A record's value as a plain Python one; NaN and infinity as None."""
    if isinstance(value, (np.floating, float)):
        return float(value) if math.isfinite(value) else None
    return int(value) if isinstance(value, np.integer) else value


def _scanlines_text(records) -> str:
    """{"scanlines": records} as write_json spells it, each value cleaned.

    Row pairs solved once share one record but for "y", so each
    distinct record is cleaned and spelled once, with y = 0 standing
    in, and every row splices its own y into that text. JSON escapes
    newlines inside strings, so the stand-in's line is the only one
    that can match.
    """
    spelled: dict = {}
    parts = []
    for record in records:
        rest = dict(record)
        y = rest.pop("y")
        # the records of one solved pair hold the same value objects;
        # keying on identity never merges values that spell differently
        # yet compare equal, as 0, 0.0 and -0.0 do. Each entry keeps
        # its values alive, so no later value can reuse their ids.
        key = tuple((name, id(value)) for name, value in rest.items())
        if key not in spelled:
            clean = {name: _clean(value) for name, value in rest.items()}
            text = _spell_json({**clean, "y": 0}, "    ")
            head, _, tail = text.partition('\n      "y": 0')
            spelled[key] = head + '\n      "y": ', tail, rest
        head, tail, _ = spelled[key]
        parts.append(f"{head}{y:d}{tail}")
    if not parts:
        return '{\n  "scanlines": []\n}\n'
    return '{\n  "scanlines": [\n    ' + ",\n    ".join(parts) + "\n  ]\n}\n"
