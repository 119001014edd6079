import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from otstereo import fileio


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    image = rng.integers(0, 256, size=(5, 9)) / 255.0
    path = tmp_path / "img.pgm"
    fileio.write_pgm(path, image)
    again = fileio.read_pgm(path)
    assert again.shape == (5, 9)
    assert np.array_equal(again, image)


def test_pgm_write_quantizes_to_8_bit(tmp_path):
    path = tmp_path / "img.pgm"
    fileio.write_pgm(path, np.array([[0.5, 0.0, 1.0]]))
    again = fileio.read_pgm(path)
    assert np.array_equal(again, np.array([[128.0 / 255.0, 0.0, 1.0]]))


def test_p5_matches_p2(tmp_path):
    levels = np.array([[0, 128, 255], [7, 19, 200]], dtype=np.uint8)
    binary = tmp_path / "img5.pgm"
    binary.write_bytes(b"P5\n# binary twin\n3 2\n255\n" + levels.tobytes())
    ascii_twin = tmp_path / "img2.pgm"
    fileio.write_pgm(ascii_twin, levels / 255.0)
    assert np.array_equal(fileio.read_pgm(binary), fileio.read_pgm(ascii_twin))


def test_pgm_header_comments_are_skipped(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_text("P2\n# a note\n2 1\n# another\n255\n3 250\n")
    image = fileio.read_pgm(path)
    assert image.shape == (1, 2)
    assert image[0, 1] == pytest.approx(250.0 / 255.0)


@pytest.mark.parametrize(
    "content",
    [
        "",
        "P3\n2 2\n255\n0 0 0 0\n",
        "P2\n2 2\n255\n0 0 0\n",
        "P2\n2 2\n255\n0 0 0 300\n",
        "P2\n2 two\n255\n0 0 0 0\n",
        "P2\n2 2\n255\n0 x 0 0\n",
        "P2\n2 2\n255\n0 1.5 0 0\n",
        "P2\n2 2\n255\n0 -1 0 0\n",
        "P2\n1 1\n255\n \n",
    ],
)
def test_bad_pgm_rejected(tmp_path, content):
    path = tmp_path / "bad.pgm"
    path.write_text(content)
    with pytest.raises(ValueError):
        fileio.read_pgm(path)


@pytest.mark.parametrize(
    "header", [b"P2\n3 2\n", b"P2\n3\n", b"P2 3 2 # c", b"P2\n3 2\n# 255"],
)
def test_truncated_pgm_header_is_malformed(tmp_path, header):
    # a header's last comment runs to the end of the file: its tokens
    # are not read as the header's
    path = tmp_path / "bad.pgm"
    path.write_bytes(header)
    with pytest.raises(ValueError) as error:
        fileio.read_pgm(path)
    assert str(error.value) == f"{path}: malformed PGM header"


def test_a_hash_inside_a_header_token_is_part_of_it(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2#c\n2 1\n255\n3 250\n")
    with pytest.raises(ValueError) as error:
        fileio.read_pgm(path)
    assert str(error.value) == f"{path}: not a PGM file (magic b'P2#c')"


@pytest.mark.parametrize(
    "header",
    [b"# a note\nP2\n2 1\n255\n", b"P2\v2\f1\v255\n", b"P2\f# c\n2\v1 255\f"],
    ids=["comment-before-magic", "vertical-tab-and-form-feed", "comment-between-feeds"],
)
def test_pgm_header_separators_and_leading_comment(tmp_path, header):
    path = tmp_path / "img.pgm"
    path.write_bytes(header + b"3 250\n")
    assert np.array_equal(fileio.read_pgm(path) * 255.0, [[3, 250]])


def test_random_pgm_headers_raise_only_value_errors(tmp_path):
    separators = [b"", b" ", b"\t", b"\n", b"\r", b"\v", b"\f", b"#", b"# c\n", b" # c"]
    tokens = [b"P2", b"P5", b"1", b"2", b"3", b"255", b"0", b"300", b"x", b"\xff", b"#"]
    rng = random.Random(27)
    path = tmp_path / "fuzz.pgm"
    for _ in range(2000):
        body = b"".join(
            rng.choice(separators) + rng.choice(tokens) for _ in range(rng.randrange(8))
        )
        path.write_bytes(rng.choice([b"P2", b"P5", b""]) + body)
        try:
            fileio.read_pgm(path)
        except ValueError:
            pass


def test_p2_raster_comments_are_skipped(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_text("P2\n# size\n3 2 # inline\n255\n1 2 3 # first row\n4 5\n#\n6\n")
    assert np.array_equal(fileio.read_pgm(path) * 255.0, [[1, 2, 3], [4, 5, 6]])


def test_p2_read_matches_a_token_by_token_parse(tmp_path):
    rng = np.random.default_rng(3)
    levels = rng.integers(0, 256, size=(7, 13))
    path = tmp_path / "img.pgm"
    fileio.write_disparity_pgm(path, levels.astype(float))
    tokens = [
        int(token)
        for line in path.read_text().splitlines()
        for token in line.split("#", 1)[0].split()[(1 if line == "P2" else 0):]
    ]
    width, height, maxval, *samples = tokens
    expected = np.array(samples, dtype=float).reshape(height, width) / maxval
    assert np.array_equal(fileio.read_pgm(path), expected)


def test_pgm_writer_rejects_nan_and_clamps_infinities(tmp_path):
    path = tmp_path / "img.pgm"
    with pytest.raises(ValueError, match="NaN intensity"):
        fileio.write_pgm(path, np.array([[0.5, np.nan]]))
    fileio.write_pgm(path, np.array([[np.inf, -np.inf]]))
    assert path.read_text() == "P2\n2 1\n255\n255 0\n"


def test_truncated_p5_rejected(tmp_path):
    path = tmp_path / "bad5.pgm"
    path.write_bytes(b"P5\n2 2\n255\n\x00\x01")
    with pytest.raises(ValueError):
        fileio.read_pgm(path)


def test_csv_round_trip_with_nan(tmp_path):
    values = np.array([[1.0, np.nan, 9.000000006], [-0.25, 1e-12, 555.5555555]])
    path = tmp_path / "grid.csv"
    fileio.write_csv(path, values)
    text = path.read_text()
    assert "NaN" in text.splitlines()[0]
    again = fileio.read_csv(path)
    # 9 significant digits survive the trip
    assert np.allclose(again, values, rtol=1e-8, equal_nan=True)


def test_csv_spells_every_non_finite_value_nan(tmp_path):
    values = np.array([[np.inf, -np.inf, np.nan], [-0.0, 1.0 / 3.0, -2.5e-7]])
    path = tmp_path / "grid.csv"
    fileio.write_csv(path, values)
    assert path.read_text() == "NaN,NaN,NaN\n-0,0.333333333,-2.5e-07\n"


def test_csv_matches_per_element_formatting(tmp_path):
    rng = np.random.default_rng(11)
    values = rng.normal(scale=100.0, size=(6, 9)) * 10.0 ** rng.integers(-8, 8, size=(6, 9))
    values[rng.uniform(size=values.shape) < 0.2] = np.nan
    path = tmp_path / "grid.csv"
    fileio.write_csv(path, values)
    expected = "".join(
        ",".join("NaN" if not np.isfinite(v) else f"{v:.9g}" for v in row) + "\n"
        for row in values
    )
    assert path.read_text() == expected


def test_csv_reports_ragged_row_index(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(ValueError, match="row 1"):
        fileio.read_csv(path)


def test_csv_reports_bad_cell_row_index(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("1,2\n3,abc\n")
    with pytest.raises(ValueError, match="row 1"):
        fileio.read_csv(path)


def test_empty_csv_gives_empty_grid(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("")
    assert fileio.read_csv(path).size == 0


def test_disparity_pgm_scale_and_no_data(tmp_path):
    values = np.array([[np.nan, 0.0, 5.1], [2.55, np.nan, 5.1]])
    path = tmp_path / "disp.pgm"
    fileio.write_disparity_pgm(path, values)
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1].startswith("# disparity-scale ")
    scale = float(lines[1].split()[-1])
    assert scale == pytest.approx(50.0)
    grid = np.array([line.split() for line in lines[4:]], dtype=int)
    assert grid[0, 0] == 0 and grid[1, 1] == 0
    assert grid[0, 2] == 255 and grid[1, 2] == 255
    assert grid[1, 0] == round(2.55 * scale)


def test_disparity_pgm_of_all_nan(tmp_path):
    path = tmp_path / "disp.pgm"
    fileio.write_disparity_pgm(path, np.full((2, 2), np.nan))
    grid = fileio.read_pgm(path)
    assert not grid.any()


def test_ply_header_and_vertices(tmp_path):
    points = np.array([[1.0, 2.0, 555.555556, 0.5]])
    path = tmp_path / "cloud.ply"
    fileio.write_ply(path, points)
    lines = path.read_text().splitlines()
    assert lines[0] == "ply"
    assert lines[1] == "format ascii 1.0"
    assert lines[2] == "element vertex 1"
    assert lines[3:7] == [
        "property float x",
        "property float y",
        "property float z",
        "property float intensity",
    ]
    assert lines[7] == "end_header"
    assert lines[8].split() == ["1", "2", "555.555556", "0.5"]


def test_empty_ply_is_valid(tmp_path):
    path = tmp_path / "cloud.ply"
    fileio.write_ply(path, np.empty((0, 4)))
    lines = path.read_text().splitlines()
    assert lines[2] == "element vertex 0"
    assert lines[-1] == "end_header"


@pytest.mark.parametrize("shape", [(3,), (2, 2, 2)])
def test_disparity_pgm_rejects_a_grid_that_is_not_2d(tmp_path, shape):
    path = tmp_path / "disp.pgm"
    with pytest.raises(ValueError, match=r"expected a 2-d array, got shape"):
        fileio.write_disparity_pgm(path, np.zeros(shape))
    assert not path.exists()


@pytest.mark.parametrize("write, message", [
    (fileio.write_pgm, "expected a 2-d image, got shape (3,)"),
    (fileio.write_csv, "expected a 2-d array, got shape (3,)"),
])
def test_grid_writers_reject_a_1d_array(tmp_path, write, message):
    path = tmp_path / "grid"
    with pytest.raises(ValueError) as error:
        write(path, np.zeros(3))
    assert str(error.value) == message
    assert not path.exists()


@pytest.mark.parametrize("shape", [(0,), (0, 3), (4,), (2, 3), (1, 4, 1), (0, 4, 0)])
def test_ply_rejects_points_not_shaped_n_by_4(tmp_path, shape):
    path = tmp_path / "cloud.ply"
    with pytest.raises(ValueError, match=r"expected an \(n, 4\) array"):
        fileio.write_ply(path, np.zeros(shape))
    assert not path.exists()


def test_json_is_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    fileio.write_json(a, {"z": 1, "a": [1, 2]})
    fileio.write_json(b, {"a": [1, 2], "z": 1})
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text()) == {"a": [1, 2], "z": 1}


# Per-element spellings the block writers must reproduce byte for byte.
def p2_reference(levels, comment=None):
    h, w = levels.shape
    lines = ["P2", *([f"# {comment}"] if comment else []), f"{w} {h}", "255"]
    lines.extend(" ".join(map(str, row)) for row in levels.tolist())
    return ("\n".join(lines) + "\n").encode()


def csv_reference(values):
    return "".join(
        ",".join(f"{v:.9g}" if math.isfinite(v) else "NaN" for v in row) + "\n"
        for row in values.tolist()
    ).encode()


def ply_reference(points):
    header = (
        "ply\nformat ascii 1.0\n"
        f"element vertex {len(points)}\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property float intensity\nend_header\n"
    )
    body = "".join(" ".join(f"{v:.9g}" for v in row) + "\n" for row in points.tolist())
    return (header + body).encode()


def disparity_pgm_reference(values):
    finite = np.isfinite(values)
    peak = values[finite].max() if finite.any() else 0.0
    scale = 255.0 / peak if peak > 0 else 1.0
    levels = np.zeros(values.shape, dtype=int)
    levels[finite] = np.clip(np.rint(values[finite] * scale), 0, 255).astype(int)
    return p2_reference(levels, f"disparity-scale {scale:.9g}")


def mixed_grid(shape, seed):
    """Signed magnitudes 1e-12..1e12 with repeats, both zeros, NaN and +-inf."""
    rng = np.random.default_rng(seed)
    values = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-12, 12, size=shape)
    pick = rng.uniform(size=shape)
    values[pick < 0.1] = 0.0
    values[(0.1 <= pick) & (pick < 0.2)] = -0.0
    values[(0.2 <= pick) & (pick < 0.25)] = np.nan
    values[(0.25 <= pick) & (pick < 0.28)] = np.inf
    values[(0.28 <= pick) & (pick < 0.3)] = -np.inf
    values[pick > 0.9] = 2.5
    if values.size >= 2:
        values.flat[:2] = 0.0, -0.0  # merged by value, spelled 0 and -0
    return values


# one block of the writers holds fileio._BLOCK_CELLS cells
GRID_SHAPES = [(0, 6), (4, 0), (1, 1), (9, 13), (fileio._BLOCK_CELLS // 640 + 3, 640)]


@pytest.mark.parametrize("shape", GRID_SHAPES)
def test_csv_writer_matches_the_per_element_spelling(tmp_path, shape):
    values = mixed_grid(shape, seed=sum(shape))
    path = tmp_path / "grid.csv"
    fileio.write_csv(path, values)
    assert path.read_bytes() == csv_reference(values)


@pytest.mark.parametrize("shape", GRID_SHAPES)
def test_pgm_writers_match_the_per_element_spelling(tmp_path, shape):
    rng = np.random.default_rng(sum(shape))
    image = rng.uniform(-0.1, 1.1, size=shape)
    path = tmp_path / "img.pgm"
    fileio.write_pgm(path, image)
    levels = np.clip(np.rint(image * 255.0), 0, 255).astype(int)
    assert path.read_bytes() == p2_reference(levels)

    values = mixed_grid(shape, seed=sum(shape)) * 1e-10
    fileio.write_disparity_pgm(path, values)
    assert path.read_bytes() == disparity_pgm_reference(values)


@pytest.mark.parametrize("count", [0, 1, 7, fileio._BLOCK_CELLS // 4 + 5])
def test_ply_writer_matches_the_per_element_spelling(tmp_path, count):
    points = mixed_grid((count, 4), seed=count)
    path = tmp_path / "cloud.ply"
    fileio.write_ply(path, points)
    assert path.read_bytes() == ply_reference(points)


def test_writers_cross_many_block_seams(tmp_path, monkeypatch):
    # blocks of one row, and rows wider than a block
    monkeypatch.setattr(fileio, "_BLOCK_CELLS", 5)
    for shape in [(11, 3), (6, 5), (4, 9)]:
        values = mixed_grid(shape, seed=shape[1])
        path = tmp_path / "grid.csv"
        fileio.write_csv(path, values)
        assert path.read_bytes() == csv_reference(values)
        image = np.abs(np.nan_to_num(values, posinf=1.0)) % 1.0
        fileio.write_pgm(path, image)
        assert path.read_bytes() == p2_reference(
            np.clip(np.rint(image * 255.0), 0, 255).astype(int)
        )


def repeating_rows(width, seed):
    """Runs of equal rows, rows that come back after others, and twins
    that differ only in the sign of a zero or the payload of a NaN."""
    a, b, c = mixed_grid((3, width), seed)
    a[0] = 0.0
    signed = a.copy()
    signed[0] = -0.0
    nan = a.copy()
    nan[-1] = np.nan
    payload = nan.copy()
    payload[-1:] = np.array([0x7FF8000000000001]).view(np.float64)
    rows = [a, a, a, b, a, signed, signed, a, nan, payload, payload, b, b, c, a]
    return np.array(rows)


def image_of(values):
    """An image from a grid: NaN and -0.0 become 0.0, the rest wraps into [0, 1)."""
    return np.abs(np.nan_to_num(values, posinf=1.0, neginf=1.0)) % 1.0


def assert_writers_match_the_references(path, values):
    fileio.write_csv(path, values)
    assert path.read_bytes() == csv_reference(values)
    image = image_of(values)
    fileio.write_pgm(path, image)
    assert path.read_bytes() == p2_reference(
        np.clip(np.rint(image * 255.0), 0, 255).astype(int)
    )
    fileio.write_disparity_pgm(path, values * 1e-10)
    assert path.read_bytes() == disparity_pgm_reference(values * 1e-10)
    if values.shape[1] == 4:
        fileio.write_ply(path, values)
        assert path.read_bytes() == ply_reference(values)


@pytest.mark.parametrize("width", [1, 2, 4, 9])
def test_writers_reuse_rows_byte_for_byte(tmp_path, width):
    values = repeating_rows(width, seed=width)
    # the twins really differ bit for bit
    assert values[4].tobytes() != values[5].tobytes()
    assert values[8].tobytes() != values[9].tobytes()
    assert_writers_match_the_references(tmp_path / "out", values)


def test_writers_reuse_rows_across_block_seams(tmp_path, monkeypatch):
    # one block of the 640-wide grid ends after row 50; runs cross it
    step = fileio._BLOCK_CELLS // 640
    rows = repeating_rows(640, seed=3)
    pick = np.repeat(
        [0, 3, 0, 5, 8, 9, 13, 3], [step - 6, 12, 1, step - 8, step, 3, 1, 2 * step]
    )
    assert_writers_match_the_references(tmp_path / "out", rows[pick])
    # blocks of one or two rows, and rows wider than a block
    monkeypatch.setattr(fileio, "_BLOCK_CELLS", 5)
    for width in (1, 2, 3, 4, 9):
        values = repeating_rows(width, seed=width)
        assert_writers_match_the_references(tmp_path / "out", values)
        tripled = np.repeat(values, 3, axis=0)
        assert_writers_match_the_references(tmp_path / "out", tripled)
    # rows that agree in their first cell but differ later; in blocks of
    # two rows, rows 1 and 2 meet across a seam, and rows 3 and 4
    same_head = np.array([[1.5, 0.0], [1.5, -0.0], [1.5, 2.5]])
    values = same_head[[0, 1, 2, 2, 1, 0, 0]]
    assert_writers_match_the_references(tmp_path / "out", values)


def test_equal_rows_are_spelled_once_per_block(tmp_path, monkeypatch):
    spelled = []
    write_lines = fileio._write_lines

    def counting(handle, grid, sep, spell):
        def counted(cells):
            spelled.append(cells.size)
            return spell(cells)

        write_lines(handle, grid, sep, counted)

    monkeypatch.setattr(fileio, "_write_lines", counting)
    values = np.tile(mixed_grid((1, 640), seed=2), (480, 1))
    blocks = -(-480 // (fileio._BLOCK_CELLS // 640))
    path = tmp_path / "out"
    for write, grid in [
        (fileio.write_csv, values),
        (fileio.write_pgm, image_of(values)),
        (fileio.write_disparity_pgm, values),
    ]:
        spelled.clear()
        write(path, grid)
        assert 1 <= len(spelled) <= blocks
        assert max(spelled) == 640
    assert path.read_bytes() == disparity_pgm_reference(values)


def p2_token_parse(raw: bytes) -> np.ndarray:
    tokens = [
        token
        for line in raw.decode("ascii").splitlines()
        for token in line.split("#", 1)[0].split()
    ]
    _magic, width, height, maxval, *samples = tokens
    grid = np.array([int(s) for s in samples], dtype=float)
    return grid.reshape(int(height), int(width)) / int(maxval)


def test_p2_reader_matches_a_token_parse_on_hand_written_files(tmp_path):
    rng = np.random.default_rng(5)
    levels = rng.integers(0, 256, size=(6, 11))
    gaps = [" ", "\t", "\r\n", "  \t ", " # note 12 34\r\n", "\n#\n"]
    body = "".join(
        f"{level:0{rng.integers(1, 5)}d}" + gaps[rng.integers(len(gaps))]
        for level in levels.ravel()
    )
    raw = f"P2\r\n# by hand\r\n11\t6 # size\r\n255\r\n{body}".encode()
    path = tmp_path / "img.pgm"
    path.write_bytes(raw)
    assert np.array_equal(fileio.read_pgm(path), p2_token_parse(raw))
    assert np.array_equal(fileio.read_pgm(path) * 255.0, levels)

    path.write_bytes(b"P2\r\n3 1\r\n255\r\n007\t010 # ten, not eight\r\n0255\r\n")
    assert np.array_equal(fileio.read_pgm(path) * 255.0, [[7, 10, 255]])


@pytest.mark.parametrize("raster", [b"", b" \t\r\n", b"\n# only a comment\n \n"])
def test_p2_blank_raster_reports_its_sample_count(tmp_path, raster):
    # numpy reads a blank string as one 0, which would pass as a 1x1 image
    path = tmp_path / "img.pgm"
    for size in (b"1 1", b"2 1"):
        path.write_bytes(b"P2\n" + size + b"\n255\n" + raster)
        with pytest.raises(ValueError, match="samples, found 0"):
            fileio.read_pgm(path)


def wide_csv_lines(rows=40, width=640):
    rng = np.random.default_rng(9)
    grid = np.round(rng.uniform(0, 30, size=(rows, width)), 3)
    return [",".join(f"{v:.9g}" for v in row) for row in grid]


def test_csv_names_a_ragged_row_deep_in_a_wide_file(tmp_path):
    lines = wide_csv_lines()
    lines[33] += ",1"
    path = tmp_path / "grid.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="row 33 has 641 cells, expected 640"):
        fileio.read_csv(path)


@pytest.mark.parametrize("cell", ["abc", "#5", "1_0", "", "0x1"])
def test_csv_names_a_non_numeric_row_deep_in_a_wide_file(tmp_path, cell):
    lines = wide_csv_lines()
    cells = lines[37].split(",")
    cells[500] = cell
    lines[37] = ",".join(cells)
    lines.insert(2, "   ")  # blank lines count toward the row index
    path = tmp_path / "grid.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="row 38 holds a non-numeric cell"):
        fileio.read_csv(path)


def test_csv_comment_marks_are_cells_not_comments(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("1,2\n#3,4\n")
    with pytest.raises(ValueError, match="row 1 holds a non-numeric cell"):
        fileio.read_csv(path)


def test_csv_names_the_first_malformed_row(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("1,2\n3,x\n5\n")
    with pytest.raises(ValueError, match="row 1 holds a non-numeric cell"):
        fileio.read_csv(path)
    path.write_text("1,2\n5\n3,x\n")
    with pytest.raises(ValueError, match="row 1 has 1 cells, expected 2"):
        fileio.read_csv(path)


def test_csv_reader_matches_float_on_every_written_spelling(tmp_path):
    text = "\r\n \t\nnan,NaN, 2 \r\n\n-0,+3,.5\n1e-12,-inf,inf\n  \n5.,1e999,-1e-400\n"
    path = tmp_path / "grid.csv"
    path.write_text(text, newline="")
    expected = np.array(
        [[float(c) for c in line.split(",")] for line in text.splitlines() if line.strip()]
    )
    got = fileio.read_csv(path)
    assert got.shape == (4, 3)
    assert np.array_equal(got, expected, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


def test_csv_single_row_and_single_column_stay_2d(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("1,2,3\n")
    assert fileio.read_csv(path).shape == (1, 3)
    path.write_text("1\n\n2\n")
    assert fileio.read_csv(path).shape == (2, 1)


def recorded(monkeypatch, name):
    """Patch fileio.<name> to record its first argument on each call."""
    calls = []
    parse = getattr(fileio, name)

    def recording(text):
        calls.append(text)
        return parse(text)

    monkeypatch.setattr(fileio, name, recording)
    return calls


def test_p2_reader_parses_each_distinct_line_once(tmp_path, monkeypatch):
    # lines of 3, 2 or no samples, so no line is an image row; they
    # repeat in runs and apart, behind blank, comment-only and CRLF lines
    lines = [
        "1 2 3\r\n", "4 5\n", "1 2 3\r\n", "\r\n", "# a note\r\n", "4 5\n",
        "1 2 3\r\n", "1 2 3\r\n", "# a note\r\n", "\n", "4 5 # 6 7\n", "  \t\n",
        "6  7\r\n", "6  7\r\n", "   \n", "1 2 3\r\n", "4 5\n",
    ]
    raw = ("P2\r\n9 3\r\n255\r\n" + "".join(lines)).encode()
    path = tmp_path / "img.pgm"
    path.write_bytes(raw)
    parsed = recorded(monkeypatch, "_parse_samples")
    image = fileio.read_pgm(path)
    assert np.array_equal(image, p2_token_parse(raw))
    assert len(parsed) == 1
    assert parsed[0].count(b"1 2 3") == 1 and parsed[0].count(b"6  7") == 1

    # only blank, whitespace-only and comment-only lines repeat: the
    # raster is parsed whole, as it stands once its comments are gone
    for header, body in [
        (b"P2\r\n3 2\r\n255", b"\r\n\r\n1 2 3\r\n# a note\r\n \t\r\n4 5 6\r\n\r\n"),
        (b"P2\n3 2\n255", b"\n\n1 2 3\n\n# a note\n4 5 6 # 7\n  \n\n"),
    ]:
        path.write_bytes(header + body)
        parsed.clear()
        assert np.array_equal(fileio.read_pgm(path), p2_token_parse(header + body))
        assert parsed == [fileio._COMMENT.sub(b"", body)]
    # one repeated line that is not blank: each distinct line is parsed once
    raw = b"P2\n3 2\n255\n1 2\n3 4\n1 2\n"
    path.write_bytes(raw)
    parsed.clear()
    assert np.array_equal(fileio.read_pgm(path), p2_token_parse(raw))
    assert len(parsed) == 1 and parsed[0].count(b"1 2") == 1


def test_p2_reader_reads_repeated_rows(tmp_path, monkeypatch):
    image = np.tile(np.arange(640) % 256 / 255.0, (480, 1))
    image[100:140] = 0.5
    image[300:301] = 0.25
    path = tmp_path / "img.pgm"
    fileio.write_pgm(path, image)
    parsed = recorded(monkeypatch, "_parse_samples")
    assert np.array_equal(fileio.read_pgm(path), np.rint(image * 255.0) / 255.0)
    # one parse of the three distinct rows
    row_bytes = path.stat().st_size // 480
    assert len(parsed) == 1 and len(parsed[0]) < 4 * row_bytes
    # a repeated line whose first characters are blank is still read right
    raw = b"P2\n3 2\n255\n" + b" " * 20 + b"1 2 3\n" + b" " * 20 + b"1 2 3\n"
    path.write_bytes(raw)
    assert np.array_equal(fileio.read_pgm(path), p2_token_parse(raw))


@pytest.mark.parametrize(
    "body, message",
    [
        # each repeat counts toward the samples found
        (b"1 2 3\n1 2 3\n1 2 3\n", "expected 6 samples, found 9"),
        (b"1 2\n1 2\n", "expected 6 samples, found 4"),
        # a wrong count is named before a sample above maxval
        (b"9 200\n1\n9 200\n9 200\n", "expected 6 samples, found 7"),
        # a sample above maxval on repeated lines alone
        (b"1 200\n3 4\n1 200\n", "sample exceeds maxval 100"),
        (b"101\n1 2 3\n101\n101\n", "sample exceeds maxval 100"),
    ],
)
def test_p2_repeated_lines_keep_their_errors_and_order(tmp_path, body, message):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P2\n3 2\n100\n" + body)
    with pytest.raises(ValueError, match=message):
        fileio.read_pgm(path)


@pytest.mark.parametrize("maxval", [7, 100, 254, 255])
def test_p2_repeated_lines_that_are_not_rows_read_bit_equal(tmp_path, maxval):
    # lines of 3, 2, 1 and 5 samples over rows of 4, repeated in runs and apart
    rng = np.random.default_rng(maxval)
    pieces = [" ".join(map(str, rng.integers(0, maxval + 1, size=n))) for n in (3, 2, 1, 5)]
    order = [0, 0, 1, 3, 2, 0, 1, 1, 2, 3, 0, 2, 3, 3, 1, 2]
    raw = f"P2\n4 11\n{maxval}\n".encode() + "".join(
        pieces[k] + "\n" for k in order
    ).encode()
    path = tmp_path / "img.pgm"
    path.write_bytes(raw)
    samples = [int(token) for k in order for token in pieces[k].split()]
    # what a parse of every sample in order, then one divide, gives
    expected = np.divide(np.array(samples, dtype=np.int64), maxval, dtype=float)
    image = fileio.read_pgm(path)
    assert (image.shape, image.dtype) == ((11, 4), np.float64)
    assert image.tobytes() == expected.tobytes()


def test_csv_reader_parses_each_distinct_line_once(tmp_path, monkeypatch):
    lines = ["1,-0,NaN", "1,0,NaN", "1,-0,NaN", "", "2.5,1e-3,inf", "1,0,NaN",
             "1,0,NaN", "  ", "2.5,1e-3,inf", "1,-0,NaN"]
    path = tmp_path / "grid.csv"
    path.write_text("\n".join(lines) + "\n")
    parsed = recorded(monkeypatch, "_parse_csv")
    got = fileio.read_csv(path)
    expected = np.array(
        [[float(c) for c in line.split(",")] for line in lines if line.strip()]
    )
    assert np.array_equal(got, expected, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(expected))
    assert [len(call) for call in parsed] == [3]


@pytest.mark.parametrize(
    "lines, message",
    [
        (["1,2", "3,x", "", "1,2", "3,x"], "row 1 holds a non-numeric cell"),
        (["1,2"] * 4 + ["", "5,x"] + ["1,2"] * 3 + ["5,x"],
         "row 5 holds a non-numeric cell"),
        (["1,2"] * 6 + ["1,2,3"] + ["1,2"] * 2 + ["1,2,3"],
         "row 6 has 3 cells, expected 2"),
        (["1,2"] * 3 + ["", "4"] + ["1,2"] * 2, "row 4 has 1 cells, expected 2"),
        (["1,2"] * 3 + ["4", "1,x"], "row 3 has 1 cells, expected 2"),
        (["1,2"] * 3 + ["1,x", "4"], "row 3 holds a non-numeric cell"),
    ],
)
def test_csv_names_the_first_occurrence_of_a_repeated_malformed_row(
    tmp_path, lines, message
):
    path = tmp_path / "grid.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=message):
        fileio.read_csv(path)


def traced_peak(write, path, grid) -> int:
    tracemalloc.start()
    try:
        write(path, grid)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "write, bound_mib",
    # the peaks of the per-cell writers these replaced, 480x640
    [(fileio.write_csv, 9.4), (fileio.write_pgm, 5.8)],
)
def test_writer_memory_is_bounded_per_block(tmp_path, write, bound_mib):
    peaks = []
    for height in (480, 960):
        grid = (np.arange(height * 640, dtype=float).reshape(height, 640) + 0.5) / (height * 640)
        peaks.append(traced_peak(write, tmp_path / "out", grid))
    assert peaks[0] <= bound_mib * 2**20
    # a whole-frame writer's peak doubles with the frame
    assert peaks[1] < 1.25 * peaks[0]
