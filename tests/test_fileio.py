import json

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


def test_json_is_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    fileio.write_json(a, {"z": 1, "a": [1, 2]})
    fileio.write_json(b, {"a": [1, 2], "z": 1})
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text()) == {"a": [1, 2], "z": 1}
