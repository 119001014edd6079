import math

import numpy as np
import pytest

from otstereo.errors import OutOfFrameError, SceneFormatError
from otstereo.geometry import CameraRig, depth_from_disparity, pixel_shift, reconstruct
from otstereo.maps import map_from_values, value_runs
from otstereo.scene import CartoonScene, SceneObject, load_scene, parse_scene, render_pair

RIG = CameraRig()


def obj(x0, width, shift, intensity, **kw):
    return SceneObject(
        x0=x0, width=width, depth=depth_from_disparity(shift, RIG),
        intensity=intensity, **kw,
    )


def test_rig_rejects_nonpositive_parameters():
    with pytest.raises(ValueError):
        CameraRig(baseline=0.0)
    with pytest.raises(ValueError):
        CameraRig(beta=-2.0)
    # an infinite rig parameter would reach the renderer as an
    # infinite or NaN shift
    for name in ("baseline", "focal", "beta"):
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                CameraRig(**{name: value})
    for name in ("baseline", "focal", "beta"):
        with pytest.raises(SceneFormatError, match=f"{name} must be positive and finite"):
            parse_scene(f"width = 20\nheight = 4\n{name} = inf\n"
                        "object = x0:1 width:3 depth:100 intensity:0.5\n")


def test_depth_of_shift_nine():
    assert depth_from_disparity(9, RIG) == pytest.approx(5000.0 / 9.0, abs=1e-9)


def test_depth_of_shift_five_is_thousand():
    assert depth_from_disparity(5, RIG) == pytest.approx(1000.0)


def test_nonpositive_shift_is_at_infinity():
    assert math.isinf(depth_from_disparity(0, RIG))
    assert math.isinf(depth_from_disparity(-3, RIG))


def test_shift_depth_round_trip():
    for s in range(1, 31):
        assert pixel_shift(depth_from_disparity(s, RIG), RIG) == s


def test_far_objects_project_to_zero_shift():
    assert pixel_shift(1e9, RIG) == 0
    assert pixel_shift(math.inf, RIG) == 0
    # a depth so small that its shift overflows is rejected, not
    # passed to round() as infinity
    with pytest.raises(ValueError, match="not finite"):
        pixel_shift(1e-320, RIG)


def test_depth_zero_rejected():
    with pytest.raises(ValueError) as error:
        pixel_shift(0.0, RIG)
    assert str(error.value) == "depth must be positive, got 0.0"


def test_object_validation():
    with pytest.raises(ValueError):
        SceneObject(x0=0, width=0, depth=100.0, intensity=0.5)
    with pytest.raises(ValueError):
        SceneObject(x0=0, width=3, depth=-1.0, intensity=0.5)
    with pytest.raises(ValueError):
        SceneObject(x0=0, width=3, depth=100.0, intensity=0.0)
    with pytest.raises(ValueError):
        SceneObject(x0=0, width=3, depth=100.0, intensity=1.2)
    for height in (0, -2):
        with pytest.raises(ValueError, match="height must be at least 1"):
            SceneObject(x0=0, width=3, depth=100.0, intensity=0.5, height=height)


def test_object_rows_start_inside_the_frame():
    # a negative y0 would index rows from the bottom of the frame
    with pytest.raises(ValueError, match="y0 must be nonnegative"):
        SceneObject(x0=0, width=3, depth=100.0, intensity=0.5, y0=-1, height=2)
    with pytest.raises(SceneFormatError) as info:
        parse_scene("width = 20\nheight = 4\nobject = x0:1 width:3 shift:2 "
                    "intensity:0.5 y0:-2 height:3\n")
    assert info.value.line == 3
    # a negative height would end the rows counted from the bottom
    for height in (0, -2):
        with pytest.raises(SceneFormatError, match="height must be at least 1") as info:
            parse_scene("width = 20\nheight = 3\n\nobject = x0:1 width:3 shift:2 "
                        f"intensity:0.5 height:{height}\n")
        assert info.value.line == 4


def test_band_rows_clip_to_frame():
    band = SceneObject(x0=0, width=2, depth=50.0, intensity=0.5, y0=6, height=9)
    assert band.rows(10) == range(6, 10)
    full = SceneObject(x0=0, width=2, depth=50.0, intensity=0.5)
    assert full.rows(10) == range(10)


def test_non_occluded_render():
    scene = CartoonScene(
        width=50, height=6, objects=(obj(5, 8, 4, 0.5), obj(25, 6, 7, 0.8))
    )
    pair = render_pair(scene, RIG)
    assert pair.non_occluded
    assert pair.hidden == {}
    # per-scanline masses agree when nothing is hidden
    assert np.allclose(pair.left.sum(axis=1), pair.right.sum(axis=1))
    row = pair.truth.values[0]
    assert np.all(row[5:13] == 4.0)
    assert np.all(row[25:31] == 7.0)
    assert np.isnan(row[0]) and np.isnan(row[20])
    assert not pair.truth.occluded.any()
    # objects land shifted in the left view
    assert np.all(pair.left[0, 9:17] == 0.5)
    assert np.all(pair.left[0, 32:38] == 0.8)


def test_occluding_render_flags_hidden_columns():
    # the near object's left image covers the head of the far one
    scene = CartoonScene(
        width=60, height=4, objects=(obj(10, 10, 7, 0.5), obj(21, 20, 4, 0.6))
    )
    pair = render_pair(scene, RIG)
    assert not pair.non_occluded
    assert pair.hidden[0]["right_frame"] == [(21, 22)]
    assert pair.hidden[0]["left_frame"] == []
    expected = np.zeros(60, dtype=bool)
    expected[21:23] = True
    assert np.array_equal(pair.truth.occluded[0], expected)
    # hidden pixels keep their truth shift; they are just invisible
    assert np.all(pair.truth.values[0, 21:23] == 4.0)


def test_hidden_content_in_both_frames():
    # the near object covers the far one's head in the right view
    # while its left image covers the far one's tail, so each camera
    # misses a different part
    scene = CartoonScene(
        width=40, height=2, objects=(obj(10, 8, 6, 0.5), obj(14, 8, 1, 0.6))
    )
    pair = render_pair(scene, RIG)
    assert not pair.non_occluded
    assert pair.hidden[0]["right_frame"] == [(18, 21)]
    assert pair.hidden[0]["left_frame"] == [(15, 15)]


def hidden_by_loop(scene, rig):
    """Reference hidden masks, pixel by pixel: paint owners far to near, follow each shift."""
    d, h = scene.width, scene.height
    shifts = [pixel_shift(o.depth, rig) for o in scene.objects]
    right = np.full((h, d), -1)
    left = np.full((h, d), -1)
    for k in sorted(range(len(shifts)), key=lambda k: -scene.objects[k].depth):
        o = scene.objects[k]
        for y in o.rows(h):
            for x in range(o.x0, o.x0 + o.width):
                right[y, x] = k
                left[y, x + shifts[k]] = k
    hidden_r = np.zeros((h, d), dtype=bool)
    hidden_l = np.zeros((h, d), dtype=bool)
    for y in range(h):
        for x in range(d):
            k = right[y, x]
            hidden_r[y, x] = k >= 0 and left[y, x + shifts[k]] != k
            k = left[y, x]
            hidden_l[y, x] = k >= 0 and right[y, x - shifts[k]] != k
    return hidden_r, hidden_l


def test_hidden_masks_match_the_pixel_loop():
    rng = np.random.default_rng(0)
    checked = hidden_rows = 0
    while checked < 60:
        d, h = int(rng.integers(10, 60)), int(rng.integers(1, 6))
        scene = CartoonScene(d, h, tuple(
            obj(int(rng.integers(0, d)), int(rng.integers(1, 16)), int(rng.integers(1, 10)),
                0.5, y0=int(rng.integers(0, h)), height=int(rng.integers(1, h + 1)))
            for _ in range(int(rng.integers(1, 5)))
        ))
        try:
            pair = render_pair(scene, RIG)
        except OutOfFrameError:
            continue
        hidden_r, hidden_l = hidden_by_loop(scene, RIG)
        assert np.array_equal(pair.truth.occluded, hidden_r)
        for y in range(h):
            rows = pair.hidden.get(y, {"right_frame": [], "left_frame": []})
            assert rows == {"right_frame": value_runs(hidden_r[y]),
                            "left_frame": value_runs(hidden_l[y])}
        checked += 1
        hidden_rows += len(pair.hidden)
    assert hidden_rows >= 20


def render_by_gather(scene, rig):
    """Both views and their hidden masks by full-frame owner and shift gathers.

    Paints owner and shift frames far to near, then follows every
    pixel's shift into the other view's owner frame.
    """
    d, h = scene.width, scene.height
    left = np.zeros((h, d))
    right = np.zeros((h, d))
    truth = np.full((h, d), np.nan)
    right_owner = np.full((h, d), -1)
    left_owner = np.full((h, d), -1)
    right_shift = np.zeros((h, d), dtype=int)
    left_shift = np.zeros((h, d), dtype=int)
    for k in sorted(range(len(scene.objects)), key=lambda k: -scene.objects[k].depth):
        o = scene.objects[k]
        s = pixel_shift(o.depth, rig)
        ys = o.rows(h)
        sl_r = slice(o.x0, o.x0 + o.width)
        sl_l = slice(o.x0 + s, o.x0 + o.width + s)
        right[ys, sl_r] = o.intensity
        right_owner[ys, sl_r] = k
        right_shift[ys, sl_r] = s
        truth[ys, sl_r] = float(s)
        left[ys, sl_l] = o.intensity
        left_owner[ys, sl_l] = k
        left_shift[ys, sl_l] = s
    ys = np.arange(h)[:, None]
    cols = np.arange(d)
    occluded = (right_owner >= 0) & (left_owner[ys, cols + right_shift] != right_owner)
    hidden_l = (left_owner >= 0) & (right_owner[ys, cols - left_shift] != left_owner)
    return left, right, truth, occluded, hidden_l


def random_scene(rng):
    """1-5 objects in bands, some at the frame edges, some nested behind a nearer one."""
    d, h = int(rng.integers(12, 50)), int(rng.integers(1, 7))
    objects = []
    for _ in range(int(rng.integers(1, 6))):
        band = {}
        if rng.random() < 0.7:
            band = {"y0": int(rng.integers(0, h)), "height": int(rng.integers(1, h + 2))}
        if objects and rng.random() < 0.3:
            # farther than an earlier object and inside its right-view box,
            # so fully hidden there; intensity 0.3 marks it for the count below
            near = objects[int(rng.integers(0, len(objects)))]
            near_shift = pixel_shift(near.depth, RIG)
            if near_shift > 1 and near.width > 1:
                width = int(rng.integers(1, near.width))
                x0 = near.x0 + int(rng.integers(0, near.width - width + 1))
                shift = int(rng.integers(1, near_shift))
                band = {"y0": near.y0, "height": near.height}
                objects.append(obj(x0, width, shift, 0.3, **band))
                continue
        shift = int(rng.integers(1, 9))
        width = int(rng.integers(1, d - shift + 1))
        x0 = [0, d - shift - width, int(rng.integers(0, d - shift - width + 1))][
            int(rng.integers(0, 3))
        ]
        objects.append(obj(x0, width, shift, float(rng.choice([0.2, 0.5, 0.9])), **band))
    return CartoonScene(d, h, tuple(objects))


def test_render_matches_the_full_frame_gathers():
    rng = np.random.default_rng(15)
    nested = edge = hidden_rows = 0
    for _ in range(300):
        scene = random_scene(rng)
        pair = render_pair(scene, RIG)
        left, right, truth, occluded, hidden_l = render_by_gather(scene, RIG)
        assert pair.left.tobytes() == left.tobytes()
        assert pair.right.tobytes() == right.tobytes()
        assert pair.truth.values.tobytes() == truth.tobytes()
        assert pair.truth.occluded.dtype == bool
        assert np.array_equal(pair.truth.occluded, occluded)
        expected = {
            y: {"right_frame": value_runs(occluded[y]), "left_frame": value_runs(hidden_l[y])}
            for y in range(scene.height) if occluded[y].any() or hidden_l[y].any()
        }
        assert pair.hidden == expected
        assert pair.non_occluded == (not expected)
        # coverage of the cases the generator aims at
        nested += sum(
            o.intensity == 0.3
            and not (pair.right[o.rows(scene.height), o.x0:o.x0 + o.width] == 0.3).any()
            for o in scene.objects
        )
        edge += any(o.x0 == 0 or o.x0 + o.width + pixel_shift(o.depth, RIG) == scene.width
                    for o in scene.objects)
        hidden_rows += len(expected)
    assert nested >= 20 and edge >= 100 and hidden_rows >= 100


def test_out_of_frame_right_view():
    with pytest.raises(OutOfFrameError):
        render_pair(
            CartoonScene(width=30, height=2, objects=(obj(25, 8, 2, 0.5),)), RIG
        )


def test_out_of_frame_left_view():
    # fits in the right view, but the shift pushes it past the edge
    with pytest.raises(OutOfFrameError):
        render_pair(
            CartoonScene(width=30, height=2, objects=(obj(20, 8, 5, 0.5),)), RIG
        )


def test_empty_scene_renders_blank():
    pair = render_pair(CartoonScene(width=20, height=3), RIG)
    assert not pair.left.any() and not pair.right.any()
    assert pair.truth.no_data.all()
    assert pair.non_occluded


def test_reconstruct_uniform_shift_is_planar():
    values = np.full((4, 10), 5.0)
    image = np.full((4, 10), 0.5)
    cloud = reconstruct(map_from_values(values), RIG, image)
    assert len(cloud) == 40
    assert np.allclose(cloud[:, 2], 1000.0)
    assert np.allclose(cloud[:, 3], 0.5)


def test_reconstruct_skips_undefined_and_occluded():
    scene = CartoonScene(
        width=60, height=2, objects=(obj(10, 10, 7, 0.5), obj(21, 20, 4, 0.6))
    )
    pair = render_pair(scene, RIG)
    cloud = reconstruct(pair.truth, RIG, pair.right)
    defined = np.isfinite(pair.truth.values) & ~pair.truth.occluded
    assert len(cloud) == int(defined.sum())
    xs = cloud[cloud[:, 1] == 0.0][:, 0]
    assert 21.0 not in xs and 22.0 not in xs


def test_reconstruct_rejects_wrong_image_shape():
    with pytest.raises(ValueError):
        reconstruct(map_from_values(np.zeros((2, 5))), RIG, np.zeros((3, 5)))


def test_zero_disparity_yields_no_points():
    cloud = reconstruct(map_from_values(np.zeros((2, 5))), RIG, np.zeros((2, 5)))
    assert len(cloud) == 0


SCENE_TEXT = """\
# two boxes over a void
width = 60
height = 8
baseline = 10
focal = 1000
beta = 2

object = x0:10 width:10 shift:7 intensity:0.5
object = x0:21 width:20 depth:1250 intensity:0.6 y0:2 height:4
"""


def test_parse_scene_round_trip():
    scene, rig = parse_scene(SCENE_TEXT)
    assert (scene.width, scene.height) == (60, 8)
    assert rig == CameraRig(baseline=10.0, focal=1000.0, beta=2.0)
    first, second = scene.objects
    assert first.depth == pytest.approx(5000.0 / 7.0)
    assert second.depth == 1250.0
    assert (second.y0, second.height) == (2, 4)
    pair = render_pair(scene, rig)
    assert pair.hidden[2]["right_frame"] == [(21, 22)]


def test_parse_scene_reports_line_numbers():
    with pytest.raises(SceneFormatError) as info:
        parse_scene("width = 20\nheight = 4\nobject = x0:1 widht:3 intensity:0.5\n")
    assert info.value.line == 3
    assert "line 3" in str(info.value)


def test_parse_scene_requires_frame():
    with pytest.raises(SceneFormatError):
        parse_scene("height = 4\n")
    for text, line in (("width = 20.9\nheight = 3\n", 1), ("width = 20\nheight = 3.5\n", 2),
                       ("width = inf\nheight = 3\n", 1)):
        with pytest.raises(SceneFormatError, match="must be a whole number") as info:
            parse_scene(text)
        assert info.value.line == line
    scene, rig = parse_scene("width = 20.0\nheight = 3\n")
    assert (scene.width, scene.height) == (20, 3) and type(scene.width) is int
    assert rig == CameraRig()


def test_parse_scene_rejects_depth_and_shift_together():
    text = "width = 20\nheight = 4\nobject = x0:1 width:3 depth:50 shift:2 intensity:0.5\n"
    with pytest.raises(SceneFormatError) as info:
        parse_scene(text)
    assert info.value.line == 3


def test_parse_scene_rejects_nonpositive_shift():
    text = "width = 20\nheight = 4\nobject = x0:1 width:3 shift:0 intensity:0.5\n"
    with pytest.raises(SceneFormatError):
        parse_scene(text)
    # the renderer would round a fractional shift, and inf gives depth 0
    for shift in ("0.2", "2.5", "inf", "nan", "-3"):
        with pytest.raises(SceneFormatError, match="positive whole number") as info:
            parse_scene(f"width = 20\nheight = 4\n\nobject = x0:1 width:3 "
                        f"shift:{shift} intensity:0.5\n")
        assert info.value.line == 4
    scene, _ = parse_scene("width = 20\nheight = 4\n"
                           "object = x0:1 width:3 shift:2.0 intensity:0.5\n")
    assert scene.objects[0].depth == depth_from_disparity(2, RIG)


def test_parse_scene_rejects_unknown_scalar():
    with pytest.raises(SceneFormatError) as info:
        parse_scene("width = 20\nheight = 4\nzoom = 3\n")
    assert info.value.line == 3


@pytest.mark.parametrize(
    "text, message",
    [
        ("width = 0\nheight = 4\n", "frame 0x4 is empty"),
        ("width = 20\nheight = 4\nobject = x0:1 x0:2 width:3 shift:2 intensity:0.5\n",
         "line 3: duplicate object field 'x0'"),
        ("width = 20\nheight = 4\nobject = x0:one width:3 shift:2 intensity:0.5\n",
         "line 3: bad value for 'x0': 'one'"),
        ("width = 20\nheight 4\n", "line 2: expected key = value, got 'height 4'"),
        ("width = 20\n= 4\n", "line 2: expected key = value, got '= 4'"),
        ("width = 20\nheight = 4\nwidth = 30\n", "line 3: duplicate key 'width'"),
        ("width = 20\nheight = four\n", "line 2: bad value for 'height': 'four'"),
    ],
    ids=["empty-frame", "duplicate-field", "bad-field-value", "no-equals", "no-key",
         "duplicate-key", "bad-scalar-value"],
)
def test_parse_scene_names_each_input_error(text, message):
    with pytest.raises(SceneFormatError) as info:
        parse_scene(text)
    assert str(info.value) == message


def test_load_scene(tmp_path):
    path = tmp_path / "scene.txt"
    path.write_text(SCENE_TEXT)
    scene, rig = load_scene(path)
    assert len(scene.objects) == 2


def test_map_from_values_masks_nan():
    values = np.array([[1.0, np.nan], [np.nan, 3.0]])
    result = map_from_values(values)
    assert result.width == 2 and result.height == 2
    assert result.no_data[0, 1] and result.no_data[1, 0]
    assert not result.occluded.any()
    assert np.array_equal(result.values, values, equal_nan=True)
