import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from otstereo import fileio
from otstereo.cli import COMMANDS, _plain_args, build_parser, main, parse_run_config
from otstereo.disparity import DEFAULT_CONFIG, disparity_map, measure_from_row
from otstereo.fileio import _clean, _scanlines_text
from otstereo.scaling import SinkhornConfig, build_kernel, iteration_trace
from otstereo.geometry import CameraRig, depth_from_disparity
from otstereo.scene import CartoonScene, SceneObject, render_pair

NON_OCCLUDED = """\
width = 50
height = 6
object = x0:5 width:8 shift:4 intensity:0.5
object = x0:25 width:6 shift:7 intensity:0.8
"""

OCCLUDED = """\
width = 60
height = 4
object = x0:10 width:10 shift:7 intensity:0.5
object = x0:21 width:20 shift:4 intensity:0.6
"""

FAST = ["--niter", "4000", "--stop-tolerance", "1e-9"]

# the benchmark's wide frame: three balanced objects on a 640-wide row
WIDE_BALANCED = """\
width = 640
height = 2
object = x0:300 width:20 shift:6 intensity:0.5
object = x0:324 width:16 shift:4 intensity:0.7
object = x0:344 width:12 shift:3 intensity:0.4
"""


def generate(tmp_path, text, name="scene"):
    scene = tmp_path / f"{name}.txt"
    scene.write_text(text)
    out = tmp_path / name
    assert main(["generate", str(scene), "--out-dir", str(out)]) == 0
    return out


def test_generate_writes_the_four_artifacts(tmp_path):
    out = generate(tmp_path, NON_OCCLUDED)
    for name in ("left.pgm", "right.pgm", "truth_disparity.csv", "occlusions.json"):
        assert (out / name).exists()
    occ = json.loads((out / "occlusions.json").read_text())
    assert occ == {"non_occluded": True, "scanlines": []}
    truth = fileio.read_csv(out / "truth_disparity.csv")
    assert truth.shape == (6, 50)
    assert np.all(truth[0, 5:13] == 4.0)
    assert np.isnan(truth[0, 0])


def test_generate_occluding_scene_reports_intervals(tmp_path):
    out = generate(tmp_path, OCCLUDED)
    occ = json.loads((out / "occlusions.json").read_text())
    assert occ["non_occluded"] is False
    assert occ["scanlines"][0] == {
        "y": 0, "right_frame": [[21, 22]], "left_frame": [],
    }


def test_generate_empty_scene(tmp_path):
    out = generate(tmp_path, "width = 12\nheight = 3\n")
    assert not fileio.read_pgm(out / "left.pgm").any()
    truth = fileio.read_csv(out / "truth_disparity.csv")
    assert np.isnan(truth).all()


def test_generate_bad_scene_exits_1(tmp_path, capsys):
    scene = tmp_path / "scene.txt"
    scene.write_text("width = 20\nheight = 2\nobject = x0:1 intensity:0.5\n")
    assert main(["generate", str(scene)]) == 1
    assert "line 3" in capsys.readouterr().err


def test_disparity_matches_generated_truth(tmp_path):
    out = generate(tmp_path, NON_OCCLUDED)
    run = tmp_path / "run"
    code = main(
        ["disparity", str(out / "left.pgm"), str(out / "right.pgm"),
         *FAST, "--out-dir", str(run)]
    )
    assert code == 0
    got = fileio.read_csv(run / "disparity.csv")
    truth = fileio.read_csv(out / "truth_disparity.csv")
    assert np.array_equal(np.isfinite(got), np.isfinite(truth))
    defined = np.isfinite(truth)
    assert np.abs(got[defined] - truth[defined]).max() < 0.5
    # the rendering carries its inversion factor
    header = (run / "disparity.pgm").read_text().splitlines()[1]
    assert header.startswith("# disparity-scale ")
    diag = json.loads((run / "diagnostics.json").read_text())
    first = diag["scanlines"][0]
    assert first["path"] == "balanced"
    assert {"iterations", "hilbert_u", "hilbert_v", "marginal_violation", "lam"} <= set(first)


def test_default_disparity_converges_on_a_wide_balanced_row(tmp_path):
    out = generate(tmp_path, WIDE_BALANCED)
    run = tmp_path / "run"
    code = main(["disparity", str(out / "left.pgm"), str(out / "right.pgm"),
                 "--out-dir", str(run)])
    assert code == 0
    diag = json.loads((run / "diagnostics.json").read_text())
    for row in diag["scanlines"]:
        assert row["path"] == "balanced"
        assert row["stop_reason"] == "converged"
        assert row["iterations"] < 1000
    got = fileio.read_csv(run / "disparity.csv")
    truth = fileio.read_csv(out / "truth_disparity.csv")
    defined = np.isfinite(truth)
    assert np.array_equal(np.isfinite(got), defined)
    assert np.abs(got[defined] - truth[defined]).max() <= 1e-3


# three 100 px objects one pixel apart, all shifted by 5 px
WIDE_OBJECTS = """\
width = 312
height = 1
object = x0:5 width:100 shift:5 intensity:0.3
object = x0:106 width:100 shift:5 intensity:0.6
object = x0:207 width:100 shift:5 intensity:0.9
"""


def test_default_disparity_converges_on_wide_objects(tmp_path):
    out = generate(tmp_path, WIDE_OBJECTS)
    run = tmp_path / "run"
    code = main(["disparity", str(out / "left.pgm"), str(out / "right.pgm"),
                 "--niter", "2000", "--out-dir", str(run)])
    assert code == 0
    row = json.loads((run / "diagnostics.json").read_text())["scanlines"][0]
    assert (row["path"], row["stop_reason"]) == ("balanced", "converged")
    got = fileio.read_csv(run / "disparity.csv")
    truth = fileio.read_csv(out / "truth_disparity.csv")
    defined = np.isfinite(truth)
    assert np.array_equal(np.isfinite(got), defined)
    assert np.abs(got[defined] - truth[defined]).max() <= 1e-4


def test_budget_stops_are_named_on_stderr(tmp_path, capsys):
    out = generate(tmp_path, OCCLUDED)
    run = tmp_path / "run"
    code = main(["disparity", str(out / "left.pgm"), str(out / "right.pgm"),
                 "--niter", "20", "--stop-tolerance", "0", "--out-dir", str(run)])
    assert code == 0
    err = capsys.readouterr().err.splitlines()
    assert err == ["otstereo: scanlines [0, 1, 2, 3] stopped on the iteration "
                   "budget before converging"]
    # occlusion rows report the iterations of their remainder's solve
    for row in json.loads((run / "diagnostics.json").read_text())["scanlines"]:
        assert row["path"] == "occlusion"
        assert row["stop_reason"] == "max-iterations"
        assert row["iterations"] >= 20


# row 0 hides content from the right camera, row 1 from the left one
BOTH_FRAMES = """\
width = 80
height = 2
object = x0:8 width:30 shift:2 intensity:0.4 y0:0 height:1
object = x0:34 width:20 shift:7 intensity:0.8 y0:0 height:1
object = x0:10 width:10 shift:7 intensity:0.5 y0:1 height:1
object = x0:21 width:20 shift:4 intensity:0.6 y0:1 height:1
"""


def test_report_names_the_hidden_columns_of_either_frame(tmp_path, capsys):
    out = generate(tmp_path, BOTH_FRAMES)
    run = tmp_path / "run"
    code = main(["disparity", str(out / "left.pgm"), str(out / "right.pgm"),
                 "--niter", "10000", "--out-dir", str(run)])
    assert code == 0
    assert capsys.readouterr().err == ""
    mirror, plain = json.loads((run / "occlusion_report.json").read_text())["scanlines"]
    assert (mirror["intervals"], mirror["left_frame"]) == ([], [[36, 39]])
    # the occluder's rightmost left-image column
    assert mirror["object_shifts"][0][0] == 60
    assert (plain["intervals"], plain["left_frame"]) == ([[21, 22]], [])
    assert plain["object_shifts"][0][0] == 10
    for row in json.loads((run / "diagnostics.json").read_text())["scanlines"]:
        assert (row["path"], row["stop_reason"]) == ("occlusion", "converged")
    got = fileio.read_csv(run / "disparity.csv")
    truth = fileio.read_csv(out / "truth_disparity.csv")
    visible = np.isfinite(truth)
    visible[1, 21:23] = False
    assert np.array_equal(np.isfinite(got), visible)
    assert np.abs(got - truth)[visible].max() < 1e-4


def test_budget_stops_in_either_frame_are_named_on_stderr(tmp_path, capsys):
    out = generate(tmp_path, BOTH_FRAMES)
    run = tmp_path / "run"
    code = main(["disparity", str(out / "left.pgm"), str(out / "right.pgm"),
                 "--niter", "20", "--stop-tolerance", "0", "--out-dir", str(run)])
    assert code == 0
    assert capsys.readouterr().err.splitlines() == [
        "otstereo: scanlines [0, 1] stopped on the iteration budget before converging"
    ]
    for row in json.loads((run / "diagnostics.json").read_text())["scanlines"]:
        assert (row["path"], row["stop_reason"]) == ("occlusion", "max-iterations")


def test_disparity_occlusion_report(tmp_path):
    out = generate(tmp_path, OCCLUDED)
    run = tmp_path / "run"
    code = main(
        ["disparity", str(out / "left.pgm"), str(out / "right.pgm"),
         *FAST, "--out-dir", str(run)]
    )
    assert code == 0
    rep = json.loads((run / "occlusion_report.json").read_text())
    assert len(rep["scanlines"]) == 4
    first = rep["scanlines"][0]
    assert first["intervals"] == [[21, 22]]
    assert round(first["object_shifts"][0][1]) == 7
    got = fileio.read_csv(run / "disparity.csv")
    assert np.isnan(got[:, 21:23]).all()
    diag = json.loads((run / "diagnostics.json").read_text())
    # an occlusion row reports its remainder solve's full record
    assert set(diag["scanlines"][0]) == {
        "y", "path", "phi", "iterations", "stop_reason", "hilbert_u", "hilbert_v",
        "marginal_violation", "lam",
    }


# the near object hides columns 47-50 of a dim one: a mass gap of 3.7e-4
DIM_BAND = """\
width = 320
height = 1
object = x0:20 width:26 shift:9 intensity:0.5
object = x0:47 width:40 shift:4 intensity:0.02
object = x0:100 width:200 shift:3 intensity:1.0
"""


def test_small_mass_gap_is_peeled_at_the_defaults(tmp_path):
    out = generate(tmp_path, DIM_BAND)
    run = tmp_path / "run"
    code = main(["disparity", str(out / "left.pgm"), str(out / "right.pgm"),
                 "--out-dir", str(run)])
    assert code == 0
    row = json.loads((run / "diagnostics.json").read_text())["scanlines"][0]
    assert (row["path"], row["stop_reason"]) == ("occlusion", "converged")
    report = json.loads((run / "occlusion_report.json").read_text())["scanlines"][0]
    assert report["intervals"] == [[47, 50]]
    got = fileio.read_csv(run / "disparity.csv")
    truth = fileio.read_csv(out / "truth_disparity.csv")
    visible = np.isfinite(truth)
    visible[0, 47:51] = False
    assert np.array_equal(np.isfinite(got), visible)
    assert np.abs(got - truth)[visible].max() <= 1e-4


def test_disparity_round_trip_precision(tmp_path):
    out = generate(tmp_path, NON_OCCLUDED)
    run = tmp_path / "run"
    main(["disparity", str(out / "left.pgm"), str(out / "right.pgm"),
          *FAST, "--out-dir", str(run)])
    values = fileio.read_csv(run / "disparity.csv")
    fileio.write_csv(run / "again.csv", values)
    assert (run / "again.csv").read_bytes() == (run / "disparity.csv").read_bytes()


def test_disparity_runs_are_deterministic(tmp_path):
    out = generate(tmp_path, OCCLUDED)
    args = ["disparity", str(out / "left.pgm"), str(out / "right.pgm"), *FAST]
    main([*args, "--out-dir", str(tmp_path / "a")])
    main([*args, "--out-dir", str(tmp_path / "b")])
    for name in ("disparity.csv", "disparity.pgm", "occlusion_report.json",
                 "diagnostics.json"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_disparity_size_mismatch_exits_1(tmp_path):
    fileio.write_pgm(tmp_path / "a.pgm", np.zeros((2, 8)))
    fileio.write_pgm(tmp_path / "b.pgm", np.zeros((3, 8)))
    assert main(["disparity", str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm")]) == 1


def test_a_truncated_pgm_header_exits_1_naming_the_file(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P2\n3 2\n")
    proc = subprocess.run(
        [sys.executable, "-m", "otstereo.cli", "disparity", str(path), str(path)],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"otstereo: {path}: malformed PGM header\n"


def test_disparity_missing_file_exits_1(tmp_path):
    fileio.write_pgm(tmp_path / "a.pgm", np.zeros((2, 8)))
    assert main(["disparity", str(tmp_path / "nope.pgm"), str(tmp_path / "a.pgm")]) == 1


def test_unresolvable_surplus_exits_2(tmp_path, capsys):
    right = np.zeros((2, 40))
    right[:, 5] = 0.8
    right[:, 30] = 0.8
    left = np.zeros((2, 40))
    left[:, 5] = 0.8
    fileio.write_pgm(tmp_path / "l.pgm", left)
    fileio.write_pgm(tmp_path / "r.pgm", right)
    code = main(["disparity", str(tmp_path / "l.pgm"), str(tmp_path / "r.pgm"),
                 *FAST, "--out-dir", str(tmp_path / "run")])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err
    # partial outputs are still written
    assert (tmp_path / "run" / "disparity.csv").exists()


@pytest.mark.parametrize("flag", ["--plain", "--log-domain"])
def test_removed_domain_flags_are_usage_errors(flag):
    with pytest.raises(SystemExit, match=f"unrecognized arguments: {flag}"):
        main(["disparity", "l.pgm", "r.pgm", flag])


def test_reconstruct_planar_cloud(tmp_path):
    fileio.write_csv(tmp_path / "disp.csv", np.full((3, 5), 5.0))
    fileio.write_pgm(tmp_path / "img.pgm", np.full((3, 5), 0.5))
    out = tmp_path / "cloud.ply"
    code = main(["reconstruct", str(tmp_path / "disp.csv"),
                 str(tmp_path / "img.pgm"), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[2] == "element vertex 15"
    zs = {line.split()[2] for line in lines[8:]}
    assert zs == {"1000"}


def test_reconstruct_empty_disparity(tmp_path):
    (tmp_path / "disp.csv").write_text("")
    fileio.write_pgm(tmp_path / "img.pgm", np.zeros((1, 1)))
    out = tmp_path / "cloud.ply"
    code = main(["reconstruct", str(tmp_path / "disp.csv"),
                 str(tmp_path / "img.pgm"), "--out", str(out)])
    assert code == 0
    assert "element vertex 0" in out.read_text()


def test_reconstruct_malformed_csv_exits_1(tmp_path, capsys):
    (tmp_path / "disp.csv").write_text("1,2\n3\n")
    fileio.write_pgm(tmp_path / "img.pgm", np.zeros((2, 2)))
    assert main(["reconstruct", str(tmp_path / "disp.csv"),
                 str(tmp_path / "img.pgm")]) == 1
    assert "row 1" in capsys.readouterr().err


def test_reconstruct_grid_and_image_shapes_must_match(tmp_path, capsys):
    fileio.write_csv(tmp_path / "disp.csv", np.full((2, 3), 4.0))
    fileio.write_pgm(tmp_path / "img.pgm", np.zeros((3, 3)))
    out = tmp_path / "cloud.ply"
    assert main(["reconstruct", str(tmp_path / "disp.csv"), str(tmp_path / "img.pgm"),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "otstereo: disparity grid (2, 3) does not match image (3, 3)\n"
    )
    assert not out.exists()


def test_reconstruct_applies_rig_flags(tmp_path):
    fileio.write_csv(tmp_path / "disp.csv", np.full((1, 2), 4.0))
    fileio.write_pgm(tmp_path / "img.pgm", np.full((1, 2), 1.0))
    out = tmp_path / "cloud.ply"
    main(["reconstruct", str(tmp_path / "disp.csv"), str(tmp_path / "img.pgm"),
          "--out", str(out), "--baseline", "20", "--focal", "500", "--beta", "1"])
    z = float(out.read_text().splitlines()[8].split()[2])
    assert z == pytest.approx(500 * 20 / 4.0)
    # no rig flag gives CameraRig's defaults
    clouds = []
    for rig_flags in ([], ["--baseline", "10", "--focal", "1000", "--beta", "2"]):
        assert main(["reconstruct", str(tmp_path / "disp.csv"), str(tmp_path / "img.pgm"),
                     "--out", str(out), *rig_flags]) == 0
        clouds.append(out.read_bytes())
    assert clouds[0] == clouds[1]


def test_diagnose_series_and_gap(tmp_path):
    out = generate(tmp_path, OCCLUDED)
    run = tmp_path / "diag"
    code = main(["diagnose", str(out / "left.pgm"), str(out / "right.pgm"),
                 "--y", "0", *FAST, "--out-dir", str(run)])
    assert code == 0
    payload = json.loads((run / "diagnose.json").read_text())
    left = fileio.read_pgm(out / "left.pgm")
    right = fileio.read_pgm(out / "right.pgm")
    expected_gap = right[0].sum() - left[0].sum()
    # the odd plan's mass tracks the source mass up to accumulated
    # rounding in the log-domain scatter
    assert payload["mass_gap"] == pytest.approx(expected_gap, abs=1e-6)
    assert payload["lam"] == pytest.approx(1.0)
    series = (run / "diagnose_series.csv").read_text().splitlines()
    assert series[0] == "iteration,hilbert_u_step,hilbert_v_step,u_error,profile_error"
    assert len(series) == payload["iterations"] + 1
    # the rows are the trace's records: the iteration whole, the
    # probes as write_csv spells them
    nu0 = measure_from_row(right[0])
    nu1 = measure_from_row(left[0])
    config = SinkhornConfig(DEFAULT_CONFIG.epsilon, 4000, 1e-9)
    kernel = build_kernel(60, config.epsilon)
    records = iteration_trace(nu0, nu1, kernel, config)[0]

    def spell(value):
        return f"{value:.9g}" if np.isfinite(value) else "NaN"

    assert series[1:] == [",".join([str(r.iteration), *map(spell, r[1:])]) for r in records]
    plan = fileio.read_csv(run / "diagnose_plan.csv")
    assert plan.shape == (60, 60)
    assert plan.sum() == pytest.approx(right[0].sum(), abs=1e-6)


def test_diagnose_identical_rows_converges_immediately(tmp_path):
    image = np.zeros((2, 40))
    image[:, 10:20] = 0.5
    fileio.write_pgm(tmp_path / "img.pgm", image)
    run = tmp_path / "diag"
    code = main(["diagnose", str(tmp_path / "img.pgm"), str(tmp_path / "img.pgm"),
                 "--y", "0", "--stop-tolerance", "1e-8", "--out-dir", str(run)])
    assert code == 0
    payload = json.loads((run / "diagnose.json").read_text())
    assert payload["iterations"] <= 2
    assert payload["stop_reason"] == "converged"
    assert abs(payload["mass_gap"]) < 1e-12


def test_diagnose_profile_error_decays(tmp_path):
    out = generate(tmp_path, NON_OCCLUDED)
    run = tmp_path / "diag"
    main(["diagnose", str(out / "left.pgm"), str(out / "right.pgm"),
          "--y", "0", *FAST, "--out-dir", str(run)])
    rows = (run / "diagnose_series.csv").read_text().splitlines()[1:]
    errors = [float(r.split(",")[4]) for r in rows]
    assert errors[-1] <= 1e-8
    assert errors[len(errors) // 2] <= errors[0]


def test_diagnose_rejects_bad_scanline(tmp_path, capsys):
    out = generate(tmp_path, NON_OCCLUDED)
    code = main(["diagnose", str(out / "left.pgm"), str(out / "right.pgm"),
                 "--y", "99"])
    assert code == 1
    assert "scanline" in capsys.readouterr().err


def test_diagnose_image_shapes_must_match(tmp_path, capsys):
    fileio.write_pgm(tmp_path / "a.pgm", np.zeros((2, 8)))
    fileio.write_pgm(tmp_path / "b.pgm", np.zeros((3, 8)))
    run = tmp_path / "run"
    assert main(["diagnose", str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm"),
                 "--y", "0", "--out-dir", str(run)]) == 1
    assert capsys.readouterr().err == "otstereo: image shapes (2, 8) and (3, 8) differ\n"
    assert not run.exists()


def test_diagnose_rejects_a_scanline_without_mass(tmp_path, capsys):
    # the traced solve checks the rows, as every solve does
    image = np.zeros((3, 8))
    image[[0, 2], 2:5] = 0.5
    fileio.write_pgm(tmp_path / "img.pgm", image)
    run = tmp_path / "run"
    assert main(["diagnose", str(tmp_path / "img.pgm"), str(tmp_path / "img.pgm"),
                 "--y", "1", "--out-dir", str(run)]) == 1
    assert capsys.readouterr().err == "otstereo: both scanlines must carry positive mass\n"
    assert not run.exists()


def test_config_file_and_flag_override(tmp_path):
    out = generate(tmp_path, NON_OCCLUDED)
    sub = tmp_path / "from-file"
    config = tmp_path / "run.cfg"
    config.write_text(
        f"# run settings\nniter = 4000\nstop_tolerance = 1e-9\nout_dir = {sub}\n"
    )
    code = main(["disparity", str(out / "left.pgm"), str(out / "right.pgm"),
                 "--config", str(config)])
    assert code == 0
    assert (sub / "disparity.csv").exists()
    override = tmp_path / "from-flag"
    main(["disparity", str(out / "left.pgm"), str(out / "right.pgm"),
          "--config", str(config), "--out-dir", str(override)])
    assert (override / "disparity.csv").exists()


def test_unknown_config_key_exits_1(tmp_path, capsys):
    out = generate(tmp_path, NON_OCCLUDED)
    config = tmp_path / "run.cfg"
    config.write_text("gamma = 3\n")
    assert main(["disparity", str(out / "left.pgm"), str(out / "right.pgm"),
                 "--config", str(config)]) == 1
    assert "line 1" in capsys.readouterr().err
    # a repeated key is an error, not a silent override
    config.write_text("epsilon = 0.1\nepsilon = 0.5\n")
    assert main(["disparity", str(out / "left.pgm"), str(out / "right.pgm"),
                 "--config", str(config)]) == 1
    assert "config line 2: duplicate entry 'epsilon'" in capsys.readouterr().err


def test_zero_stop_tolerance_runs_the_full_budget(tmp_path):
    out = generate(tmp_path, NON_OCCLUDED)
    run = tmp_path / "run"
    assert main(["disparity", str(out / "left.pgm"), str(out / "right.pgm"),
                 "--niter", "300", "--stop-tolerance", "0",
                 "--out-dir", str(run)]) == 0
    row = json.loads((run / "diagnostics.json").read_text())["scanlines"][0]
    assert row["path"] == "balanced"
    assert row["iterations"] == 300
    assert row["stop_reason"] == "max-iterations"


def test_a_bad_config_value_names_its_line(tmp_path, capsys):
    with pytest.raises(ValueError) as error:
        parse_run_config("# run settings\nniter = ten\n")
    assert str(error.value) == (
        "config line 2: invalid literal for int() with base 10: 'ten'"
    )
    out = generate(tmp_path, NON_OCCLUDED)
    config = tmp_path / "run.cfg"
    config.write_text("epsilon = small\n")
    assert main(["disparity", str(out / "left.pgm"), str(out / "right.pgm"),
                 "--config", str(config)]) == 1
    assert capsys.readouterr().err == (
        "otstereo: config line 1: could not convert string to float: 'small'\n"
    )


@pytest.mark.parametrize(
    "line", ["stop = tolerance", "workers = 2", "log_domain = on"]
)
def test_removed_config_keys_are_rejected(line):
    with pytest.raises(ValueError, match="config line 2: unknown entry"):
        parse_run_config(f"niter = 10\n{line}\n")


def test_invalid_epsilon_exits_1(tmp_path):
    out = generate(tmp_path, NON_OCCLUDED)
    assert main(["disparity", str(out / "left.pgm"), str(out / "right.pgm"),
                 "--epsilon", "-1"]) == 1


@pytest.mark.parametrize("command", ["disparity", "diagnose"])
@pytest.mark.parametrize("key", ["epsilon", "stop_tolerance"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_settings_exit_1(tmp_path, capsys, command, key, value):
    out = generate(tmp_path, NON_OCCLUDED)
    pair = [command, str(out / "left.pgm"), str(out / "right.pgm")]
    if command == "diagnose":
        pair += ["--y", "1"]
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {value}\n")
    flag = ["--" + key.replace("_", "-"), value]
    for settings in (flag, ["--config", str(config)]):
        run = tmp_path / "run"
        assert main([*pair, *settings, "--out-dir", str(run)]) == 1
        assert f"{key} must be" in capsys.readouterr().err
        assert not run.exists()


@pytest.mark.parametrize("command", ["disparity", "diagnose"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_a_budget_below_one_names_niter(tmp_path, capsys, command, value):
    out = generate(tmp_path, NON_OCCLUDED)
    pair = [command, str(out / "left.pgm"), str(out / "right.pgm")]
    if command == "diagnose":
        pair += ["--y", "1"]
    config = tmp_path / "run.cfg"
    config.write_text(f"niter = {value}\n")
    for settings in (["--niter", value], ["--config", str(config)]):
        run = tmp_path / "run"
        assert main([*pair, *settings, "--out-dir", str(run)]) == 1
        assert capsys.readouterr().err == "otstereo: niter must be at least 1\n"
        assert not run.exists()


def test_usage_errors_exit_1():
    proc = subprocess.run(
        [sys.executable, "-m", "otstereo.cli", "disparity"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "usage" in proc.stderr


def test_console_entry_module_runs(tmp_path):
    scene = tmp_path / "scene.txt"
    scene.write_text(NON_OCCLUDED)
    proc = subprocess.run(
        [sys.executable, "-m", "otstereo.cli", "generate", str(scene),
         "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "out" / "left.pgm").exists()


def json_dump_text(records) -> str:
    """diagnostics.json as json.dump spelled it record by record."""
    payload = {"scanlines": [{k: _clean(v) for k, v in r.items()} for r in records]}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def rendered_row(objects, d=80):
    rig = CameraRig()
    scene = CartoonScene(width=d, height=1, objects=tuple(
        SceneObject(x0=x0, width=w, depth=depth_from_disparity(s, rig), intensity=i)
        for x0, w, s, i in objects
    ))
    pair = render_pair(scene, rig)
    return pair.left[0], pair.right[0]


def test_diagnostics_text_is_json_dump_byte_for_byte():
    plain = np.zeros(80)
    plain[30:50] = 0.5
    zero = np.zeros(80)
    occlusion = rendered_row([(10, 10, 7, 0.5), (21, 20, 4, 0.6)])
    rows = [
        occlusion,
        rendered_row([(8, 30, 2, 0.4), (34, 20, 7, 0.8)]),  # left view heavier
        rendered_row([(8, 4, 9, 0.3), (12, 15, 3, 0.75)]),  # fails the check
        (plain, plain),
        (zero, zero),
        (plain, zero),
        occlusion,
    ]
    left = np.vstack([row[0] for row in rows])
    right = np.vstack([row[1] for row in rows])
    records = disparity_map(left, right, DEFAULT_CONFIG).diagnostics
    assert [r["path"] for r in records] == [
        "occlusion", "occlusion", "failed", "balanced", "empty", "one-sided",
        "occlusion",
    ]
    assert records[2]["error"]
    # values that compare equal but spell differently, NaN and infinity
    # written as null, numpy scalars, a key sorting after "y", and a
    # string holding what the stand-in's line looks like
    records += (
        {"y": 7, "path": "balanced", "phi": 0},
        {"y": 8, "path": "balanced", "phi": 0.0},
        {"y": 9, "path": "balanced", "phi": -0.0},
        {"y": 10, "phi": np.float64(np.nan), "lam": -np.inf, "iterations": np.int64(3)},
        {"y": 11, "zeta": 1, "error": 'x\n      "y": 0'},
    )
    assert _scanlines_text(records) == json_dump_text(records)
    assert _scanlines_text(()) == json_dump_text(())


def test_diagnostics_file_is_json_dump_byte_for_byte(tmp_path):
    out = generate(tmp_path, OCCLUDED)
    run = tmp_path / "run"
    left, right = out / "left.pgm", out / "right.pgm"
    assert main(["disparity", str(left), str(right), "--out-dir", str(run)]) == 0
    result = disparity_map(fileio.read_pgm(left), fileio.read_pgm(right),
                           DEFAULT_CONFIG)
    text = (run / "diagnostics.json").read_text()
    assert text == json_dump_text(result.diagnostics)
    # the reports as json.dump spells their fields but the solve
    reports = [{k: v for k, v in r._asdict().items() if k != "solve"}
               for r in result.reports]
    assert reports
    text = (run / "occlusion_report.json").read_text()
    assert text == json.dumps({"scanlines": reports}, indent=2, sort_keys=True) + "\n"


def spelled(args) -> dict:
    """Each attribute's repr: NaN matches NaN, and 1 neither 1.0 nor True."""
    return {name: repr(value) for name, value in vars(args).items()}


def argparse_args(parser, argv):
    """spelled(parser.parse_args(argv)), or None where argparse exits."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return spelled(parser.parse_args(argv))
    except SystemExit:
        return None


VALUES = ["1", "12", "0.5", "1e-3", "nan", "-1", "-2.5", "abc", "", "x.pgm", "-"]
WORDS = ["a.pgm", "b", "7", "out dir", "generate", "--", "-h"]
ODD_TOKENS = ["-h", "--help", "--", "--bogus", "-x", "-1", "--out-dir=run", "--niter=5"]


def random_argv(rng: random.Random) -> list[str]:
    """An argv drawn from the command table's words, many of them malformed."""
    name = rng.choice([*COMMANDS, "solve", "--help"])
    _, _, positionals, flags = COMMANDS.get(name, COMMANDS["disparity"])
    pieces = [[rng.choice(WORDS[:5])]
              for _ in range(max(0, len(positionals) + rng.choice([-1, 0, 0, 0, 0, 1])))]
    if rng.random() < 0.1:
        pieces.append([rng.choice(WORDS)])
    for _ in range(rng.randrange(5)):
        flag, _ = rng.choice(flags)
        value = rng.choice(VALUES)
        form = rng.randrange(12)
        if form == 0:
            pieces.append([flag[: rng.randrange(3, len(flag) + 1)], value])  # abbreviated
        elif form == 1:
            pieces.append([f"{flag}={value}"])
        elif form == 2:
            pieces.append([flag])  # its value missing
        elif form == 3:
            pieces.append([rng.choice(ODD_TOKENS)])
        else:
            pieces.append([flag, value])
    if name == "diagnose" and rng.random() < 0.8:
        pieces.append(["--y", rng.choice(["1", "0", "3"])])
    if rng.random() < 0.5:
        rng.shuffle(pieces)  # flags before, between and after the positionals
    return [name, *(token for piece in pieces for token in piece)]


def test_the_plain_reader_agrees_with_argparse():
    parser = build_parser()
    rng = random.Random(29)
    read = 0
    for _ in range(3000):
        argv = random_argv(rng)
        plain = _plain_args(argv)
        if plain is not None:
            assert spelled(plain) == argparse_args(parser, argv), argv
            read += 1
    # the draws reach the plain reader often enough to test it
    assert read > 300


@pytest.mark.parametrize("argv", [
    ["diagnose", "l.pgm", "r.pgm"],  # --y is required
    ["disparity", "l.pgm", "r.pgm", "--niter"],
    ["disparity", "l.pgm", "r.pgm", "--niter", "-3"],
    ["disparity", "l.pgm", "r.pgm", "--niter", "1.5"],
    ["disparity", "l.pgm", "r.pgm", "--epsilon=0.1"],
    ["disparity", "l.pgm", "r.pgm", "--eps", "0.1"],
    ["disparity", "l.pgm", "--", "r.pgm"],
    ["disparity", "l.pgm", "r.pgm", "extra.pgm"],
    ["generate", "--help"],
    ["generate", "scene.txt", "--out", "pair"],
    ["solve", "l.pgm", "r.pgm"],
    [],
])
def test_the_plain_reader_leaves_other_forms_to_argparse(argv):
    assert _plain_args(argv) is None


def test_the_benchmark_and_digest_argvs_are_read_plainly():
    root = Path(__file__).resolve().parents[1]
    code = """\
import json, sys
from pathlib import Path
sys.dont_write_bytecode = True
root = Path(sys.argv[1])
sys.path[:0] = [str(root / "perfbench"), str(root / "tools")]
import output_digests, run
argvs = [argv for _, argv in output_digests.COMMANDS]
for workload in sorted(run.scenes.SCENES):
    argvs += [[str(a) for a in step.argv]
              for step in run._steps(workload, Path("work"), "run", (4, 6))]
print(json.dumps(argvs))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code, str(root)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    argvs = json.loads(proc.stdout)
    commands = {argv[0] for argv in argvs}
    assert commands == {"generate", "disparity", "reconstruct", "diagnose"}
    parser = build_parser()
    for argv in argvs:
        plain = _plain_args(argv)
        assert plain is not None, argv
        assert spelled(plain) == argparse_args(parser, argv)


def test_command_phases_times_every_command_once(tmp_path):
    root = Path(__file__).resolve().parents[1]
    scene = tmp_path / "scene.txt"
    scene.write_text("width = 40\nheight = 3\nobject = x0:10 width:8 shift:3 intensity:0.5\n")
    proc = subprocess.run(
        [sys.executable, str(root / "tools" / "command_phases.py"), str(root / "src"),
         "--scene", str(scene), "--runs", "1"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines() if line.startswith("   0 ")]
    assert [row[1] for row in rows] == [
        "generate", "disparity", "disparity-config", "reconstruct", "diagnose"
    ]
