import json
import subprocess
import sys

import numpy as np
import pytest

from otstereo import fileio
from otstereo.cli import main, parse_run_config

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


def test_budget_stops_are_named_on_stderr(tmp_path, capsys):
    out = generate(tmp_path, OCCLUDED)
    run = tmp_path / "run"
    code = main(["disparity", str(out / "left.pgm"), str(out / "right.pgm"),
                 "--niter", "30", "--out-dir", str(run)])
    assert code == 0
    err = capsys.readouterr().err.splitlines()
    assert err == ["otstereo: scanlines [0, 1, 2, 3] stopped on the iteration "
                   "budget before converging"]
    # occlusion rows sum their sub-solves' iterations
    for row in json.loads((run / "diagnostics.json").read_text())["scanlines"]:
        assert row["path"] == "occlusion"
        assert row["stop_reason"] == "max-iterations"
        assert row["iterations"] >= 30


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
    assert {"iterations", "stop_reason"} <= set(diag["scanlines"][0])


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


def test_reconstruct_applies_rig_flags(tmp_path):
    fileio.write_csv(tmp_path / "disp.csv", np.full((1, 2), 4.0))
    fileio.write_pgm(tmp_path / "img.pgm", np.full((1, 2), 1.0))
    out = tmp_path / "cloud.ply"
    main(["reconstruct", str(tmp_path / "disp.csv"), str(tmp_path / "img.pgm"),
          "--out", str(out), "--baseline", "20", "--focal", "500", "--beta", "1"])
    z = float(out.read_text().splitlines()[8].split()[2])
    assert z == pytest.approx(500 * 20 / 4.0)


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
