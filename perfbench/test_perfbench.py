"""Tests of the benchmark's own parts: scenes, scorer, checks and tracing.

Run from the root of the repository with `python3 -m pytest perfbench`.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import otstereo.cli  # noqa: E402

import metrics  # noqa: E402
import run  # noqa: E402
import scenes  # noqa: E402
import spans  # noqa: E402
from outputs import GENERATE_FILES, OutputError, check_disparity  # noqa: E402
from score import score  # noqa: E402


def _generate(tmp_path: Path, name: str, text: str) -> Path:
    scene = tmp_path / f"{name}.txt"
    scene.write_text(text)
    out = tmp_path / name
    assert otstereo.cli.main(["generate", str(scene), "--out-dir", str(out)]) == 0
    return out


@pytest.mark.parametrize("workload", metrics.ALL)
def test_same_seed_gives_same_scene_files(tmp_path, workload):
    make = scenes.SCENES[workload]
    assert make(7) != make(8)
    first = _generate(tmp_path, "first", make(7))
    second = _generate(tmp_path, "second", make(7))
    for name in GENERATE_FILES:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_seed_keeps_every_layout_intact():
    for seed in range(20):
        text = scenes.occluded_bands(seed)
        assert "object = x0:20 width:26 shift:9 intensity:0.5 y0:0 height:1" in text
        assert run._frame(text) == (1 + len(scenes.OCCLUDED_LAYOUTS), scenes.BAND_WIDTH)


def _truth_as_run(scene_dir: Path, run_dir: Path) -> None:
    """A run directory whose outputs are the ground truth itself."""
    run_dir.mkdir()
    shutil.copy(scene_dir / "truth_disparity.csv", run_dir / "disparity.csv")
    hidden = json.loads((scene_dir / "occlusions.json").read_text())["scanlines"]
    height = len((scene_dir / "truth_disparity.csv").read_text().splitlines())
    (run_dir / "occlusion_report.json").write_text(json.dumps({"scanlines": [
        {"y": line["y"], "intervals": line["right_frame"]} for line in hidden
    ]}))
    (run_dir / "diagnostics.json").write_text(json.dumps({"scanlines": [
        {"y": y, "path": "balanced"} for y in range(height)
    ]}))


def test_truth_scored_against_itself_is_perfect(tmp_path):
    scene_dir = _generate(tmp_path, "scene", scenes.occluded_bands(3))
    _truth_as_run(scene_dir, tmp_path / "run")
    result = score(scene_dir, tmp_path / "run")
    assert result["max_err_px"] == 0.0
    assert result["bad_px_frac"] == 0.0
    assert result["occlusion_iou"] == 1.0


def test_scorer_sees_one_wrong_pixel_and_a_missed_occlusion(tmp_path):
    scene_dir = _generate(tmp_path, "scene", scenes.occluded_bands(3))
    run_dir = tmp_path / "run"
    _truth_as_run(scene_dir, run_dir)
    # the README row is row 0; column 30 is visible on its near object
    rows = [line.split(",") for line in (run_dir / "disparity.csv").read_text().splitlines()]
    rows[0][30] = str(float(rows[0][30]) + 1.0)
    (run_dir / "disparity.csv").write_text("".join(",".join(r) + "\n" for r in rows))
    (run_dir / "occlusion_report.json").write_text('{"scanlines": []}')
    result = score(scene_dir, run_dir)
    assert result["max_err_px"] == pytest.approx(1.0)
    assert 0.0 < result["bad_px_frac"] < 0.02
    assert result["occlusion_iou"] == 0.0
    assert result["max_err_px.balanced"] == pytest.approx(1.0)


def test_disparity_check_rejects_a_short_diagnostics_file(tmp_path):
    scene_dir = _generate(tmp_path, "scene", scenes.occluded_bands(1))
    run_dir = tmp_path / "run"
    _truth_as_run(scene_dir, run_dir)
    shutil.copy(scene_dir / "left.pgm", run_dir / "disparity.pgm")
    shape = run._frame(scenes.occluded_bands(1))
    check_disparity(run_dir, shape)
    (run_dir / "diagnostics.json").write_text('{"scanlines": [{"y": 0, "path": "balanced"}]}')
    with pytest.raises(OutputError, match="diagnostics.json"):
        check_disparity(run_dir, shape)


def test_wrappers_restore_the_original_functions():
    originals = [getattr(module, attr) for module, attr, _ in spans.TARGETS]
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with spans.installed(tracer):
            wrapped = [getattr(module, attr) for module, attr, _ in spans.TARGETS]
            assert all(w.__wrapped__ is o for w, o in zip(wrapped, originals))
            raise RuntimeError("leave the block early")
    restored = [getattr(module, attr) for module, attr, _ in spans.TARGETS]
    assert all(r is o for r, o in zip(restored, originals))


def test_self_times_subtract_children():
    tracer = spans.Tracer()
    with tracer.span("cli.root") as root:
        with tracer.span("fileio.a") as a:
            pass
        with tracer.span("kernel.b") as b:
            with tracer.span("sinkhorn.c") as c:
                pass
    own = tracer.self_times()
    assert [s.parent for s in tracer.spans] == [None, 0, 0, 2]
    assert own[0] == pytest.approx(root.duration - a.duration - b.duration)
    assert own[2] == pytest.approx(b.duration - c.duration)
    assert sum(own) == pytest.approx(root.duration)


def test_traced_run_reports_every_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(metrics, "NITER", {"wide_roundtrip": 50})
    result = run.traced("wide_roundtrip", 1, 0.0, tmp_path)
    values = result["values"]
    assert set(values) == set(metrics.PER_LAYER)
    assert result["checker"].failures == []
    assert values["shifted.calls"] == 0 and values["exact.monotone_calls"] == 0
    assert values["sinkhorn.calls"] == 1 and values["sinkhorn.iterations"] == 50
    assert values["disparity.unique_rows"] == 1
    assert values["disparity.rows"] == scenes.WIDE_HEIGHT
    assert 0.0 < values["trace.accounted_frac"] < 1.0


def test_benchmark_json_matches_the_metric_tables():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(metrics.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]} == {
        name: spec[:3] for name, spec in metrics.GATED.items()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == {
        name: spec[:2] for name, spec in metrics.PER_LAYER.items()
    }


def test_reference_work_runs_in_a_child(tmp_path):
    inv = run.run_child([run.REFERENCE, tmp_path / "reference.csv"], tmp_path / "stderr.log")
    assert inv.code == 0
    assert (tmp_path / "reference.csv").is_file()
