"""Parsers and checks for the files the otstereo command line promises.

The benchmark reads the program's outputs with its own parsers, so a
defect shared by a writer and its matching reader in the package cannot
hide. Every check raises OutputError with a message naming the file.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

PATHS = ("balanced", "occlusion", "unbalanced-mirror", "failed", "empty", "one-sided")

GENERATE_FILES = ("left.pgm", "right.pgm", "truth_disparity.csv", "occlusions.json")
DISPARITY_FILES = (
    "disparity.csv", "disparity.pgm", "occlusion_report.json", "diagnostics.json",
)


class OutputError(Exception):
    """An output is missing, malformed, or inconsistent with the frame."""


def digest(path: Path) -> str:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError as exc:
        raise OutputError(f"{path.name}: {exc.strerror}") from None


def read_pgm(path: Path) -> np.ndarray:
    """Intensity levels of an ASCII P2 image, as an (h, w) integer array."""
    tokens = []
    for line in path.read_text(encoding="ascii").splitlines():
        tokens.extend(line.split("#", 1)[0].split())
    if len(tokens) < 4 or tokens[0] != "P2":
        raise OutputError(f"{path.name}: not an ASCII PGM")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
        levels = np.array([int(t) for t in tokens[4:]], dtype=int)
    except ValueError:
        raise OutputError(f"{path.name}: non-integer token") from None
    if levels.size != width * height:
        raise OutputError(f"{path.name}: {levels.size} samples for {width}x{height}")
    if levels.min(initial=0) < 0 or levels.max(initial=0) > maxval:
        raise OutputError(f"{path.name}: sample outside [0, {maxval}]")
    return levels.reshape(height, width)


def read_csv(path: Path) -> np.ndarray:
    """A NaN-tokened grid; every row must have the same number of cells."""
    rows = [line.split(",") for line in path.read_text(encoding="ascii").splitlines()]
    if not rows or any(len(row) != len(rows[0]) for row in rows):
        raise OutputError(f"{path.name}: ragged or empty grid")
    try:
        return np.array(rows, dtype=float)
    except ValueError:
        raise OutputError(f"{path.name}: non-numeric cell") from None


def read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError:
        raise OutputError(f"{path.name}: malformed JSON") from None


def read_ply(path: Path) -> np.ndarray:
    """Vertices of an ASCII PLY with x, y, z, intensity, as an (n, 4) array."""
    lines = path.read_text(encoding="ascii").splitlines()
    try:
        end = lines.index("end_header")
        count = int(lines[2].removeprefix("element vertex "))
        points = np.array([line.split() for line in lines[end + 1 :]], dtype=float)
    except ValueError:
        raise OutputError(f"{path.name}: malformed PLY") from None
    if lines[0] != "ply" or len(lines) - end - 1 != count:
        raise OutputError(f"{path.name}: header promises {count} vertices")
    return points.reshape(count, 4)


def _intervals(entries, width: int, name: str) -> list[tuple[int, int]]:
    out = []
    for lo, hi in entries:
        if not 0 <= lo <= hi < width:
            raise OutputError(f"{name}: interval [{lo}, {hi}] outside the frame")
        out.append((lo, hi))
    return out


def _scanlines(payload, height: int, name: str) -> list:
    lines = payload.get("scanlines") if isinstance(payload, dict) else None
    if not isinstance(lines, list) or not all(0 <= s.get("y", -1) < height for s in lines):
        raise OutputError(f"{name}: scanlines missing or outside the frame")
    return lines


def check_generate(out: Path, shape: tuple[int, int]) -> None:
    for name in ("left.pgm", "right.pgm"):
        if read_pgm(out / name).shape != shape:
            raise OutputError(f"{name}: shape differs from the scene frame {shape}")
    if read_csv(out / "truth_disparity.csv").shape != shape:
        raise OutputError(f"truth_disparity.csv: shape differs from {shape}")
    for line in _scanlines(read_json(out / "occlusions.json"), shape[0], "occlusions.json"):
        _intervals(line["right_frame"], shape[1], "occlusions.json")
        _intervals(line["left_frame"], shape[1], "occlusions.json")


def check_disparity(out: Path, shape: tuple[int, int]) -> None:
    h, w = shape
    if read_csv(out / "disparity.csv").shape != shape:
        raise OutputError(f"disparity.csv: shape differs from {shape}")
    if read_pgm(out / "disparity.pgm").shape != shape:
        raise OutputError(f"disparity.pgm: shape differs from {shape}")
    for line in _scanlines(
        read_json(out / "occlusion_report.json"), h, "occlusion_report.json"
    ):
        _intervals(line["intervals"], w, "occlusion_report.json")
    lines = _scanlines(read_json(out / "diagnostics.json"), h, "diagnostics.json")
    if [s["y"] for s in lines] != list(range(h)):
        raise OutputError(f"diagnostics.json: {len(lines)} rows for a frame of {h}")
    unknown = {s.get("path") for s in lines} - set(PATHS)
    if unknown:
        raise OutputError(f"diagnostics.json: unknown paths {sorted(unknown)}")


def check_reconstruct(ply: Path, disparity_csv: Path, rig) -> None:
    """The cloud holds exactly one point per positive disparity, at its depth."""
    values = read_csv(disparity_csv)
    points = read_ply(ply)
    with np.errstate(invalid="ignore"):
        keep = np.isfinite(values) & (values > 0.0)
    ys, xs = np.nonzero(keep)
    if points.shape[0] != ys.size:
        raise OutputError(f"{ply.name}: {points.shape[0]} points for {ys.size} pixels")
    baseline, focal, beta = rig
    depth = focal * baseline / (beta * values[ys, xs])
    expected = np.column_stack([xs, ys, depth])
    if not np.allclose(points[:, :3], expected, rtol=1e-6, atol=1e-6):
        raise OutputError(f"{ply.name}: points disagree with the disparity grid")
