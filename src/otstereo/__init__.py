"""Entropic transport on stereo scanlines with occlusion recovery.

The pipeline treats each pair of rectified scanlines as two measures
on the pixel grid, solves the quadratic-cost entropic transport
between them, and reads the disparity off the plan's barycenters.
Rows whose masses differ route through an occlusion recovery loop
that localizes the hidden interval and the rigid shift of the
occluding object.

Importing the package loads none of its submodules: each exported
name imports its submodule on first access (PEP 562), so a command
that never solves never loads the solver stack. The paper's reference
objects (exact costs, the dense kernel, the projections) live in
otstereo.reference, which no command loads.
"""
from importlib import import_module

_SUBMODULES = {
    "disparity": (
        "DEFAULT_CONFIG",
        "OcclusionReport",
        "compare_masses",
        "compression",
        "disparity_map",
        "measure_from_row",
        "recover_occlusions",
    ),
    "errors": (
        "DimensionMismatchError",
        "EmptyScanlineError",
        "InfeasibleProjectionError",
        "InstanceTooLargeError",
        "InvalidIntensityError",
        "MassMismatchError",
        "NoPlateauError",
        "OtStereoError",
        "OutOfFrameError",
        "QuantizationError",
        "SceneFormatError",
        "SupportMismatchError",
        "UnresolvedOcclusionError",
        "WrongPathError",
    ),
    "geometry": ("CameraRig", "depth_from_disparity", "pixel_shift", "reconstruct"),
    "maps": ("DisparityMap", "map_from_values"),
    "reference": (
        "brute_force_plan",
        "estimate_phi",
        "exact_cost",
        "hilbert_distance",
        "project_cols",
        "project_rows",
        "transport_cost",
    ),
    "scaling": (
        "ConvergenceReport",
        "GibbsKernel",
        "ScalingVectors",
        "ShiftedLimits",
        "SinkhornConfig",
        "build_kernel",
        "disparity_profile",
        "iteration_trace",
        "monotone_plan",
        "shifted_sinkhorn",
        "sinkhorn",
    ),
    "scene": (
        "CartoonScene",
        "RenderedPair",
        "SceneObject",
        "load_scene",
        "parse_scene",
        "render_pair",
    ),
}
_EXPORTS = {name: module for module, names in _SUBMODULES.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
