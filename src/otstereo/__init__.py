"""Entropic transport on stereo scanlines with occlusion recovery.

The pipeline treats each pair of rectified scanlines as two measures
on the pixel grid, solves the quadratic-cost entropic transport
between them, and reads the disparity off the plan's barycenters.
Rows whose masses differ route through an occlusion recovery loop
that localizes the hidden interval and the rigid shift of the
occluding object.

Importing the package loads none of its submodules: each exported
name imports its submodule on first access (PEP 562), so a command
that never solves never loads the solver stack.
"""
from importlib import import_module

_SUBMODULES = {
    "disparity": (
        "OcclusionReport",
        "compression",
        "disparity_map",
        "disparity_profile",
        "estimate_phi",
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
    "exact": ("brute_force_plan", "exact_cost", "monotone_plan"),
    "kernel": ("GibbsKernel", "build_kernel", "hilbert_distance"),
    "maps": ("DisparityMap",),
    "measures": ("compare_masses", "measure_from_row"),
    "scaling": (
        "ConvergenceReport",
        "ScalingVectors",
        "ShiftedLimits",
        "SinkhornConfig",
        "iteration_trace",
        "kl_divergence",
        "project_cols",
        "project_rows",
        "regularized_cost",
        "shifted_sinkhorn",
        "sinkhorn",
        "transport_cost",
    ),
    "scene": (
        "CameraRig",
        "CartoonScene",
        "PointCloud",
        "RenderedPair",
        "SceneObject",
        "depth_from_disparity",
        "load_scene",
        "map_from_values",
        "parse_scene",
        "pixel_shift",
        "reconstruct",
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
