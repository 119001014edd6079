"""Gibbs smoothing kernel for the quadratic pixel cost.

The kernel entry for columns i, j is exp(-(i - j)^2 / epsilon). Its
cross ratio bounds the contraction factor of the scaling iteration in
the Hilbert projective metric, which is what all convergence
diagnostics are measured against.
"""
from __future__ import annotations

import math

import numpy as np

from .records import Record


class GibbsKernel(Record):
    """Quadratic-cost kernel on a d-column pixel grid.

    eta is the extremal cross ratio max K_ij K_kl / (K_kj K_il); for
    this kernel it equals exp(2 (d-1)^2 / epsilon), attained at the
    corner indices, so only its logarithm is stored. The contraction
    factor lam = (sqrt(eta) - 1) / (sqrt(eta) + 1) is computed from
    the exponent directly and stays finite for every image width.
    The solvers build only the kernel blocks of each row's support;
    otstereo.reference builds the dense d x d entries.
    """

    _fields = ("epsilon", "d")
    __slots__ = _fields + ("log_eta", "lam")

    def __init__(self, epsilon: float, d: int):
        log_eta = 2.0 * (d - 1) ** 2 / epsilon
        # tanh(t/2) == (e^t - 1) / (e^t + 1) with t = log(sqrt(eta))
        self._set(epsilon=epsilon, d=d, log_eta=log_eta, lam=math.tanh(log_eta / 4.0))


def build_kernel(d: int, epsilon: float) -> GibbsKernel:
    """Validate the width and blur and return their Gibbs kernel."""
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise ValueError(f"kernel size must be a positive integer, got {d!r}")
    real = (int, float, np.integer, np.floating)
    if not (isinstance(epsilon, real) and math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    return GibbsKernel(epsilon=float(epsilon), d=int(d))
