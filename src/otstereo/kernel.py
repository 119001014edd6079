"""Gibbs smoothing kernel for the quadratic pixel cost.

The kernel entry for columns i, j is exp(-(i - j)^2 / epsilon). Its
cross ratio bounds the contraction factor of the scaling iteration in
the Hilbert projective metric, which is what all convergence
diagnostics are measured against.
"""
from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import DimensionMismatchError, SupportMismatchError
from .records import Record


class GibbsKernel(Record):
    """Quadratic-cost kernel on a d-column pixel grid.

    eta is the extremal cross ratio max K_ij K_kl / (K_kj K_il); for
    this kernel it equals exp(2 (d-1)^2 / epsilon), attained at the
    corner indices, so only its logarithm is stored. The contraction
    factor lam = (sqrt(eta) - 1) / (sqrt(eta) + 1) is computed from
    the exponent directly and stays finite for every image width.
    The dense d x d entries are built on first read and serve as a
    reference; the solvers never read them.
    """

    _fields = ("epsilon", "d")
    __slots__ = _fields + ("log_eta", "lam", "_log_entries", "_entries")

    def __init__(self, epsilon: float, d: int):
        log_eta = 2.0 * (d - 1) ** 2 / epsilon
        # tanh(t/2) == (e^t - 1) / (e^t + 1) with t = log(sqrt(eta))
        self._set(epsilon=epsilon, d=d, log_eta=log_eta, lam=math.tanh(log_eta / 4.0),
                  _log_entries=None, _entries=None)

    @property
    def eta(self) -> float:
        """Extremal cross ratio; overflows to inf at image scale."""
        try:
            return math.exp(self.log_eta)
        except OverflowError:
            return float("inf")

    @property
    def log_entries(self) -> np.ndarray:
        """Exact logarithm -(i-j)^2 / epsilon, free of underflow."""
        if self._log_entries is None:
            idx = np.arange(self.d, dtype=float)
            diff = idx[:, None] - idx[None, :]
            log_entries = -(diff * diff) / self.epsilon
            log_entries.flags.writeable = False  # shared by every reader
            self._set(_log_entries=log_entries)
        return self._log_entries

    @property
    def entries(self) -> np.ndarray:
        """Dense kernel exp(-(i-j)^2 / epsilon).

        Emits a RuntimeWarning when off-diagonal entries underflow to
        zero in double precision.
        """
        if self._entries is None:
            entries = np.exp(self.log_entries)
            if np.any(entries == 0.0):
                warnings.warn(
                    f"kernel entries underflow for epsilon={self.epsilon} at width {self.d}; "
                    "log_entries holds their exact logarithms",
                    RuntimeWarning,
                    stacklevel=2,
                )
            entries.flags.writeable = False  # shared by every reader
            self._set(_entries=entries)
        return self._entries

    @property
    def underflowed(self) -> bool:
        """Whether some dense entry is zero; builds the entries."""
        return bool(np.any(self.entries == 0.0))


def build_kernel(d: int, epsilon: float) -> GibbsKernel:
    """Validate the width and blur and return their Gibbs kernel."""
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise ValueError(f"kernel size must be a positive integer, got {d!r}")
    real = (int, float, np.integer, np.floating)
    if not (isinstance(epsilon, real) and math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    return GibbsKernel(epsilon=float(epsilon), d=int(d))


def hilbert_distance(u, v) -> float:
    """Hilbert projective distance between two nonnegative vectors.

    Equals the variation norm (max minus min) of log(u) - log(v) over
    the shared positive support, so it is invariant under rescaling
    either argument. Coordinates where both vectors vanish are
    ignored; a zero in exactly one vector has infinite projective
    distance and raises SupportMismatchError. Negative or non-finite
    entries are a ValueError.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 1:
        raise DimensionMismatchError(f"incompatible shapes {u.shape} and {v.shape}")
    if not all(np.all(np.isfinite(w) & (w >= 0.0)) for w in (u, v)):
        raise ValueError("vectors must be finite and nonnegative")
    pos_u = u > 0.0
    pos_v = v > 0.0
    if np.any(pos_u != pos_v):
        raise SupportMismatchError("vectors carry mass on different supports")
    if not np.any(pos_u):
        return 0.0
    ratio = np.log(u[pos_u]) - np.log(v[pos_v])
    return float(ratio.max() - ratio.min())
