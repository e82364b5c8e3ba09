"""Smooth compact-support cutoff shared by the UV regulator and the scale bands."""

from __future__ import annotations

import numpy as np


def _ramp(s):
    """chibar on the open ramp 1 < s < 2, where both exp(-1/u) are positive."""
    a = np.exp(-1.0 / (2.0 - s))
    return a / (a + np.exp(-1.0 / (s - 1.0)))


def smooth_cutoff(s):
    """chibar(s): 1 on [0,1], 0 on [2,inf), smooth strictly-decreasing ramp between.

    chibar(s) = psi(2-s) / (psi(2-s) + psi(s-1)) with psi(u) = exp(-1/u) for
    u > 0 and 0 otherwise.  Accepts scalars or arrays of s >= 0.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s < 0):
        raise ValueError("smooth_cutoff expects s >= 0")
    out = np.where(s <= 1.0, 1.0, 0.0)
    mid = (s > 1.0) & (s < 2.0)
    out[mid] = _ramp(s[mid])
    return float(out) if out.ndim == 0 else out


def shell_cutoff(s):
    """chibar(s) - chibar(2s) on an array of s >= 0, one ramp per point: it is
    1 - chibar(2s) on (1/2, 1], chibar(s) on (1, 2) and 0 elsewhere."""
    s = np.asarray(s, dtype=float)
    out = np.where(s == 1.0, 1.0, 0.0)
    low = (s > 0.5) & (s < 1.0)
    out[low] = 1.0 - _ramp(2.0 * s[low])
    high = (s > 1.0) & (s < 2.0)
    out[high] = _ramp(s[high])
    return out
