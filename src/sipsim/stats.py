"""Batch-means statistics for replica aggregates."""

from __future__ import annotations

import math

import numpy as np


# batch count of `batched`; trajectory samples may be correlated, so at
# least this many batches when the sample allows it
BATCHES = 30


class InsufficientDataError(ValueError):
    """Fewer than two groups supplied."""


def batch_stats(groups):
    """Mean and standard error from pre-grouped samples.

    The estimate is the mean of the group means; the standard error is the
    sample standard deviation of the group means divided by sqrt(#groups),
    so it shrinks like 1/sqrt(groups).
    """
    means = [float(np.mean(g)) for g in groups]
    if len(means) < 2:
        raise InsufficientDataError("batch statistics need at least two groups")
    b = len(means)
    est = float(np.mean(means))
    se = float(np.std(means, ddof=1)) / math.sqrt(b)
    return est, se


def batched(values):
    """Split a flat sample into BATCHES contiguous batches and apply
    batch_stats; degenerates to one point per batch for tiny samples."""
    arr = np.asarray(values, dtype=float)
    b = min(len(arr), BATCHES)
    if b < 2:
        raise InsufficientDataError("need at least two samples")
    return batch_stats(np.array_split(arr, b))
