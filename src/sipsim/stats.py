"""Batch-means statistics for replica aggregates."""

from __future__ import annotations

import math

import numpy as np


# batch count of `batched`; trajectory samples may be correlated, so at
# least this many batches when the sample allows it
BATCHES = 30


class InsufficientDataError(ValueError):
    """Fewer than two samples supplied."""


def batched(values):
    """Mean and standard error of a flat sample by batch means.

    The sample is split into BATCHES contiguous batches, or one value per
    batch for tiny samples. The estimate is the mean of the batch means; the
    standard error is their sample standard deviation divided by
    sqrt(#batches), so it shrinks like 1/sqrt(batches).
    """
    arr = np.asarray(values, dtype=float)
    b = min(len(arr), BATCHES)
    if b < 2:
        raise InsufficientDataError("need at least two samples")
    means = [float(np.mean(g)) for g in np.array_split(arr, b)]
    return float(np.mean(means)), float(np.std(means, ddof=1)) / math.sqrt(b)
