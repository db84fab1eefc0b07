"""Reversible product measures and auxiliary initial laws.

The invariant law of SIP(m) at fugacity lam in [0, 1) is a product over
sites of the discrete-Gamma (negative binomial) marginal

    pmf(k) = (1 - lam)^(m/2) * lam^k * Gamma(m/2 + k) / (k! Gamma(m/2)),

with density parameter rho = lam / (1 - lam) and mean count (m/2) * rho.
Sampling is by CDF inversion, which is exact and deterministic given the
stream: one table of CDF values per (lam, m), built by the exact float
recursion of the pmf. `sample_product` is the one sampler: it draws a whole
block of streams at once, a mixture's atoms by one `searchsorted` over the
running weights and each atom's counts by one over its CDF table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Union

import numpy as np

from .core import Geometry


@dataclass(frozen=True)
class NuLambda:
    """Product measure with discrete-Gamma marginals at fugacity lam."""

    lam: float
    m: float

    def __post_init__(self):
        if not 0.0 <= self.lam < 1.0:
            raise ValueError(f"lam must lie in [0, 1), got {self.lam!r}")
        if not (math.isfinite(self.m) and self.m > 0):
            raise ValueError(f"m must be positive and finite, got {self.m!r}")

    @property
    def rho(self) -> float:
        return self.lam / (1.0 - self.lam)


@dataclass(frozen=True)
class PoissonProduct:
    """Product of Poisson(theta) marginals."""

    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and self.theta >= 0):
            raise ValueError(f"theta must be finite and >= 0, got {self.theta!r}")


@dataclass(frozen=True)
class NuMixture:
    """Finite mixture of NuLambda laws: shared lam drawn once, then a product."""

    atoms: tuple  # ((lam_i, weight_i), ...)
    m: float

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("mixture needs at least one atom")
        total = 0.0
        for lam, w in self.atoms:
            NuLambda(lam, self.m)  # checks the atom's lam and m
            if not (math.isfinite(w) and w >= 0):
                raise ValueError(f"mixture weights must be finite and >= 0, got {w!r}")
            total += w
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"mixture weights must sum to 1, got {total!r}")


InitialLaw = Union[NuLambda, PoissonProduct, NuMixture]


def marginal_pmf(k: int, lam: float, m: float) -> float:
    """Single-site probability of count k under NuLambda(lam, m)."""
    NuLambda(lam, m)  # checks lam and m
    if k < 0:
        return 0.0
    if lam == 0.0:
        return 1.0 if k == 0 else 0.0
    log_p = (
        0.5 * m * math.log1p(-lam)
        + k * math.log(lam)
        + math.lgamma(0.5 * m + k)
        - math.lgamma(k + 1)
        - math.lgamma(0.5 * m)
    )
    return math.exp(log_p)


@cache
def _cdf(lam: float, half_m: float) -> np.ndarray:
    """The NuLambda(lam, m = 2 half_m) marginal's CDF by the float recursion
    P(0) = (1 - lam)^half_m, P(k+1) = P(k) * (lam*(half_m+k)/(k+1)), summed
    left to right, up to the count where the pmf underflows to 0: inversion
    gives that count for u at or past every sum. Past lam = 1/2 the pmf can
    stall on a subnormal value instead; the table ends there."""
    p = cum = (1.0 - lam) ** half_m
    sums, k = [cum], 0
    while True:
        ratio = lam * (half_m + k) / (k + 1)
        q, k = p * ratio, k + 1
        if q == 0.0 or (q == p and ratio < 1.0):
            return np.array(sums)
        p, cum = q, cum + q
        sums.append(cum)


def sample_product(law: InitialLaw, geometry: Geometry, streams) -> np.ndarray:
    """NuLambda or NuMixture counts on a torus, one row per stream, one column
    per site in `Geometry.sites()` order, by CDF inversion. Each stream's next
    draws are consumed: one for a mixture's fugacity, which picks the first
    atom whose running weight exceeds it (when rounding leaves none, the
    first whose running weight reaches the total, so never an atom of weight
    0), then one per site, inverted through the atom's CDF table to the
    count at which the CDF first exceeds u (`searchsorted(u, side="right")`)."""
    if not geometry.is_torus:
        raise ValueError("product sampling requires a finite site set (torus)")
    if isinstance(law, NuMixture):
        lams, weights = zip(*law.atoms)
    elif isinstance(law, NuLambda):
        lams, weights = (law.lam,), ()
    else:
        raise TypeError(f"cannot sample law of type {type(law).__name__}")
    head, n = (1 if weights else 0), geometry.n_sites
    u = np.array([s.peek(head + n) for s in streams]).reshape(len(streams), head + n)
    for s in streams:
        s.advance(head + n)
    # no weights (NuLambda) pick atom 0; the methods dispatch faster than np.searchsorted
    cumulative = np.cumsum(weights)
    last = cumulative.searchsorted(cumulative[-1]) if weights else 0
    atom = np.minimum(cumulative.searchsorted(u[:, 0], "right"), last)
    counts = np.empty((len(streams), n), dtype=np.intp)
    for a, lam in enumerate(lams):
        rows = atom == a
        counts[rows] = _cdf(lam, 0.5 * law.m).searchsorted(u[rows, head:], "right")
    return counts
