"""Reversible product measures and auxiliary initial laws.

The invariant law of SIP(m) at fugacity lam in [0, 1) is a product over
sites of the discrete-Gamma (negative binomial) marginal

    pmf(k) = (1 - lam)^(m/2) * lam^k * Gamma(m/2 + k) / (k! Gamma(m/2)),

with density parameter rho = lam / (1 - lam) and mean count (m/2) * rho.
Sampling is by CDF inversion, which is exact and deterministic given the
stream: one table of CDF values per (lam, m), built by the exact float
recursion of the pmf, and one `np.searchsorted` over a block's uniforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Union

import numpy as np

from .core import Geometry, RandomStream


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
            if not 0.0 <= lam < 1.0:
                raise ValueError(f"mixture atom lam must lie in [0, 1), got {lam!r}")
            if not (math.isfinite(w) and w >= 0):
                raise ValueError(f"mixture weights must be finite and >= 0, got {w!r}")
            total += w
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"mixture weights must sum to 1, got {total!r}")
        if not (math.isfinite(self.m) and self.m > 0):
            raise ValueError(f"m must be positive and finite, got {self.m!r}")


InitialLaw = Union[NuLambda, PoissonProduct, NuMixture]


def marginal_pmf(k: int, lam: float, m: float) -> float:
    """Single-site probability of count k under NuLambda(lam, m)."""
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"lam must lie in [0, 1), got {lam!r}")
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


def product_counts(lam: float, m: float, geometry: Geometry, streams) -> np.ndarray:
    """NuLambda(lam, m) counts on a torus, one row per stream, one column per
    site in `Geometry.sites()` order: each stream's next n_sites uniforms,
    consumed, inverted through one CDF table, the count at which the CDF
    first exceeds u (`searchsorted(u, side="right")`)."""
    n = geometry.n_sites
    u = np.array([s.peek(n) for s in streams])
    for s in streams:
        s.advance(n)
    return _cdf(lam, 0.5 * m).searchsorted(u, "right")  # np.searchsorted's dispatch costs more


def sample_product(law: InitialLaw, geometry: Geometry, stream: RandomStream) -> dict:
    """A NuLambda or NuMixture configuration on a torus by CDF inversion, one
    uniform per site after one for a mixture's fugacity; the occupied-site map."""
    if not geometry.is_torus:
        raise ValueError("product sampling requires a finite site set (torus)")
    if isinstance(law, NuMixture):
        # one shared fugacity for the whole configuration, then a product
        u, acc, lam = stream.uniform(), 0.0, law.atoms[-1][0]
        for atom_lam, w in law.atoms:
            acc += w
            if u < acc:
                lam = atom_lam
                break
    elif isinstance(law, NuLambda):
        lam = law.lam
    else:
        raise TypeError(f"cannot sample law of type {type(law).__name__}")
    n = geometry.n_sites  # `product_counts` of one stream, without its per-block arrays
    counts = _cdf(lam, 0.5 * law.m).searchsorted(stream.peek(n), "right").tolist()
    stream.advance(n)
    return {site: k for site, k in zip(geometry.sites(), counts) if k}
