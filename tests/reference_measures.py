"""Sequential-inversion reference for the product-measure samplers.

The plain construction `sipsim.measures` is checked against: one uniform
per site, in `Geometry.sites()` order, inverted by walking the pmf
recursion P(0) = (1 - lam)^(m/2), P(k+1) = P(k) * (lam*(m/2+k)/(k+1))
until the running sum exceeds it, after one uniform for a mixture's
fugacity. The walk stops early where the pmf underflows to 0. Past
lam = 1/2 the pmf can instead stall on a subnormal value, and then the walk
of a u at or past the last running sum never ends; callers keep such u out.
"""

import itertools

from sipsim.measures import NuLambda, NuMixture


def reference_invert(u, lam, half_m):
    """The count at which the NuLambda(lam, 2 half_m) marginal's CDF first
    exceeds u, or the count where its pmf underflows to 0."""
    p = cum = (1.0 - lam) ** half_m
    k = 0
    while u >= cum:
        p *= lam * (half_m + k) / (k + 1)
        k += 1
        cum += p
        if p == 0.0:
            break
    return k


def reference_sums(lam, half_m, n):
    """The first n running sums of the same recursion."""
    p = cum = (1.0 - lam) ** half_m
    sums = [cum]
    for k in range(n - 1):
        p *= lam * (half_m + k) / (k + 1)
        cum += p
        sums.append(cum)
    return sums


def reference_fugacity(law, u):
    """The lam of the mixture atom a fugacity draw u picks: the first whose
    running weight exceeds u, or if none does, the first whose running
    weight reaches the total."""
    running = list(itertools.accumulate(w for _, w in law.atoms))
    for (lam, _), acc in zip(law.atoms, running):
        if u < acc:
            return lam
    return law.atoms[running.index(running[-1])][0]


def reference_sample_product(law, geometry, stream):
    """The occupied-site map of one NuLambda or NuMixture configuration."""
    if isinstance(law, NuMixture):
        lam = reference_fugacity(law, stream.uniform())
    else:
        assert isinstance(law, NuLambda)
        lam = law.lam
    counts = {}
    for site in geometry.sites():
        k = reference_invert(stream.uniform(), lam, 0.5 * law.m)
        if k:
            counts[site] = k
    return counts
