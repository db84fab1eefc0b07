"""Duality polynomials for SIP(m) and transforms of measures under them.

The single-site factor is

    d(k, l) = l!/(l-k)! * Gamma(m/2) / Gamma(m/2 + k)   for k <= l,
    d(k, l) = 0                                          for k > l,

so d(0, .) = 1, and the full polynomial D(xi, eta) is the product of the
factors over the sites xi occupies, in `occupation_of`'s order; only this
module evaluates it (`value`; `moments` and `label_product` on arrays). The
transform of a measure mu is the collection of its duality moments
hat(mu)(xi) = integral of D(xi, .) d mu; closed forms exist for `measures`.

Temperedness asks the per-size suprema c_n = sup_{|xi|=n} hat(mu)(xi) to be
finite and to satisfy the Carleman condition sum_n c_n^(-1/n) = infinity.
Deciding Carleman from finitely many moments is impossible, so it is
documented here per closed form and never evaluated at runtime. NuLambda and
PoissonProduct have c_n = rho^n for their density rho, which passes Carleman
since (rho^n)^(-1/n) = 1/rho is constant. A mixture has c_n = E[rho^n], at
most rho_max^n for its largest atom density, so c_n^(-1/n) >= 1/rho_max and
Carleman holds as well.
"""

from __future__ import annotations

import math

import numpy as np

from .core import occupation_of
from .measures import InitialLaw, NuLambda, NuMixture, PoissonProduct


class DualityEvaluator:
    """Caches the log-Gamma ladder log(Gamma(m/2+k)/Gamma(m/2)) for k = 0..K.

    The ladder grows on demand and is append-only, so concurrent readers
    always observe a consistent prefix. Note the plain ratio
    Gamma(m/2+1)/Gamma(m/2) = m/2 dips below 1 when m < 2; strict growth of
    the ladder only holds from k = 1 on.
    """

    def __init__(self, m: float):
        if not (math.isfinite(m) and m > 0):
            raise ValueError(f"m must be positive and finite, got {m!r}")
        self.m = m
        self._ladder = [0.0]

    def _log_gamma_ratio(self, k: int) -> float:
        ladder = self._ladder
        while len(ladder) <= k:
            j = len(ladder) - 1
            ladder.append(ladder[j] + math.log(0.5 * self.m + j))
        return ladder[k]

    def single(self, k: int, l: int) -> float:
        """d(k, l), computed in log space and exponentiated."""
        if k < 0 or l < 0:
            raise ValueError("occupation numbers must be nonnegative")
        if k > l:
            return 0.0
        if k == 0:
            return 1.0
        return math.exp(
            math.lgamma(l + 1) - math.lgamma(l - k + 1) - self._log_gamma_ratio(k)
        )

    def value(self, xi, eta_counts) -> float:
        """D(xi, eta): product over xi's support, short-circuiting at 0. The
        scalar reference: no study calls it; they take `moments` or `label_product`."""
        out = 1.0
        for site, k in occupation_of(xi).items():
            l = eta_counts.get(site, 0)
            if k > l:
                return 0.0
            out *= self.single(k, l)
        return out

    def product(self, factors, size: int, single=None) -> np.ndarray:
        """prod over (k, l) in `factors` of single(k, l) (d(k, l) by default)
        as an array of shape `size`, each k and l an int or an array of it.
        It is tabulated once, rows to the largest k and columns to the largest
        l (a square table to l = 1500 would need d(750, 1500), which overflows
        `math.exp`), and multiplied in the order given, so each entry is
        bitwise the product of `single` values taken one by one."""
        k_top, l_top = (int(max((np.max(f[j], initial=0) for f in factors), default=0))
                        for j in (0, 1))
        table = np.array([[(single or self.single)(k, l) for l in range(l_top + 1)]
                          for k in range(k_top + 1)])
        out = np.ones(size)
        for k, l in factors:
            out = out * table[k, l]
        return out

    def moments(self, probes, count_at, shape) -> list:
        """D(probe, .) of a `shape` array of states per probe, from their counts
        count_at(site) at a site: `product` of the factors in `value`'s order."""
        return [self.product([(k, count_at(x)) for x, k in occupation_of(p).items()], shape)
                for p in probes]

    def label_product(self, paths, eta, single=None) -> np.ndarray:
        """`product` over the labels of each state of a (B x T x n) unpadded id
        array of single(k, l): k the state's count at the label's site at its
        first label, else 0 (d(0, l) = theta^0 = 1.0), l the count of the ids
        `eta` there; so bitwise `value` or the Poisson `closed_transform`."""
        same = paths[..., None] == paths[..., None, :]
        heads = np.where(np.tril(same, -1).any(3), 0, same.sum(3)).transpose(2, 0, 1)
        ls = (paths[..., None] == eta).sum(3).transpose(2, 0, 1)
        return self.product(list(zip(heads, ls)), paths.shape[:2], single)

    def closed_transform(self, law: InitialLaw, xi) -> float:
        """Exact duality moment of a closed-form law at the configuration xi."""
        if isinstance(law, NuLambda):
            self._check_m(law.m)
            return law.rho ** len(xi)
        if isinstance(law, NuMixture):
            self._check_m(law.m)
            n = len(xi)
            return sum(w * (lam / (1.0 - lam)) ** n for lam, w in law.atoms)
        if isinstance(law, PoissonProduct):
            out = 1.0
            for _, k in occupation_of(xi).items():
                out *= law.theta**k * math.exp(-self._log_gamma_ratio(k))
            return out
        raise TypeError(f"no closed-form transform for {type(law).__name__}")

    def temperedness_bound(self, law: InitialLaw, n: int) -> float:
        """c_n = sup over |xi| = n of the closed-form transform.

        NuLambda and mixtures are placement-free, so any n sites attain it.
        Under PoissonProduct a site holding k particles contributes
        theta^k / ((m/2)(m/2+1)...(m/2+k-1)) <= (2 theta/m)^k, so n singletons
        attain (2 theta/m)^n. For all three laws c_n is also the long-time
        limit of the transform at |xi| = n. Carleman itself is documented in
        the module docstring, not verified here.
        """
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        if n == 0:
            return 1.0
        if isinstance(law, PoissonProduct):
            return ah_density(law, self.m) ** n
        return self.closed_transform(law, tuple((j,) for j in range(n)))

    def _check_m(self, law_m: float):
        if law_m != self.m:
            raise ValueError(
                f"law has m={law_m} but the evaluator uses m={self.m}; "
                "the duality moment identity needs matching parameters"
            )


def ah_density(law: InitialLaw, m: float) -> float:
    """The constant rho the smeared single-site moments converge to.

    NuLambda: lam/(1-lam). PoissonProduct: 2*theta/m (the single-site moment
    is already position-free). NuMixture: the weighted density average; note
    a mixture keeps its full transform E[rho^n] in time (it is invariant),
    so this constant alone does not describe its n >= 2 moments.
    """
    if isinstance(law, NuLambda):
        return law.rho
    if isinstance(law, PoissonProduct):
        return 2.0 * law.theta / m
    if isinstance(law, NuMixture):
        return sum(w * lam / (1.0 - lam) for lam, w in law.atoms)
    raise TypeError(f"no homogeneous density for {type(law).__name__}")
