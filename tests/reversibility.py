"""nu_lambda's per-edge reversibility ratio, which only tests evaluate."""

import math


def detailed_balance_ratio(a: int, b: int, lam: float, m: float) -> float:
    """Per-edge reversibility ratio of NuLambda against the inclusion rates.

    With w(k) = lam^k Gamma(m/2+k) / (k! Gamma(m/2)), returns

        [w(a) w(b) a (m/2+b)] / [w(a-1) w(b+1) (b+1) (m/2+a-1)],

    which is identically 1: the algebraic content of reversibility.
    """
    if a < 1:
        raise ValueError(f"source occupation must be >= 1, got {a}")
    if b < 0:
        raise ValueError(f"target occupation must be >= 0, got {b}")
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lam must lie in (0, 1) for the ratio, got {lam!r}")
    if not m > 0:
        raise ValueError(f"m must be positive, got {m!r}")
    half_m = 0.5 * m

    def logw(k: int) -> float:
        return k * math.log(lam) + math.lgamma(half_m + k) - math.lgamma(k + 1) - math.lgamma(half_m)

    log_num = logw(a) + logw(b) + math.log(a) + math.log(half_m + b)
    log_den = logw(a - 1) + logw(b + 1) + math.log(b + 1) + math.log(half_m + a - 1)
    return math.exp(log_num - log_den)
