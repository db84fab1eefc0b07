"""Exact transient of the dual transform for two SIP(m) particles on Z.

Two SIP(m) particles on Z with nearest-neighbour jumps (probability 1/2 each
way) have a distance |X1 - X2| that is itself a Markov chain on {0, 1, 2, ...}:

    0 -> 1 at rate m
    1 -> 0 at rate m/2 + 1,  1 -> 2 at rate m/2
    k -> k +- 1 at rate m/2 for k >= 2

For a translation-invariant product law the dual transform D(xi_t, .) depends
on xi_t only through that distance, so its expectation is a finite sum over
the law of the folded chain. The chain is truncated to TRUNCATION states with
a reflecting top state; every call checks that the mass reaching the last
TAIL_STATES states stays below TAIL_MASS, so the truncation never enters the
result. `transient_distribution` serves any generator, for other tests too.
"""

import numpy as np
from scipy import sparse

from sipsim.duality import DualityEvaluator
from sipsim.oracle import semigroup_apply

TRUNCATION = 800
TAIL_STATES = 10
TAIL_MASS = 1e-12


def transient_distribution(q, t: float, start_index: int):
    """Row of e^{tQ}: the state distribution at time t from a point start."""
    delta = np.zeros(q.shape[0])
    delta[start_index] = 1.0
    return semigroup_apply(q.T.tocsr(), t, delta)


def distance_generator(m: float):
    """Generator of the folded distance chain on {0, ..., TRUNCATION - 1}."""
    rows, cols, rates = [0, 1, 1], [1, 0, 2], [m, m / 2 + 1, m / 2]
    for k in range(2, TRUNCATION):
        rows.append(k)
        cols.append(k - 1)
        rates.append(m / 2)
        if k + 1 < TRUNCATION:
            rows.append(k)
            cols.append(k + 1)
            rates.append(m / 2)
    q = sparse.coo_matrix((rates, (rows, cols)), shape=(TRUNCATION, TRUNCATION)).tocsr()
    return (q - sparse.diags(np.asarray(q.sum(axis=1)).ravel())).tocsr()


def exact_transform(law, m: float, xi, t: float) -> float:
    """E[D(xi_t, eta)] under a translation-invariant product law, xi two sites of Z."""
    (a,), (b,) = xi
    p = transient_distribution(distance_generator(m), t, abs(a - b))
    tail = float(p[-TAIL_STATES:].sum())
    assert tail < TAIL_MASS, f"truncation at {TRUNCATION} states leaves mass {tail:.2e}"
    evaluator = DualityEvaluator(m)
    values = [evaluator.closed_transform(law, ((0,), (d,))) for d in range(TRUNCATION)]
    return float(p @ np.array(values))
