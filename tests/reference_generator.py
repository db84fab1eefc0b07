"""State-by-state reference assembly of the SIP(m) sector generator.

An independent, deliberately plain construction for the tests to compare
`sipsim.oracle` against: the sector is enumerated with itertools and sorted
colexicographically (the last site is the most significant digit), states
are indexed through a tuple -> ordinal dict, and each row is filled by a
Python loop over (site, neighbour) pairs with the diagonal accumulated in
loop order.

It also keeps the uniformized series as they were before they shared one
routine and one cached I + Q/Lambda per generator: `reference_semigroup_apply`
and `reference_cesaro_apply` rebuild the matrix on every call. They take the
Poisson functions from `sipsim.oracle.poisson` at call time, so a test that
patches it patches both sides.
"""

from itertools import combinations_with_replacement

import numpy as np
from scipy import sparse

from sipsim import oracle


def reference_states(n, geometry):
    """All n-particle count-vectors on the torus, as tuples, in colex order."""
    v = geometry.n_sites
    states = []
    for combo in combinations_with_replacement(range(v), n):
        vec = [0] * v
        for s in combo:
            vec[s] += 1
        states.append(tuple(vec))
    states.sort(key=lambda s: s[::-1])
    return states


def reference_generator(n, params):
    """CSR generator of the n-particle sector, assembled state by state."""
    geo = params.geometry
    states = reference_states(n, geo)
    index = {s: i for i, s in enumerate(states)}
    half_m = 0.5 * params.m
    p_edge = 1.0 / (2.0 * geo.d)
    nbr_idx = [[geo.site_index(y) for y in geo.neighbors(x)] for x in geo.sites()]
    rows, cols, vals = [], [], []
    for i, state in enumerate(states):
        diag = 0.0
        for xi_idx, k in enumerate(state):
            if k == 0:
                continue
            for yi_idx in nbr_idx[xi_idx]:
                rate = p_edge * k * (half_m + state[yi_idx])
                target = list(state)
                target[xi_idx] -= 1
                target[yi_idx] += 1
                rows.append(i)
                cols.append(index[tuple(target)])
                vals.append(rate)
                diag -= rate
        rows.append(i)
        cols.append(i)
        vals.append(diag)
    q = sparse.csr_matrix((vals, (rows, cols)), shape=(len(states), len(states)), dtype=float)
    q.sum_duplicates()
    return q


def reference_uniformized(q):
    diag = q.diagonal()
    lam = float(np.max(-diag)) if diag.size else 0.0
    if lam <= 0.0:
        return None, 0.0
    p = sparse.eye(q.shape[0], format="csr") + q.multiply(1.0 / lam)
    return p.tocsr(), lam


def reference_semigroup_apply(q, t, f, tail=1e-12):
    """e^{tQ} f via uniformization; truncation leaves Poisson tail mass < tail."""
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    f = np.asarray(f, dtype=float)
    p, lam = reference_uniformized(q)
    mu = lam * t
    if mu == 0.0:
        return f.copy()
    kmax = max(int(oracle.poisson.isf(tail, mu)), 1)
    weights = oracle.poisson.pmf(np.arange(kmax + 1), mu)
    v = f.copy()
    out = weights[0] * v
    for k in range(1, kmax + 1):
        v = p @ v
        out += weights[k] * v
    return out


def reference_cesaro_apply(q, horizon, f, tail=1e-12):
    """(1/T) * integral_0^T e^{tQ} f dt, with the kmax doubling certificate."""
    if horizon <= 0:
        raise ValueError(f"averaging horizon must be positive, got {horizon}")
    f = np.asarray(f, dtype=float)
    p, lam = reference_uniformized(q)
    mu = lam * horizon
    if mu == 0.0:
        return f.copy()
    kmax = max(int(oracle.poisson.isf(min(tail, 1e-13), mu)), 1)
    while True:
        weights = oracle.poisson.sf(np.arange(kmax + 1), mu) / mu
        if 1.0 - float(weights.sum()) < tail:
            break
        kmax *= 2
    v = f.copy()
    out = weights[0] * v
    for k in range(1, kmax + 1):
        v = p @ v
        out += weights[k] * v
    return out
