"""State-by-state reference assembly of the SIP(m) sector generator.

An independent, deliberately plain construction for the tests to compare
`sipsim.oracle` against: the sector is enumerated with itertools and sorted
colexicographically (the last site is the most significant digit), states
are indexed through a tuple -> ordinal dict, and each row is filled by a
Python loop over (site, neighbour) pairs with the diagonal accumulated in
loop order.
"""

from itertools import combinations_with_replacement

from scipy import sparse


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
