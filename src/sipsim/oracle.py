"""Exact finite-state computations on small tori.

Ground truth for the Monte Carlo claims: explicit sparse generator assembly
on the n-particle sector of a torus, semigroup evaluation by uniformization
(Poisson mixture of powers of the jump kernel, truncated with a certified
tail bound; the kernel is built once per generator, in place on one copy
of its CSR arrays and under a lock, so the threads that sweep one generator
share it, and one sweep of its powers serves every time of a grid), and
time-averaged semigroups in closed form.

A sector is held once, as a (size x sites) array of occupation
count-vectors in the narrowest unsigned type that holds n, in colex order
(the last site is the most significant digit), which fixes a reproducible
indexing across platforms. A state's ordinal is its colex rank in the
combinatorial number system (Knuth, TAOCP 4A, 7.2.1.3), computed in integer
arithmetic from a table of binomials that never exceeds the sector size, so
no state -> ordinal map is stored. The generator is assembled with numpy
from a site-major copy of the sector, one vectorized pass per (site,
neighbour) pair writing into preallocated CSR arrays. D on a sector is
`DualityEvaluator`'s: `moments` of its columns, or `label_product` of its
states' particles as site ids in site order; no factor of D is stated here.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass, field
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
from scipy import sparse, special

from .core import Geometry, occupation_of
from .duality import DualityEvaluator
from .dynamics import SipParams

DEFAULT_STATE_CAP = 200_000
TAIL = 1e-12  # Poisson mass a truncated uniformization series may leave out


def _poisson_pmf(k, mu):
    k = np.asarray(k)
    return np.clip(np.exp(special.xlogy(k, mu) - special.gammaln(k + 1) - mu), 0, 1)


def _poisson_sf(k, mu):
    return np.clip(special.pdtrc(np.floor(k), mu), 0, 1)


def _poisson_isf(q, mu):
    # smallest k with sf(k) <= q: invert the cdf at 1 - q, then step down
    # once where pdtrik's continuous inverse rounds up past the quantile
    p = 1.0 - np.asarray(q, dtype=float)
    vals = np.ceil(special.pdtrik(p, mu))
    lower = np.maximum(vals - 1, 0)
    return np.where(special.pdtr(lower, mu) >= p, lower, vals)[()]


# The three Poisson(mu) functions uniformization needs, with the same
# formulas as scipy.stats.poisson (bitwise-equal values) but without the
# cost of importing scipy.stats.
poisson = SimpleNamespace(pmf=_poisson_pmf, sf=_poisson_sf, isf=_poisson_isf)


class StateCapError(ValueError):
    """The requested sector exceeds the configured state-count cap."""


@dataclass(frozen=True, eq=False)
class StateSpace:
    """All occupation states with n particles on a torus, ranked in colex order.

    `states[i]` is the count-vector of colex rank i. With prefix sums
    R_j = eta(0) + ... + eta(j), the states before eta are those that agree
    with it above some site j >= 1 and hold fewer particles at j; by the
    hockey-stick identity they number C(R_j + j, j) - C(R_{j-1} + j, j).
    Regrouped by R_j, the rank is the sum over sites of `weights[R_j, j]`,
    where weights[p, j] = C(p + j, j) - C(p + j + 1, j + 1), the first term
    dropped at site 0 and the second at the last site. No entry exceeds the
    sector size in absolute value, so int64 arithmetic is exact.
    """

    geometry: Geometry
    n: int
    states: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.states.shape[0]

    def rank(self, states):
        """Colex ranks of count-vectors with n particles (last axis: sites)."""
        prefix = np.cumsum(states, axis=-1)
        return self.weights[prefix, np.arange(prefix.shape[-1])].sum(axis=-1)

    def index_of_occupation(self, counts) -> int:
        """Ordinal of a site->count map (zero entries optional)."""
        vec = np.zeros(self.geometry.n_sites, dtype=np.int64)
        for site, k in counts.items():
            vec[self.geometry.site_index(self.geometry.wrap(site))] += k
        if vec.min() < 0 or vec.sum() != self.n:
            raise KeyError(f"{tuple(vec.tolist())} is not in the {self.n}-particle sector")
        return int(self.rank(vec))

    def index_of_particles(self, particles) -> int:
        return self.index_of_occupation(occupation_of(particles))


def _colex_states(n: int, v: int) -> np.ndarray:
    """The n-particle count-vectors on v >= 2 sites, one per row, in colex order."""
    # table: the states of at most n particles on sites 0..j-1, group q (q
    # particles) from row C(q + j - 1, j) on. A p-particle state of one more
    # site is a group p - c state plus its count c at site j, ordered by c.
    # Every level, the sector itself included, keeps n's narrowest unsigned type.
    table = np.arange(n + 1, dtype=np.min_scalar_type(n))[:, None]
    for j in range(1, v):
        starts, lengths, tops = np.array([
            (math.comb(p - c + j - 1, j), math.comb(p - c + j - 1, j - 1), c)
            for p in (range(n + 1) if j < v - 1 else (n,)) for c in range(p + 1)
        ]).T
        ends = np.cumsum(lengths)
        level = np.empty((ends[-1], j + 1), dtype=table.dtype)
        level[:, :j] = table[np.arange(ends[-1]) + np.repeat(starts - ends + lengths, lengths)]
        level[:, j] = np.repeat(tops, lengths)
        table = level
    return table


@lru_cache(maxsize=64)
def state_space(n: int, geometry: Geometry) -> StateSpace:
    """Enumerate the n-particle sector; raises StateCapError above
    DEFAULT_STATE_CAP states."""
    if not geometry.is_torus:
        raise ValueError("exact computations need a torus")
    if n < 0:
        raise ValueError(f"particle count must be >= 0, got {n}")
    v = geometry.n_sites
    size = math.comb(v + n - 1, n)
    if size > DEFAULT_STATE_CAP:
        raise StateCapError(f"sector has {size} states, above the cap {DEFAULT_STATE_CAP}")
    states = _colex_states(n, v)
    states.flags.writeable = False
    binom = np.array([[math.comb(p + j, j) for j in range(v)] for p in range(n + 1)],
                     dtype=np.int64)
    weights = np.zeros_like(binom)
    weights[:, 1:] += binom[:, 1:]
    weights[:, :-1] -= binom[:, 1:]
    return StateSpace(geometry=geometry, n=n, states=states, weights=weights)


@lru_cache(maxsize=64)
def build_generator(n: int, params: SipParams):
    """Sparse SIP(m) generator on the n-particle sector.

    Off-diagonal entry for eta -> eta^{x,y} is
    p(x,y) * eta(x) * (m/2 + eta(y)); the diagonal makes every row sum to
    zero. Each (site x, neighbour slot y) pair is one vectorized pass over
    the states, and the diagonal accumulates pass by pass in the order of
    the sites and of `Geometry.neighbors`, so every entry is bitwise what a
    state-by-state loop gives. The passes write into preallocated CSR
    arrays with int32 indices: the assembly peaks near 22 to 24 bytes per
    entry. Returned matrix is CSR and must be treated as read-only (it is
    cached and shared).
    """
    space = state_space(n, params.geometry)
    geo = params.geometry
    # a row: its diagonal, then 2d distinct targets (L >= 3) per occupied site
    nnz = space.size + 2 * geo.d * np.count_nonzero(space.states)
    if nnz > np.iinfo(np.int32).max:  # n >= 1 puts 3 entries in a row, so 2 * size fits too
        raise StateCapError(f"sector has {nnz} generator entries, too many for int32 indices")
    half_m, p_edge = 0.5 * params.m, geo.p_edge
    # site-major: row s is site s's count in every state, read as a whole row
    by_site = np.ascontiguousarray(space.states.T)
    # Moving one particle from x to y lowers R_j by one for x <= j < y, or
    # raises it for y <= j < x, so the target's rank is the source's (its
    # row number) plus a difference of two running sums over sites of the
    # weight change under that shift. The clip only touches prefix sums a
    # move never shifts; they are int32, as an unsigned 0 - 1 would never reach it.
    def running_change(shift):
        prefix = np.cumsum(by_site, axis=0, dtype=np.int32)
        out = np.zeros((geo.n_sites + 1, space.size), dtype=np.int32)
        for s, weight in enumerate(space.weights.T):
            step = np.take(weight, prefix[s] + shift, mode="clip") - np.take(weight, prefix[s])
            np.add(out[s], step, out=out[s + 1], casting="same_kind")
        return out

    down, up = running_change(-1), running_change(+1)
    indptr = np.zeros(space.size + 1, dtype=np.int32)
    np.cumsum(1 + 2 * geo.d * np.count_nonzero(by_site, axis=0), out=indptr[1:])
    indices, data = np.empty(nnz, dtype=np.int32), np.empty(nnz)
    fill, diag = indptr[:-1] + 1, np.zeros(space.size)  # slot 0 of a row: the diagonal
    for x, site_x in enumerate(geo.sites()):
        k = by_site[x]
        movers = np.flatnonzero(k).astype(np.int32)
        push = p_edge * k
        at = fill[movers]
        for y in (geo.site_index(z) for z in geo.neighbors(site_x)):
            rate = push * (half_m + by_site[y])  # p_edge * k * (m/2 + eta(y)), 0.0 where k == 0
            diag -= rate
            if x < y:
                shift = down[y][movers] - down[x][movers]
            else:
                shift = up[x][movers] - up[y][movers]
            indices[at] = movers + shift
            data[at] = rate[movers]
            at += 1
        fill[movers] = at
    indices[indptr[:-1]], data[indptr[:-1]] = np.arange(space.size, dtype=np.int32), diag
    q = sparse.csr_matrix((data, indices, indptr), shape=(space.size, space.size))
    q.sort_indices()  # in place: each row in column order, as a COO -> CSR conversion gives
    return q


# id(q) -> (I + Q/Lambda, Lambda); a finalizer drops the entry with its q
_uniformized_cache = {}
_uniformized_lock = threading.Lock()


def _jump_kernel(q, lam):
    """I + Q/lam with the float operations of scipy's `eye + q.multiply(1/lam)`:
    data * (1/lam), then 1.0 + that on the diagonal (1.0 where q stores none),
    and every entry that comes out 0.0 dropped; built in place on one copy of
    q's CSR arrays, canonical, whose diagonal offsets are found once for the
    read and the write."""
    p = sparse.csr_matrix(q.multiply(1.0 / lam))
    p.sum_duplicates()
    n = p.shape[0]
    at = np.flatnonzero(p.indices == np.repeat(np.arange(n, dtype=p.indices.dtype),
                                               np.diff(p.indptr)))
    p.data[at] += 1.0
    if len(at) < n:  # rows that store no diagonal get 1.0
        diag = np.ones(n)
        diag[p.indices[at]] = p.data[at]
        p.setdiag(diag)
    p.eliminate_zeros()
    return p


def uniformized(q):
    """(P, Lambda) of q: P = I + Q/Lambda, None if the largest exit rate Lambda is 0."""
    with _uniformized_lock:
        if id(q) not in _uniformized_cache:
            diag = q.diagonal()
            lam = float(np.max(-diag)) if diag.size else 0.0
            _uniformized_cache[id(q)] = (_jump_kernel(q, lam) if lam > 0.0 else None, lam)
            weakref.finalize(q, _uniformized_cache.pop, id(q), None)
        return _uniformized_cache[id(q)]


def _poisson_series(q, times, f, weights_of):
    """[sum_k w_k P^k f for t in times] with P = I + Q/Lambda, Lambda the
    largest exit rate, and w = weights_of(Lambda * t) (f itself when that is 0).

    One sweep for every time: P^k f is computed once, up to the longest
    truncation, and each time adds its own terms in k order, so each result
    is bitwise what a sweep for that time alone gives.
    """
    if min(times) < 0:
        raise ValueError(f"time must be >= 0, got {min(times)}")
    f = np.asarray(f, dtype=float)
    p, lam = uniformized(q)
    weights = [weights_of(lam * t) if lam * t != 0.0 else np.ones(1) for t in times]
    outs = [w[0] * f for w in weights]
    v = f
    for k in range(1, max(map(len, weights))):
        v = p @ v
        for out, w in zip(outs, weights):
            if k < len(w):
                out += w[k] * v
    return outs


def _transient_weights(mu):
    """Poisson(mu) pmf up to the first k whose tail mass is below TAIL."""
    return poisson.pmf(np.arange(max(int(poisson.isf(TAIL, mu)), 1) + 1), mu)


def semigroup_apply(q, t: float, f):
    """e^{tQ} f via uniformization; truncation leaves Poisson tail mass < TAIL."""
    return _poisson_series(q, (t,), f, _transient_weights)[0]


def exact_dual_expectation(xi, eta_counts, times, params: SipParams):
    """Both sides of the self-duality identity, one (left, right) pair per
    time in `times`; each side is one uniformization sweep for every time.

    Left: E_eta D(xi, eta_t), computed on the |eta|-particle sector.
    Right: E_xi D(xi_t, eta), computed on the |xi|-particle sector.
    The two must agree to solver accuracy; that agreement is the headline
    oracle check.
    """
    evaluator = DualityEvaluator(params.m)
    geo = params.geometry
    xi = tuple(geo.wrap(x) for x in xi)
    n_eta = sum(eta_counts.values())
    n_xi = len(xi)

    space_eta = state_space(n_eta, geo)
    q_eta = build_generator(n_eta, params)
    [f_left] = evaluator.moments([xi], lambda x: space_eta.states[:, geo.site_index(x)],
                                 space_eta.size)
    lefts = _poisson_series(q_eta, times, f_left, _transient_weights)
    i_left = space_eta.index_of_occupation(eta_counts)

    space_xi = state_space(n_xi, geo)
    q_xi = build_generator(n_xi, params)
    sites = np.arange(geo.n_sites)  # each state's particles, and eta's, as site ids in site order
    paths = np.repeat(np.tile(sites, space_xi.size), space_xi.states.ravel())
    f_right = evaluator.label_product(paths.reshape(space_xi.size, 1, n_xi),
                                      np.repeat(sites, space_eta.states[i_left])).ravel()
    rights = _poisson_series(q_xi, times, f_right, _transient_weights)
    i_right = space_xi.index_of_particles(xi)
    return [(float(a[i_left]), float(b[i_right])) for a, b in zip(lefts, rights)]


def cesaro_apply(q, horizon: float, f):
    """(1/T) * integral_0^T e^{tQ} f dt, integrated in closed form.

    Uniformization integrates exactly: the time average equals
    sum_k P(Poisson(lam*T) >= k+1) / (lam*T) * P^k f, whose weights sum to
    one. The series is truncated with residual mass below TAIL (checked,
    not assumed), so no quadrature grid is involved at all.
    """
    if horizon <= 0:
        raise ValueError(f"averaging horizon must be positive, got {horizon}")

    def averaged(mu):
        kmax = max(int(poisson.isf(1e-13, mu)), 1)  # a decade below TAIL
        while True:
            weights = poisson.sf(np.arange(kmax + 1), mu) / mu
            if 1.0 - float(weights.sum()) < TAIL:
                return weights
            kmax *= 2

    return _poisson_series(q, (horizon,), f, averaged)[0]
