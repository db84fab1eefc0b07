"""Lattice geometry, particle configurations, and splittable random streams.

Sites are integer coordinate tuples of length d. Two boundary modes exist:
the infinite lattice Z^d and a periodic torus of side L (coordinates are
always stored reduced mod L). A particle state is an ordered tuple of sites,
which the couplings evolve, a row of integer site ids in the same label order,
which the dynamics kernel evolves, or site counts (a site -> count map or a
row over `Geometry.sites()`), which D and the exact solver consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import product
from operator import gt, sub

import numpy as np

Site = tuple
ParticleList = tuple

# Infinite-lattice walks abort rather than silently wrap: no particle may
# stand at |c| >= COORD_LIMIT.
COORD_LIMIT = 2**62
_NO_DRAWS = memoryview(np.empty(0)).toreadonly()  # a new stream's buffer


class CoordinateOverflowError(OverflowError):
    """A coordinate left the representable range on the infinite lattice."""


@dataclass(frozen=True)
class Geometry:
    """Dimension plus boundary mode; L is None on the infinite lattice."""

    d: int
    L: int | None = None

    def __post_init__(self):
        if not isinstance(self.d, int) or self.d < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.d!r}")
        if self.L is not None and (not isinstance(self.L, int) or self.L < 3):
            raise ValueError(f"torus side must be an integer >= 3, got {self.L!r}")

    @property
    def is_torus(self) -> bool:
        return self.L is not None

    def wrap(self, site: Site) -> Site:
        if self.L is None:
            return site
        L = self.L
        return tuple(c % L for c in site)

    def shift(self, site: Site, axis: int, step: int) -> Site:
        """Move one coordinate by `step`, wrapping on the torus."""
        c = site[axis] + step
        if self.L is not None:
            c %= self.L
        elif abs(c) >= COORD_LIMIT:
            raise CoordinateOverflowError(f"coordinate {c} at or beyond +-2^62")
        return site[:axis] + (c,) + site[axis + 1 :]

    def neighbors(self, site: Site) -> tuple[Site, ...]:
        """The 2d nearest neighbors of a site (minus then plus per axis); on a
        torus a site outside [0, L) raises ValueError."""
        L, out = self.L, []
        for axis, c in enumerate(site):
            if L is None:
                if abs(c) >= COORD_LIMIT:
                    raise CoordinateOverflowError(f"a neighbor of coordinate {c} is beyond +-2^62")
                lo, hi = c - 1, c + 1
            elif 0 <= c < L:
                lo, hi = (c - 1) % L, (c + 1) % L
            else:
                raise ValueError(f"torus site {site} is outside [0, {L})")
            head, tail = site[:axis], site[axis + 1 :]
            out += (head + (lo,) + tail, head + (hi,) + tail)
        return tuple(out)

    def l1_distance(self, x: Site, y: Site) -> int:
        """l1 distance; per-coordinate minimal wrapped distance on the torus."""
        if self.L is None:
            return sum(map(abs, map(sub, x, y)))
        L = self.L
        total = 0
        for a, b in zip(x, y):
            dm = (a - b) % L
            total += min(dm, L - dm)
        return total

    @property
    def p_edge(self) -> float:
        """p(x, y) = 1/(2d): the nearest-neighbor walk's weight of each neighbor."""
        return 1.0 / (2.0 * self.d)

    @property
    def n_sites(self) -> int:
        if self.L is None:
            raise ValueError("infinite lattice has no site count")
        return self.L**self.d

    def sites(self):
        """All torus sites in lexicographic order (first coordinate most significant)."""
        if self.L is None:
            raise ValueError("cannot enumerate the infinite lattice")
        return product(range(self.L), repeat=self.d)

    def site_index(self, site: Site) -> int:
        """Ordinal of a torus site under the sites() enumeration."""
        if self.L is None:
            raise ValueError("site_index requires a torus")
        idx = 0
        for c in site:
            idx = idx * self.L + c
        return idx


def occupation_of(particles) -> dict:
    """Collapse an ordered particle list to a site -> count map."""
    counts: dict = {}
    for x in particles:
        counts[x] = counts.get(x, 0) + 1
    return counts


def check_grid(times) -> list:
    """`times` as a list, once it is finite, nonnegative and ascending (ties allowed)."""
    grid = list(times)
    if not all(math.isfinite(t) and t >= 0 for t in grid) or any(map(gt, grid, grid[1:])):
        raise ValueError("times must be finite, nonnegative and ascending")
    return grid


def _hash(values, rows: int, init: int, mult: int, first: int = 0):
    """SeedSequence's hash of rows of uint32 values held in uint64; row j is
    hash call first + j, whose constant is init * mult^(first + j) mod 2^32."""
    c = np.array([init * pow(mult, first + i, 2**32) % 2**32 for i in range(rows + 1)],
                 np.uint64)[:, None]
    v = (values ^ c[:-1]) * c[1:] & 0xFFFFFFFF
    return v ^ v >> 16


def stream_words(seed: int, head, lo: int, hi: int) -> np.ndarray:
    """The PCG64 seed words of the streams (seed, head + (r,)), lo <= r < hi:
    row r - lo is NumPy's SeedSequence(entropy=seed, spawn_key=head + (r,))
    .generate_state(4, np.uint64). The pool of (seed, head) is computed
    once; r, the last entropy word, is mixed in over an array of r.
    """
    pool = np.random.SeedSequence(entropy=seed, spawn_key=tuple(head)).pool.astype(np.uint64)
    # hash calls before r's, whatever the data: 4 fill the pool, 12 mix it,
    # then 4 per entropy word past the fourth (a seed is padded to 4 words)
    used = 4 * (max(4, -(-seed.bit_length() // 32)) + len(head))
    h = _hash(np.arange(lo, hi, dtype=np.uint64), 4, 0x43B0D7E5, 0x931E8875, used)
    mixed = (0xCA01F9DD * pool[:, None] - 0x4973F715 * h) & 0xFFFFFFFF
    words = _hash(np.tile(mixed ^ mixed >> 16, (2, 1)), 8, 0x8B51F9DD, 0x58F38DED)
    return np.ascontiguousarray((words[0::2] | words[1::2] << 32).T)


@cache
def _preset():
    """The seed-sequence type that hands PCG64 a stream's four words; built
    on first use, as loading numpy.random at import costs memory."""
    from numpy.random.bit_generator import ISeedSequence

    class Preset(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return Preset


class RandomStream:
    """Deterministic uniform source; (seed, path) pins the entire sequence.

    Streams with distinct paths are independent by seed-sequence spawning:
    PCG64 is seeded with NumPy's SeedSequence(entropy=seed, spawn_key=path)
    .generate_state(4, np.uint64), or with `words`, the same four words as
    `stream_words` computes them for a batch of sibling paths.
    Scalar draws are served from a prefetched buffer, so interleaving calls
    on the same stream object stays reproducible for a fixed call pattern.
    The buffer starts small and doubles at each refill up to a cap, since
    most streams are used for only tens of draws; PCG64 gives the same
    sequence however its draws are chunked. Each refill is held once, as a
    float64 array behind a read-only memoryview, whose items read as Python
    floats (8 bytes per buffered draw).
    """

    _FIRST_BUFFER = 64
    _BUFFER = 8192

    __slots__ = ("seed", "path", "_gen", "_buf", "_pos")

    def __init__(self, seed: int, path=(), words=None):
        if not isinstance(seed, int) or seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
        path = tuple(path)
        for p in path:
            if not isinstance(p, int) or p < 0 or p >= 2**32:
                raise ValueError(f"stream path entries must be uint32, got {p!r}")
        self.seed = seed
        self.path = path
        if words is None:
            ss = np.random.SeedSequence(entropy=seed, spawn_key=path)
        else:
            ss = _preset()(words)
        self._gen = np.random.Generator(np.random.PCG64(ss))
        self._buf = _NO_DRAWS
        self._pos = 0

    def child(self, index: int) -> "RandomStream":
        """An independent stream addressed by extending the path."""
        return RandomStream(self.seed, self.path + (index,))

    def uniform(self) -> float:
        """One uniform draw on [0, 1)."""
        try:
            u = self._buf[self._pos]
        except IndexError:  # spent (a memoryview's len costs as much as the read)
            size = min(max(2 * len(self._buf), self._FIRST_BUFFER), self._BUFFER)
            self._refill(self._gen.random(size))
            u = self._buf[0]
        self._pos += 1
        return u

    def exponential(self, rate: float) -> float:
        """Exponential waiting time at the total rate; `waiting_times` maps a column."""
        return -math.log(1.0 - self.uniform()) / rate

    def _refill(self, draws):
        self._buf, self._pos = memoryview(draws).toreadonly(), 0  # peek hands out views

    def _fill(self, k: int):
        if k < 0:
            raise ValueError(f"draw count must be nonnegative, got {k}")
        short = k - (len(self._buf) - self._pos)
        if short > 0:
            more = self._gen.random(max(short, self._FIRST_BUFFER))
            self._refill(np.concatenate((self._buf[self._pos :], more)) if short < k else more)

    def peek(self, k: int) -> np.ndarray:
        """The next k uniform draws, left in the stream: a read-only view."""
        self._fill(k)
        return np.asarray(self._buf[self._pos : self._pos + k])

    def advance(self, j: int):
        """Consume j draws, as j calls of uniform() would."""
        self._fill(j)
        self._pos += j


def waiting_times(us, rates) -> np.ndarray:
    """`RandomStream.exponential` at each draw u of a 1-D array, bit for bit: 1 - u
    and / rate (an array or a float) round alike in numpy, and the log is
    `math.log`, as np.log rounds otherwise on a few draws in 1,000."""
    return -np.fromiter(map(math.log, (1.0 - us).tolist()), float, len(us)) / rates
