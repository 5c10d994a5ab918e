"""Mod-2 homology, contractibility certificates, and convexity obstructions.

Reduced Betti numbers are computed over GF(2) from boundary-matrix ranks,
with the empty face carried in degree -1 so that the complex consisting of
the empty face alone reports its one unit of (-1)-homology.  Contractibility
is three-valued: a disconnected facet graph or a non-zero reduced Betti
number certifies NotContractible, a cone apex or a replayable collapse
sequence certifies Contractible, and everything else is Unknown.  The
components are read from the facets alone, so a disconnected complex is
decided without building a face.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Iterator

from .codes import (
    Code,
    SimplicialComplex,
    intersection_completion,
    link,
    restrict,
    simplicial_complex,
    word_key,
    word_neurons,
)

COLLAPSE_RESTARTS = 32
FACE_BUDGET = 1 << 20  # faces `reduced_betti` builds before it gives up


# ---------------------------------------------------------------------------
# reduced homology over GF(2)


@dataclass(frozen=True)
class BettiProfile:
    """Reduced Betti numbers (beta_0, beta_1, ...) with trailing zeros trimmed.

    `minus_one` is 1 exactly for the complex whose only face is the empty
    face, and 0 otherwise.
    """

    minus_one: int
    reduced: tuple[int, ...]

    def is_zero(self) -> bool:
        return self.minus_one == 0 and not self.reduced

    def __str__(self) -> str:
        if self.minus_one:
            return "(1 in degree -1)"
        return "(" + ",".join(str(b) for b in self.reduced) + ")"


def _rank_gf2(columns: list[int]) -> int:
    """Rank of a GF(2) matrix given as column bit masks."""
    pivots: dict[int, int] = {}
    rank = 0
    for col in columns:
        while col:
            low = col & -col
            if low in pivots:
                col ^= pivots[low]
            else:
                pivots[low] = col
                rank += 1
                break
    return rank


def reduced_betti(K: SimplicialComplex) -> BettiProfile:
    """Reduced GF(2) Betti numbers of a complex, from boundary ranks."""
    if not K.facets:
        return BettiProfile(0, ())
    faces = K.faces(budget=FACE_BUDGET)
    by_dim: dict[int, list[int]] = {}
    for f in faces:
        by_dim.setdefault(f.bit_count() - 1, []).append(f)
    top = max(by_dim)
    # The order changes no rank, but it keeps the GF(2) elimination sparse:
    # unsorted, the fill-in slows large links by about half again.
    for d in by_dim:
        by_dim[d].sort(key=word_key)
    index = {d: {f: i for i, f in enumerate(by_dim[d])} for d in by_dim}

    def boundary_rank(d: int) -> int:
        # columns are d-faces, rows are (d-1)-faces
        if d not in by_dim or (d - 1) not in by_dim:
            return 0
        rows = index[d - 1]
        cols = []
        for f in by_dim[d]:
            col = 0
            for i in word_neurons(f):
                col |= 1 << rows[f & ~(1 << (i - 1))]
            cols.append(col)
        return _rank_gf2(cols)

    ranks = {d: boundary_rank(d) for d in range(0, top + 1)}
    ranks[top + 1] = 0
    minus_one = 1 - ranks.get(0, 0)
    betti = [
        len(by_dim.get(d, ())) - ranks[d] - ranks[d + 1] for d in range(0, top + 1)
    ]
    while betti and betti[-1] == 0:
        betti.pop()
    return BettiProfile(minus_one, tuple(betti))


# ---------------------------------------------------------------------------
# contractibility


@dataclass(frozen=True)
class Contractible:
    """Certificate: a cone apex, or a collapse sequence ending in a point."""

    apex: int | None = None
    collapse_sequence: tuple[tuple[int, int], ...] | None = None


@dataclass(frozen=True)
class NotContractible:
    """Certificate: a non-zero reduced Betti number in the given degree."""

    degree: int
    betti: int


@dataclass(frozen=True)
class Unknown:
    restarts: int


Verdict = Contractible | NotContractible | Unknown


def cone_apex(K: SimplicialComplex) -> int | None:
    """A vertex contained in every facet, if one exists."""
    common = None
    for f in K.facets:
        common = f if common is None else common & f
    if not common:
        return None
    return word_neurons(common)[0]


def _components(K: SimplicialComplex) -> int:
    """How many connected components a complex has: facets merge while they meet."""
    spans: list[int] = []  # the vertex sets of the components so far
    for f in K.facets:
        for s in spans:
            if s & f:
                f |= s
        spans = [s for s in spans if not s & f] + [f]
    return len(spans)


def _try_collapse(faces: Iterable[int], rng: random.Random) -> tuple[tuple[int, int], ...] | None:
    """Greedy free-face collapse; returns the removal sequence on success.

    `faces` are the non-empty faces of a complex.  While the live faces form
    a complex, a face has exactly one proper coface iff it has exactly one
    codimension-1 coface, so only those are counted, and an elementary
    collapse changes the counts of the facets of the removed pair alone.
    Each step draws from the free faces in `word_key` order; a free face
    fixes its coface, so this is the order of the (face, coface) pairs.
    """
    order = sorted(faces, key=word_key)
    rank = {f: r for r, f in enumerate(order)}
    cofaces = dict.fromkeys(order, 0)  # live codimension-1 cofaces
    for g in order:
        for i in word_neurons(g):
            h = g & ~(1 << (i - 1))
            if h:
                cofaces[h] += 1
    free = [r for r, f in enumerate(order) if cofaces[f] == 1]  # ranks, sorted
    span = 0
    for f in order:
        span |= f
    span_bits = [1 << (i - 1) for i in word_neurons(span)]
    live = len(order)
    seq: list[tuple[int, int]] = []
    while live > 1:
        if not free:
            return None
        f = order[free[rng.randrange(len(free))]]
        g = next(f | b for b in span_bits if not f & b and cofaces.get(f | b, -1) >= 0)
        seq.append((f, g))
        live -= 2
        for dead in (g, f):
            r = rank[dead]
            if cofaces[dead] == 1:
                del free[bisect_left(free, r)]
            cofaces[dead] = -1  # removed
            for i in word_neurons(dead):
                h = dead & ~(1 << (i - 1))
                c = cofaces.get(h, -1)
                if c <= 0:
                    continue  # the empty face, or removed
                cofaces[h] = c - 1
                if c == 2:
                    insort(free, rank[h])
                elif c == 1:
                    del free[bisect_left(free, rank[h])]
    (last,) = (f for f in order if cofaces[f] >= 0)
    if last.bit_count() != 1:
        return None
    return tuple(seq)


def replay_collapse(K: SimplicialComplex, seq: Iterable[tuple[int, int]]) -> bool:
    """Check that a collapse sequence is valid and ends in a single vertex."""
    live = {f for f in K.faces() if f != 0}
    for f, g in seq:
        if f not in live or g not in live:
            return False
        cof = [h for h in live if h != f and h & f == f]
        if cof != [g]:
            return False
        live.discard(f)
        live.discard(g)
    return len(live) == 1 and next(iter(live)).bit_count() == 1


def contractibility(
    K: SimplicialComplex,
    restarts: int = COLLAPSE_RESTARTS,
    seed: int = 0,
) -> Verdict:
    """Decide contractibility where a certificate is available.

    Checks, in order: cone apex; c > 1 components of the facet graph, which
    is the reduced Betti number beta_0 = c - 1 without a face built; a
    non-zero reduced Betti number; greedy free-face collapses with seeded
    random restarts.
    """
    if not K.facets:
        raise ValueError("contractibility of the void complex is undefined")
    apex = cone_apex(K)
    if apex is not None:
        return Contractible(apex=apex)
    components = _components(K)
    if components > 1:
        return NotContractible(degree=0, betti=components - 1)
    profile = reduced_betti(K)
    if profile.minus_one:
        return NotContractible(degree=-1, betti=profile.minus_one)
    for d, b in enumerate(profile.reduced):
        if b:
            return NotContractible(degree=d, betti=b)
    faces = {f for f in K.faces() if f != 0}
    for attempt in range(restarts):
        rng = random.Random((seed << 16) + attempt)
        seq = _try_collapse(faces, rng)
        if seq is not None:
            return Contractible(collapse_sequence=seq)
    return Unknown(restarts=restarts)


# ---------------------------------------------------------------------------
# obstructions


@dataclass(frozen=True)
class LocalObstruction:
    """A simplicial violator whose link complex is certified non-contractible."""

    sigma: int
    verdict: NotContractible
    link_facets: frozenset[int]


@dataclass(frozen=True)
class NonlocalObstruction:
    """Two covering subsets whose restricted complexes have different homology."""

    sigma1: int
    sigma2: int
    profile1: BettiProfile
    profile2: BettiProfile


@dataclass(frozen=True)
class LocalScan:
    """The verdicts of a local-obstruction scan, in `word_key` order.

    Only the non-empty violators that are intersections of facets are
    scanned; at every other violator the link is a cone, so it is neither
    found nor undecided, and the scan is exact over all violators.
    """

    found: tuple[LocalObstruction, ...]
    undecided: tuple[int, ...]  # violators where contractibility came back Unknown

    def certifies_no_local_obstruction(self) -> bool:
        return not self.found and not self.undecided


def local_obstructions(code: Code) -> LocalScan:
    """Scan the simplicial violators for a local obstruction.

    Only completion(M) - C - {0} is scanned, with M the facets of the
    code's complex: the mandatory-codeword candidates.  A violator sigma
    outside completion(M) lies strictly inside I, the intersection of the
    facets that contain it, and every vertex of I outside sigma lies in
    every facet of the link at sigma.  That link is a cone, so contractible,
    and the result equals a scan of every violator.
    """
    facets = simplicial_complex(code).facets
    candidates = intersection_completion(Code(code.n, facets)).words - code.words
    found: list[LocalObstruction] = []
    undecided: list[int] = []
    for sigma in sorted(candidates - {0}, key=word_key):
        link_cx = simplicial_complex(link(code, sigma))
        verdict = contractibility(link_cx)
        if isinstance(verdict, NotContractible):
            found.append(LocalObstruction(sigma, verdict, link_cx.facets))
        elif isinstance(verdict, Unknown):
            undecided.append(sigma)
    return LocalScan(tuple(found), tuple(undecided))


def covering_sets(code: Code, limit: int | None = None) -> list[int]:
    """The first `limit` covering subsets (all if None), in `word_key` order.

    A covering subset meets every codeword.  One depth-first search per size
    adds neurons in increasing order, which within a size is lexicographic
    order.  A branch is cut when an unhit word has no neuron left to add, or
    when a greedy packing of the unhit words, cut down to the addable
    neurons, holds more pairwise-disjoint words than neurons may still be
    added: each of those words needs a neuron of its own.
    """
    if 0 in code.words or not code.words:
        return []
    n = code.n

    def grow(chosen: int, first: int, left: int, unhit: list[int]) -> Iterator[int]:
        # `left` more neurons, drawn from first..n
        if not left:
            if not unhit:
                yield chosen
            return
        addable = (1 << n) - (1 << (first - 1))
        used = packed = 0
        for w in unhit:
            w &= addable
            if not w:
                return
            if not w & used:
                used |= w
                packed += 1
        if packed > left:
            return
        for i in range(first, n - left + 2):
            bit = 1 << (i - 1)
            yield from grow(chosen | bit, i + 1, left - 1, [w for w in unhit if not w & bit])

    words = sorted(code.words, key=word_key)
    found = chain.from_iterable(grow(0, 1, size, words) for size in range(1, n + 1))
    return list(islice(found, limit))


def nonlocal_obstructions(
    code: Code,
    max_pair_budget: int = 2000,
) -> tuple[NonlocalObstruction, ...]:
    """Search pairs of covering subsets for a homology mismatch.

    Pairs are examined in order of increasing total size, up to the budget.
    A Betti-profile inequality between the restricted complexes is a sound
    witness that they are not homotopy equivalent.
    """
    if 0 in code.words or not code.words:
        return ()
    # enough covering sets that the budgeted pair scan cannot starve
    cap = max(64, int((2 * max_pair_budget) ** 0.5) + 2)
    cands = covering_sets(code, limit=cap)
    profiles: dict[int, BettiProfile] = {}

    def profile(sigma: int) -> BettiProfile:
        if sigma not in profiles:
            profiles[sigma] = reduced_betti(simplicial_complex(restrict(code, sigma)))
        return profiles[sigma]

    # cands are distinct and in word_key order, so indices order them
    size = [c.bit_count() for c in cands]
    pairs = sorted(
        (size[i] + size[j], i, j)
        for i in range(len(cands))
        for j in range(i + 1, len(cands))
    )
    found: list[NonlocalObstruction] = []
    for _, i, j in pairs[:max_pair_budget]:
        s1, s2 = cands[i], cands[j]
        p1, p2 = profile(s1), profile(s2)
        if p1 != p2:
            found.append(NonlocalObstruction(s1, s2, p1, p2))
    return tuple(found)
