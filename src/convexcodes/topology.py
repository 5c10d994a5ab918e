"""Mod-2 homology, contractibility certificates, and convexity obstructions.

Reduced Betti numbers are computed over GF(2) from boundary-matrix ranks,
with the empty face carried in degree -1 so that the complex consisting of
the empty face alone reports its one unit of (-1)-homology.  Contractibility
is three-valued: a disconnected facet graph or a non-zero reduced Betti
number certifies NotContractible, a cone apex or a replayable collapse
sequence certifies Contractible, and everything else is Unknown.  The
components are read from the facets alone, so a disconnected complex is
decided without building a face.  Otherwise one budgeted face list, in
`word_key` order, feeds both the boundary ranks and the collapse search.
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
    closed_sets,
    link,
    restrict,
    simplicial_complex,
    word_key,
    word_neurons,
)

COLLAPSE_RESTARTS = 32
FACE_BUDGET = 1 << 20  # faces a face walk builds before it gives up


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


def _sorted_faces(K: SimplicialComplex) -> list[int]:
    """The faces, within FACE_BUDGET, in `word_key` order: by size, the empty face first."""
    # The order changes no rank, but it keeps the GF(2) elimination sparse:
    # unsorted, the fill-in slows large links by about half again.
    return sorted(K.faces(budget=FACE_BUDGET), key=word_key)


def reduced_betti(K: SimplicialComplex) -> BettiProfile:
    """Reduced GF(2) Betti numbers of a complex, from boundary ranks."""
    if not K.facets:
        return BettiProfile(0, ())
    return _betti_of_faces(_sorted_faces(K))


def _betti_of_faces(faces: list[int]) -> BettiProfile:
    """Reduced Betti numbers from the faces of a complex in `word_key` order."""
    top = faces[-1].bit_count()
    # faces[starts[s]:starts[s + 1]] are the faces of size s
    starts = [bisect_left(faces, s, key=int.bit_count) for s in range(top + 2)]
    index = {f: i for i, f in enumerate(faces)}
    ranks = [0]  # ranks[s]: rank of the boundary map from size s to size s - 1
    for s in range(1, top + 1):
        # columns are the faces of size s, rows those of size s - 1
        row0 = starts[s - 1]
        cols = []
        for f in faces[starts[s] : starts[s + 1]]:
            col = 0
            for i in word_neurons(f):
                col |= 1 << (index[f & ~(1 << (i - 1))] - row0)
            cols.append(col)
        ranks.append(_rank_gf2(cols))
    ranks.append(0)
    betti = [starts[s + 1] - starts[s] - ranks[s] - ranks[s + 1] for s in range(1, top + 1)]
    while betti and betti[-1] == 0:
        betti.pop()
    return BettiProfile(1 - ranks[1], tuple(betti))


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


def _try_collapse(faces: list[int], rng: random.Random) -> tuple[tuple[int, int], ...] | None:
    """Greedy free-face collapse; returns the removal sequence on success.

    `faces` are the faces of a complex in `word_key` order, so the empty
    face comes first; it takes no part.  While the live faces form
    a complex, a face has exactly one proper coface iff it has exactly one
    codimension-1 coface, so only those are counted, and an elementary
    collapse changes the counts of the facets of the removed pair alone.
    Each step draws from the free faces in `word_key` order; a free face
    fixes its coface, so this is the order of the (face, coface) pairs.
    """
    rank = {f: r for r, f in enumerate(faces)}
    cofaces = dict.fromkeys(faces, 0)  # live codimension-1 cofaces
    for g in faces:
        for i in word_neurons(g):
            cofaces[g & ~(1 << (i - 1))] += 1
    cofaces[0] = -1  # the empty face counts as removed
    free = [r for r, f in enumerate(faces) if cofaces[f] == 1]  # ranks, sorted
    span = 0
    for f in faces:
        span |= f
    span_bits = [1 << (i - 1) for i in word_neurons(span)]
    live = len(faces) - 1
    seq: list[tuple[int, int]] = []
    while live > 1:
        if not free:
            return None
        f = faces[free[rng.randrange(len(free))]]
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
                c = cofaces[h]
                if c < 0:
                    continue  # the empty face
                cofaces[h] = c - 1
                if c == 2:
                    insort(free, rank[h])
                elif c == 1:
                    del free[bisect_left(free, rank[h])]
    (last,) = (f for f in faces if cofaces[f] >= 0)
    if last.bit_count() != 1:
        return None
    return tuple(seq)


def replay_collapse(K: SimplicialComplex, seq: Iterable[tuple[int, int]]) -> bool:
    """Check that a collapse sequence is valid and ends in a single vertex."""
    live = K.faces(budget=FACE_BUDGET) - {0}
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
    random restarts.  The ranks and the collapses read one face list, built
    once within FACE_BUDGET.
    """
    if not K.facets:
        raise ValueError("contractibility of the void complex is undefined")
    apex = cone_apex(K)
    if apex is not None:
        return Contractible(apex=apex)
    components = _components(K)
    if components > 1:
        return NotContractible(degree=0, betti=components - 1)
    faces = _sorted_faces(K)
    profile = _betti_of_faces(faces)
    if profile.minus_one:
        return NotContractible(degree=-1, betti=profile.minus_one)
    for d, b in enumerate(profile.reduced):
        if b:
            return NotContractible(degree=d, betti=b)
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
    facets = tuple(simplicial_complex(code).facets)
    found: list[LocalObstruction] = []
    undecided: list[int] = []
    for sigma, _ in closed_sets(facets):
        if not sigma or sigma in code.words:
            continue
        link_cx = simplicial_complex(link(code, sigma))
        verdict = contractibility(link_cx)
        if isinstance(verdict, NotContractible):
            found.append(LocalObstruction(sigma, verdict, link_cx.facets))
        elif isinstance(verdict, Unknown):
            undecided.append(sigma)
    return LocalScan(tuple(found), tuple(undecided))


def covering_sets(code: Code, limit: int | None = None) -> list[int]:
    """The first `limit` covering subsets (all if None), in `word_key` order.

    A covering subset meets every codeword.
    """
    if 0 in code.words or not code.words:
        return []
    return _hitting_sets(code.n, sorted(code.words, key=word_key), limit)


def _hitting_sets(n: int, words: list[int], limit: int | None) -> list[int]:
    """The first `limit` subsets of [n] (all if None) that meet every word,
    by size and then lexicographically.

    One depth-first search per size adds elements in increasing order.  A
    branch is cut when an unhit word has no element left to add, or when a
    greedy packing of the unhit words (in the given order), cut down to the
    addable elements, holds more pairwise-disjoint words than elements may
    still be added: each of those words needs an element of its own.
    """

    def grow(chosen: int, first: int, left: int, unhit: list[int]) -> Iterator[int]:
        # `left` more elements, drawn from first..n
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

    found = chain.from_iterable(grow(0, 1, size, words) for size in range(1, n + 1))
    return list(islice(found, limit))


def nonlocal_obstructions(
    code: Code,
    max_pair_budget: int = 2000,
) -> tuple[NonlocalObstruction, ...]:
    """Search pairs of covering subsets for a homology mismatch.

    Pairs are examined in order of increasing total size, up to the budget.
    A Betti-profile inequality between the restricted complexes is a sound
    witness that they are not homotopy equivalent.  Each candidate that a
    kept pair touches is profiled once, and its profile is mapped to an
    integer kind, so a pair is compared by its two kinds.
    """
    if 0 in code.words or not code.words:
        return ()
    # enough covering sets that the budgeted pair scan cannot starve
    cap = max(64, int((2 * max_pair_budget) ** 0.5) + 2)
    cands = covering_sets(code, limit=cap)
    # cands are distinct and in word_key order, so indices order them
    size = [c.bit_count() for c in cands]
    pairs = sorted(
        (size[i] + size[j], i, j)
        for i in range(len(cands))
        for j in range(i + 1, len(cands))
    )[:max_pair_budget]
    touched = sorted({k for _, i, j in pairs for k in (i, j)})
    profile = {i: reduced_betti(simplicial_complex(restrict(code, cands[i]))) for i in touched}
    kinds: dict[BettiProfile, int] = {}
    kind = {i: kinds.setdefault(p, i) for i, p in profile.items()}
    return tuple(
        NonlocalObstruction(cands[i], cands[j], profile[i], profile[j])
        for _, i, j in pairs
        if kind[i] != kind[j]
    )
