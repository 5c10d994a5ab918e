"""Constructive convex realizations with machine-checked certificates.

Three constructions are provided: the chamber cover realizing the
intersection completion of a code's maximal words, the monotone extension
that adds missing non-maximal words to an abstract cover one fresh point
at a time, and the potential cover whose code is the intersection
completion of the input.  Each construction emits a certificate holding
the target code, the achieved code, and a replayable realization.

The chamber cover's half-space regions are certified for every number k
of maximal words without enumerating an arrangement: each half-space is
read at the k vertices of a simplex, which names the facet whose open
side it is, and each region must be cut by exactly the facets its neuron
misses.  That makes the half-space code the abstract chamber code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .codes import (
    AbstractCover,
    Code,
    _submasks,
    abstract_code,
    closed_sets,
    maximal_codewords,
    simplicial_complex,
    word_key,
    word_label,
    word_neurons,
)
from .geometry import (
    AMBIENT_UNION,
    AMBIENT_WHOLE,
    CellComplex,
    ConvexRegion,
    HalfSpace,
    PolyhedralCover,
    code_of_cover,
)
from .topology import _hitting_sets


@dataclass(frozen=True)
class CheckRecord:
    name: str
    passed: bool
    detail: str = ""

    @property
    def status(self) -> str:
        return "pass" if self.passed else "FAIL"


@dataclass(frozen=True, eq=False)
class RealizationCertificate:
    target: Code
    achieved: Code
    method: str  # "chamber" | "chamber+monotone" | "potential"
    dimension: int
    ambient: str
    checks: tuple[CheckRecord, ...]
    cover: AbstractCover | None = None  # replayable abstract realization
    geometric: PolyhedralCover | None = None  # half-space cover of a chamber realization

    @property
    def valid(self) -> bool:
        """The achieved code is the target and every check passed."""
        return self.achieved.words == self.target.words and all(
            c.passed for c in self.checks
        )


@dataclass(frozen=True)
class NotApplicable:
    """The chamber pipeline needs every intersection of maximal words present."""

    missing: int
    intersect_of: tuple[int, ...]

    def describe(self, n: int) -> str:
        terms = " ∩ ".join(word_label(w, n) for w in self.intersect_of)
        return f"{word_label(self.missing, n)} = {terms} is missing from the code"


def replay_certificate(cert: RealizationCertificate) -> bool:
    """Recompute the achieved code from the stored realization."""
    if cert.cover is None:
        return False
    return abstract_code(cert.cover).words == cert.achieved.words


# ---------------------------------------------------------------------------
# chamber realization of the completion of the maximal words


@dataclass(frozen=True, eq=False)
class ChamberRealization:
    k: int  # number of maximal words after padding
    padded_words: tuple[int, ...]
    rho: Mapping[int, int]  # neuron -> mask over [k]
    abstract: AbstractCover  # points are the non-empty subsets of [k]
    geometric: PolyhedralCover
    padding_count: int
    achieved_whole: Code
    achieved_union: Code


def max_int_realization(
    code: Code, ambient: str = AMBIENT_UNION
) -> tuple[ChamberRealization, RealizationCertificate]:
    """Realize the intersection completion of the maximal words of a code.

    Fewer than three maximal words get padded with empty ones so the
    half-space construction lives in R^{max(2, k-1)}.  The abstract chamber
    cover is the exactness carrier; the half-space cover is certified to
    have the same code by `_simplex_sides`, for every k.
    """
    if ambient not in (AMBIENT_WHOLE, AMBIENT_UNION):
        raise ValueError(f"ambient must be whole or union, got {ambient!r}")
    if not code.words:
        raise ValueError("cannot realize an empty code")
    maxima = sorted(maximal_codewords(code), key=word_key)
    padding = max(0, 3 - len(maxima))
    words = tuple(maxima) + (0,) * padding
    k = len(words)
    d = k - 1

    rho = {
        i: sum(1 << (a - 1) for a, w in enumerate(words, start=1) if w & (1 << (i - 1)))
        for i in range(1, code.n + 1)
    }
    points = tuple(range(1, 1 << k))  # non-empty subsets of [k] as masks
    # neuron i owns the chambers inside rho(i): its non-empty submasks
    membership = {
        i: frozenset(p for p in _submasks(rho[i]) if p) for i in range(1, code.n + 1)
    }
    abstract = AbstractCover(code.n, points, membership, None)
    achieved_whole = abstract_code(abstract)
    achieved_union = Code(code.n, achieved_whole.words - {0})

    # facet a's open side away from vertex a, {lambda_a < 0}, shared by every
    # set that omits a: x_a < 0 for a < k, and sum x > 1 for a = k
    away = [HalfSpace(tuple(int(j == a) for j in range(d)), 0, True) for a in range(d)]
    away.append(HalfSpace((-1,) * d, -1, True))
    regions = tuple(
        ConvexRegion(
            d, tuple(h for a, h in enumerate(away) if not rho[i] & (1 << a))
        )
        for i in range(1, code.n + 1)
    )
    geometric = PolyhedralCover(d, regions, ambient)

    # the padding's empty words put 0 in the whole-space target
    target_words = {w for w, _ in closed_sets(words)}
    if ambient == AMBIENT_WHOLE:
        achieved = achieved_whole
        cert_cover = abstract
    else:
        target_words.discard(0)
        achieved = achieved_union
        covered = frozenset().union(*membership.values())
        cert_cover = AbstractCover(code.n, points, membership, covered)
    target = Code(code.n, frozenset(target_words))

    problem = _simplex_sides(geometric, rho, k, ambient)
    checks = [
        CheckRecord(
            "abstract-chamber-code",
            achieved.words == target.words,
            f"achieved {len(achieved)} words",
        ),
        CheckRecord(
            "geometric-agreement",
            problem is None,
            problem or f"{code.n} regions cut by sides of the {k} simplex facets",
        ),
    ]

    cert = RealizationCertificate(
        target=target,
        achieved=achieved,
        method="chamber",
        dimension=d,
        ambient=ambient,
        checks=tuple(checks),
        cover=cert_cover,
        geometric=geometric,
    )
    realization = ChamberRealization(
        k=k,
        padded_words=words,
        rho=rho,
        abstract=abstract,
        geometric=geometric,
        padding_count=padding,
        achieved_whole=achieved_whole,
        achieved_union=achieved_union,
    )
    return realization, cert


def _simplex_sides(
    geometric: PolyhedralCover, rho: Mapping[int, int], k: int, ambient: str
) -> str | None:
    """Why the half-space cover is not the chamber cover of rho, or None.

    The barycentric coordinates of conv{e_1, ..., e_{k-1}, 0} are
    lambda_a = x_a for a < k and lambda_k = 1 - sum x.  The chamber
    S(x) = {a : lambda_a(x) >= 0} of a point is never empty, and every
    non-empty S is the chamber of some point.  A strict side {v.x < b}
    whose v.x - b vanishes at every vertex but vertex a, and is positive
    there, is {lambda_a < 0}.  A region cut by exactly these sides for the
    facets outside rho(i) is {x : S(x) <= rho(i)}, so the cover's code is
    the code of the abstract chamber cover.  Each half-space object is
    evaluated once.
    """
    if geometric.dimension != k - 1 or geometric.n != len(rho):
        return f"expected {len(rho)} regions in R^{k - 1}"
    if geometric.ambient != ambient:
        return f"ambient is not {ambient}"
    facet_of: dict[int, int | None] = {}  # id of a half-space -> its facet bit
    full = (1 << k) - 1
    for i, region in enumerate(geometric.regions, start=1):
        if region.ball is not None:
            return f"region {i} carries a ball"
        cut = 0
        for h in region.halfspaces:
            if id(h) not in facet_of:
                facet_of[id(h)] = _facet_side(h)
            a = facet_of[id(h)]
            if a is None:
                return f"region {i} has a half-space that is no facet's open side"
            cut |= 1 << a
        if cut != full & ~rho[i]:
            return f"region {i} is not cut by the facets outside rho({i})"
    return None


def _facet_side(h: HalfSpace) -> int | None:
    """The bit a - 1 of the facet a with h = {lambda_a < 0}, or None.

    v.x - b is read at the vertices e_1, ..., e_{k-1} and the origin; it
    is a positive multiple of lambda_a when it vanishes at every vertex
    but vertex a and is positive there.
    """
    if not h.strict:
        return None
    values = [c - h.offset for c in h.normal]
    values.append(-h.offset)
    nonzero = [a for a, value in enumerate(values) if value]
    if len(nonzero) != 1 or values[nonzero[0]] < 0:
        return None
    return nonzero[0]


# ---------------------------------------------------------------------------
# monotone extension


class MonotoneExtendError(ValueError):
    def __init__(self, message: str, word: int):
        super().__init__(message)
        self.word = word


def monotone_extend(cover: AbstractCover, target: Code) -> AbstractCover:
    """Grow an abstract cover until its code equals `target`.

    Needs code(cover) <= target <= faces of its complex, with the maximal
    words unchanged.  Missing words are added in decreasing cardinality;
    each one costs a single fresh point whose membership is exactly the word
    (the abstract image of carving a cap out of a bigger atom).
    """
    base = abstract_code(cover)
    if target.n != base.n:
        raise MonotoneExtendError("neuron count mismatch", 0)
    missing_base = sorted(base.words - target.words, key=word_key)
    if missing_base:
        raise MonotoneExtendError(
            f"target drops codeword {word_label(missing_base[0], base.n)}",
            missing_base[0],
        )
    complex_ = simplicial_complex(base)
    for w in sorted(target.words, key=word_key):
        if not complex_.has_face(w):
            raise MonotoneExtendError(
                f"target word {word_label(w, base.n)} is not a face of the complex",
                w,
            )
    points = list(cover.points)
    membership = {i: set(s) for i, s in cover.membership.items()}
    ambient = None if cover.ambient is None else set(cover.ambient)
    counter = 0
    existing = set(points)
    # every added word is a face of the base complex but not one of its
    # facets (those are base words), so it lies strictly inside a maximal
    # word, whose atom a geometric construction would carve the point out of
    for sigma in sorted(target.words - base.words, key=word_key, reverse=True):
        while f"q{counter}" in existing:
            counter += 1
        fresh = f"q{counter}"
        counter += 1
        existing.add(fresh)
        points.append(fresh)
        for i in word_neurons(sigma):
            membership.setdefault(i, set()).add(fresh)
        if ambient is not None:
            ambient.add(fresh)
    return AbstractCover(
        cover.n,
        tuple(points),
        {i: frozenset(s) for i, s in membership.items()},
        None if ambient is None else frozenset(ambient),
    )


def abstract_from_cover(
    cover: PolyhedralCover, cells: CellComplex | None = None
) -> AbstractCover:
    """Collapse a polyhedral cover to one abstract point per cell."""
    _, atlas = code_of_cover(cover, cells)
    points: list[str] = []
    membership: dict[int, set[str]] = {}
    idx = 0
    for word in sorted(atlas, key=word_key):
        for _ in atlas[word]:
            label = f"c{idx}"
            idx += 1
            points.append(label)
            for i in word_neurons(word):
                membership.setdefault(i, set()).add(label)
    return AbstractCover(
        cover.n,
        tuple(points),
        {i: frozenset(s) for i, s in membership.items()},
        None,
    )


# ---------------------------------------------------------------------------
# potential cover


# A point of the potential cover's simplex in integers: a denominator and the
# numerators on its support, coordinate -> numerator; every other coordinate
# is zero.  The point is sum_j (numerator_j / denominator) e_j.
SparsePoint = tuple[int, Mapping[int, int]]


@dataclass(frozen=True, eq=False)
class PotentialCoverRealization:
    basis_index: Mapping[int, int]  # non-empty codeword -> coordinate
    vertex_sets: Mapping[int, tuple[int, ...]]  # neuron -> vertex coordinates
    witnesses: Mapping[int, SparsePoint]  # achieved codeword -> point of its atom
    dimension: int


def potential_cover(code: Code) -> tuple[PotentialCoverRealization, RealizationCertificate]:
    """The closed convex cover V_i = conv{e_w : w contains i} and its code.

    The target is the intersection completion of the non-empty codewords.
    Every target word sigma gets an exact barycentric witness, kept sparse in
    integers: the barycentre of the vertices e_w of its family {w : w
    contains sigma}, (len(family), 1 on each e_w).  The empty word's family
    is every non-empty codeword.  The achieved code is what `_potential_word`
    reads back at the witnesses in integer arithmetic, so the certificate
    compares it with the completion.
    """
    if not code.words:
        raise ValueError("potential cover needs a non-empty code")
    nonempty = sorted((w for w in code.words if w), key=word_key)
    basis_index = {w: i for i, w in enumerate(nonempty)}
    dim = len(nonempty)
    vertex_sets = {
        i: tuple(basis_index[w] for w in nonempty if w & (1 << (i - 1)))
        for i in range(1, code.n + 1)
    }

    # bit a of a family is coordinate a: `nonempty` is in basis order
    witnesses: dict[int, SparsePoint] = {
        sigma: (family.bit_count(), {a - 1: 1 for a in word_neurons(family)})
        for sigma, family in closed_sets(nonempty)
    }
    target = Code(code.n, frozenset(witnesses))

    vertex_sets_of = {i: set(v) for i, v in vertex_sets.items()}
    read = {sigma: _potential_word(point, vertex_sets_of) for sigma, point in witnesses.items()}
    achieved = Code(code.n, frozenset(w for w in read.values() if w is not None))
    checks = (
        CheckRecord(
            "witness-membership",
            all(w == sigma for sigma, w in read.items()),
            f"{len(witnesses)} witnesses",
        ),
        CheckRecord(
            "achieved-is-completion",
            achieved.words == target.words,
            f"{len(achieved)} words",
        ),
    )
    realization = PotentialCoverRealization(basis_index, vertex_sets, witnesses, dim)
    cert = RealizationCertificate(
        target=target,
        achieved=achieved,
        method="potential",
        dimension=dim,
        ambient=AMBIENT_UNION,
        checks=checks,
        cover=None,
    )
    return realization, cert


def _potential_word(point: SparsePoint, vertex_sets: Mapping[int, set[int]]) -> int | None:
    """The word of a point of the potential cover's simplex, by its support.

    All in integers.  None when the point is not a convex combination of the
    basis vectors: a denominator that is not positive, a negative numerator,
    or numerators not summing to the denominator.  The support is the
    coordinates with a non-zero numerator, and the point lies in V_i iff its
    support is inside i's vertex set.
    """
    den, numerators = point
    if den <= 0 or min(numerators.values(), default=0) < 0:
        return None
    if sum(numerators.values()) != den:
        return None
    support = {j for j, a in numerators.items() if a}
    word = 0
    for i, vertices in vertex_sets.items():
        if support <= vertices:
            word |= 1 << (i - 1)
    return word


# ---------------------------------------------------------------------------
# end-to-end pipeline


def realize(code: Code, ambient: str | None = None):
    """Realize a max intersection-complete code exactly; the certificate
    records dimension max(2, k-1).

    Returns NotApplicable, with the first missing intersection of maximal
    words as witness, when the completeness hypothesis fails.  The ambient
    mode defaults to whole space when the empty word is present and to the
    union of the sets otherwise; asking for the union ambient on a code with
    the empty word raises MonotoneExtendError, as no point of the union lies
    outside every set.
    """
    maxima = sorted(maximal_codewords(code), key=word_key)
    for w, family in closed_sets(maxima):
        if w not in code.words:
            return _missing_intersection(code, maxima, w, family)
    if ambient is None:
        ambient = AMBIENT_WHOLE if 0 in code.words else AMBIENT_UNION
    elif ambient == AMBIENT_UNION and 0 in code.words:
        # every point of the union lies in some set, so none carries the empty word
        raise MonotoneExtendError(
            "the union of the sets has no point outside every set, "
            "so the empty word 0 cannot be realized",
            0,
        )
    realz, cert = max_int_realization(code, ambient)
    base_code = cert.achieved
    if base_code.words == code.words:
        method, cover, achieved = "chamber", cert.cover, base_code
    else:
        method = "chamber+monotone"
        cover = monotone_extend(cert.cover, code)
        achieved = abstract_code(cover)
    checks = list(cert.checks)
    checks.append(
        CheckRecord(
            "monotone-extension",
            achieved.words == code.words,
            f"added {len(code.words - base_code.words)} words",
        )
    )
    return RealizationCertificate(
        target=code,
        achieved=achieved,
        method=method,
        dimension=realz.k - 1,
        ambient=ambient,
        checks=tuple(checks),
        cover=cover,
        geometric=cert.geometric,
    )


def _missing_intersection(
    code: Code, maxima: list[int], missing: int, family: int
) -> NotApplicable:
    """The first smallest family of maxima that meets in the missing word.
    Only the maxima that contain it, bit a of `family` for maxima[a], take
    part, and a family of them meets in the word iff each neuron outside it
    is missed by some member: a hitting set of the masks of the members
    that miss each such neuron."""
    members = [m for a, m in enumerate(maxima) if family >> a & 1]
    misses = {
        sum(1 << a for a, m in enumerate(members) if not m >> j & 1)
        for j in range(code.n)
        if not missing >> j & 1
    }
    # word_key takes masks below 2^64 only, and there may be more members
    (pick,) = _hitting_sets(len(members), sorted(misses, key=int.bit_count), 1)
    return NotApplicable(missing, tuple(m for a, m in enumerate(members) if pick >> a & 1))
