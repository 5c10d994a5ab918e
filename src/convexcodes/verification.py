"""Bundled verification suite: worked examples and the acceptance criteria.

Every row re-derives a documented fact about a fixture code or cover and
reports pass/fail; the CLI's verify-paper subcommand and the acceptance
test module both run these entries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .codes import (
    Code,
    abstract_code,
    classify_completeness,
    covers,
    finite_realization,
    intersection_completion,
    link,
    maximal_codewords,
    simplicial_complex,
    word_key,
    word_mask,
)
from .geometry import (
    AMBIENT_UNION,
    AMBIENT_WHOLE,
    ConvexRegion,
    HalfSpace,
    PolyhedralCover,
    arrangement_cells,
    check_nondegeneracy,
    code_of_cover,
    enumerate_cells,
    open_interval,
    sample_code,
    verify_closure_interior_invariance,
)
from .realization import (
    NotApplicable,
    abstract_from_cover,
    max_int_realization,
    monotone_extend,
    potential_cover,
    realize,
    replay_certificate,
)
from .topology import (
    local_obstructions,
    nonlocal_obstructions,
    reduced_betti,
)

F = Fraction


# ---------------------------------------------------------------------------
# fixture codes


def fig_cover_code() -> Code:
    """The four-ellipse cover code {0, 2, 3, 12, 23, 34, 123}."""
    return Code.from_compact(4, "0 2 3 12 23 34 123")


def disconnected_link_code() -> Code:
    """{0, 1, 2, 13, 23}: not realizable by open connected sets."""
    return Code.from_compact(3, "0 1 2 13 23")


def two_triangle_code() -> Code:
    """{0, 1, 2, 3, 4, 123, 124}: the violator 12 has a disconnected link."""
    return Code.from_compact(4, "0 1 2 3 4 123 124")


def nonlocal_example_code() -> Code:
    """{23, 14, 123}: covered by both {1,2} and {3,4}."""
    return Code.from_compact(4, "23 14 123")


def six_neuron_code() -> Code:
    """Open convex but not closed convex; every intersection witness stays."""
    return Code.from_compact(6, "123 126 156 456 345 234 12 16 56 45 34 23 0")


def five_neuron_code() -> Code:
    """Closed convex but not open convex (no local obstructions)."""
    return Code.from_compact(5, "2345 124 135 145 14 15 24 35 45 4 5")


def nested_interval_cover() -> PolyhedralCover:
    """(0,6) > (1,5) > (2,4): a one-dimensional realization of {123,12,1}."""
    return PolyhedralCover(
        1,
        (open_interval(0, 6), open_interval(1, 5), open_interval(2, 4)),
        AMBIENT_WHOLE,
    )


def two_interval_cover() -> PolyhedralCover:
    """(0,2) and (1,3) on the line; code {0, 1, 12, 2}."""
    return PolyhedralCover(1, (open_interval(0, 2), open_interval(1, 3)), AMBIENT_WHOLE)


def closed_line_split_cover() -> PolyhedralCover:
    """{x <= 0} and {x >= 0}: condition (ii) holds, condition (i) fails."""
    left = ConvexRegion(1, (HalfSpace((F(1),), F(0), False),))
    right = ConvexRegion(1, (HalfSpace((F(-1),), F(0), False),))
    return PolyhedralCover(1, (left, right), AMBIENT_WHOLE)


def _quad(points: list[tuple[Fraction, Fraction]]) -> ConvexRegion:
    """Closed convex hull of four planar points given in boundary order."""
    hs = []
    m = len(points)
    for a in range(m):
        (x1, y1), (x2, y2) = points[a], points[(a + 1) % m]
        # inward normal: the remaining vertices fix the orientation
        nx, ny = y2 - y1, x1 - x2
        off = nx * x1 + ny * y1
        other = points[(a + 2) % m]
        if nx * other[0] + ny * other[1] > off:
            nx, ny, off = -nx, -ny, -off
        hs.append(HalfSpace((nx, ny), off, False))
    return ConvexRegion(2, tuple(hs))


def _box(x0, x1, y0, y1) -> ConvexRegion:
    return ConvexRegion(
        2,
        (
            HalfSpace((F(-1), F(0)), -F(x0), False),
            HalfSpace((F(1), F(0)), F(x1), False),
            HalfSpace((F(0), F(-1)), -F(y0), False),
            HalfSpace((F(0), F(1)), F(y1), False),
        ),
    )


def five_neuron_closed_cover() -> PolyhedralCover:
    """A closed planar cover realizing the five-neuron code exactly.

    Set 1 is a wide strip along the top, sets 4 and 5 are the left and
    right rectangles sharing the segment x = 0, and sets 2 and 3 are
    mirrored quadrilaterals inside the rectangles.  All five sets are
    closed, so the one-dimensional overlaps carry the codeword 2345.
    """
    strip = _box(-2, 2, F(-3, 4), 0)
    left_rect = _box(-2, 0, -2, 0)
    right_rect = _box(0, 2, -2, 0)
    left_quad = _quad(
        [
            (F(-17, 10), F(-1, 5)),
            (F(-1), F(-1, 5)),
            (F(0), F(-6, 5)),
            (F(0), F(-19, 10)),
        ]
    )
    right_quad = _quad(
        [
            (F(17, 10), F(-1, 5)),
            (F(1), F(-1, 5)),
            (F(0), F(-6, 5)),
            (F(0), F(-19, 10)),
        ]
    )
    return PolyhedralCover(
        2,
        (strip, left_quad, right_quad, left_rect, right_rect),
        AMBIENT_UNION,
    )


def concurrent_lines() -> list[tuple[tuple[Fraction, Fraction], Fraction]]:
    """Three concurrent lines through the origin: x = 0, y = 0, x - y = 0."""
    return [
        ((F(1), F(0)), F(0)),
        ((F(0), F(1)), F(0)),
        ((F(1), F(-1)), F(0)),
    ]


# ---------------------------------------------------------------------------
# deterministic random-code generators


def random_code(rng: random.Random, n: int, max_words: int, allow_empty: bool = True) -> Code:
    words = set()
    for _ in range(rng.randint(1, max_words)):
        w = rng.randrange(1 << n)
        if w == 0 and not allow_empty:
            continue
        words.add(w)
    if not words:
        words.add(rng.randrange(1, 1 << n))
    return Code(n, frozenset(words))


def random_code_with_few_maxima(rng: random.Random) -> Code:
    while True:
        n = rng.randint(2, 7)
        c = random_code(rng, n, max_words=rng.randint(1, 10))
        if len(maximal_codewords(c)) <= 5:
            return c


def random_max_complete_code(rng: random.Random) -> Code:
    """Completion of a small antichain plus random extra faces below it."""
    n = rng.randint(2, 7)
    seeds = {rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 5))}
    maxima = maximal_codewords(Code(n, frozenset(seeds)))
    base = intersection_completion(Code(n, maxima))
    words = set(base.words)
    faces = sorted(simplicial_complex(base).faces())
    for _ in range(rng.randint(0, 4)):
        f = faces[rng.randrange(len(faces))]
        if f not in maxima:
            words.add(f)
    return Code(n, frozenset(words))


def random_monotone_pair(rng: random.Random) -> tuple[Code, Code]:
    """A code C and a superset D of faces below the same maximal words."""
    n = rng.randint(2, 6)
    c = random_code(rng, n, max_words=rng.randint(1, 8))
    complex_ = simplicial_complex(c)
    maxima = maximal_codewords(c)
    extras = [f for f in complex_.faces() if f not in c.words and f not in maxima]
    rng.shuffle(extras)
    extra = extras[: rng.randint(0, len(extras))]
    d = Code(n, c.words | frozenset(extra))
    return c, d


# ---------------------------------------------------------------------------
# oracle helpers (independent, brute force)


def brute_completion_words(words: list[int]) -> set[int]:
    """All intersections of non-empty subfamilies, by explicit enumeration."""
    out: set[int] = set()
    m = len(words)
    for pick in range(1, 1 << m):
        inter = None
        for j in range(m):
            if pick & (1 << j):
                inter = words[j] if inter is None else inter & words[j]
        out.add(inter)
    return out


# ---------------------------------------------------------------------------
# suite rows


@dataclass(frozen=True)
class FixtureResult:
    name: str
    passed: bool
    detail: str


def _words(code: Code, compact: str) -> bool:
    return code.words == Code.from_compact(code.n, compact).words


def fixture_rows() -> list[tuple[str, Callable[[], tuple[bool, str]]]]:
    """Worked examples; the obstruction and counterexample fixtures are the
    acceptance criteria 1-3 below."""

    def complex_of_fig_cover():
        k = simplicial_complex(fig_cover_code())
        ok = k.facets == frozenset({word_mask([1, 2, 3]), word_mask([3, 4])})
        return ok, "facets 123, 34"

    def maxima_of_five_neuron():
        got = maximal_codewords(five_neuron_code())
        want = Code.from_compact(5, "2345 124 135 145").words
        return got == want, "four maximal words"

    def link_example():
        c = Code.from_compact(4, "0 1 2 3 4 123 124")
        got = link(c, word_mask([1, 2]))
        return _words(got, "3 4"), "link at 12 is {3, 4}"

    def covering_pair():
        c = nonlocal_example_code()
        ok = covers(word_mask([1, 2]), c) and covers(word_mask([3, 4]), c)
        return ok, "both {1,2} and {3,4} cover"

    def one_point_realization():
        c = Code.from_compact(2, "0 1 12")
        ok = abstract_code(finite_realization(c)).words == c.words
        return ok, "one point per codeword"

    def closed_split_line():
        cover = closed_line_split_cover()
        code, _ = code_of_cover(cover)
        rep = check_nondegeneracy(cover)
        inv = verify_closure_interior_invariance(cover)
        ok = (
            code.words == Code.from_compact(2, "1 12 2").words
            and not rep.cond_i
            and rep.cond_ii
            and inv.code_equal_int is False
        )
        return ok, "code {1,12,2}; cond_i false, cond_ii true"

    def nested_intervals():
        code, _ = code_of_cover(nested_interval_cover())
        return code.words == Code.from_compact(3, "0 1 12 123").words, "{0,1,12,123}"

    def chamber_pair_example():
        c = Code.from_compact(4, "123 134")
        realz, cert = max_int_realization(c, AMBIENT_WHOLE)
        ok = (
            realz.k == 3
            and realz.padding_count == 1
            and realz.achieved_whole.words == Code.from_compact(4, "0 13 123 134").words
            and realz.achieved_union.words == Code.from_compact(4, "13 123 134").words
            and cert.valid
        )
        return ok, "padded k=3, whole code {0,13,123,134}"

    def chamber_six_neuron():
        c = six_neuron_code()
        realz, cert = max_int_realization(c, AMBIENT_WHOLE)
        oracle = brute_completion_words(sorted(maximal_codewords(c), key=word_key))
        geo_code, _ = code_of_cover(realz.geometric)
        ok = geo_code.words == frozenset(oracle) and cert.valid
        return ok, "whole-space half-space cover code = brute-force completion"

    def potential_example():
        _, cert = potential_cover(Code.from_compact(2, "1 2 12"))
        ok = cert.achieved.words == Code.from_compact(2, "0 1 2 12").words and cert.valid
        return ok, "achieved {0,1,2,12}"

    def realize_example():
        cert = realize(Code.from_compact(4, "123 134 13 1"))
        ok = (
            not isinstance(cert, NotApplicable)
            and cert.valid
            and cert.dimension == 2
            and replay_certificate(cert)
        )
        return ok, "achieved target in dimension 2"

    return [
        ("simplicial-complex-of-fig-cover", complex_of_fig_cover),
        ("maximal-words-five-neuron", maxima_of_five_neuron),
        ("link-at-12", link_example),
        ("covering-subsets", covering_pair),
        ("finite-realization-roundtrip", one_point_realization),
        ("closed-split-line", closed_split_line),
        ("nested-intervals", nested_intervals),
        ("chamber-two-maximal-words", chamber_pair_example),
        ("chamber-six-neuron", chamber_six_neuron),
        ("potential-cover-three-words", potential_example),
        ("realize-max-complete", realize_example),
    ]


# ---------------------------------------------------------------------------
# acceptance criteria


def criterion_1_local_fixtures() -> tuple[bool, str]:
    s1 = local_obstructions(disconnected_link_code())
    s2 = local_obstructions(two_triangle_code())
    s3 = local_obstructions(nonlocal_example_code())
    ok = (
        [o.sigma for o in s1.found] == [word_mask([3])]
        and [o.sigma for o in s2.found] == [word_mask([1, 2])]
        and word_mask([1]) in [o.sigma for o in s3.found]
        and not (s1.undecided or s2.undecided or s3.undecided)
    )
    return ok, "three fixture codes, no Unknown verdicts"


def criterion_2_nonlocal_fixture() -> tuple[bool, str]:
    got = nonlocal_obstructions(nonlocal_example_code())
    want = (word_mask([1, 2]), word_mask([3, 4]))
    for o in got:
        if (o.sigma1, o.sigma2) == want:
            ok = o.profile1.is_zero() and o.profile2.reduced == (1,) and o.profile2.minus_one == 0
            return ok, "profiles () vs (1)"
    return False, "pair ({1,2},{3,4}) not found"


def criterion_3_counterexample_codes() -> tuple[bool, str]:
    c6 = six_neuron_code()
    s6 = local_obstructions(c6)
    r6 = classify_completeness(c6)
    ra = realize(c6)
    ok6 = (
        not s6.found
        and not s6.undecided
        and not r6.max_intersection_complete
        and isinstance(ra, NotApplicable)
        and ra.missing == word_mask([1])
        and set(ra.intersect_of) == {word_mask([1, 2, 3]), word_mask([1, 5, 6])}
    )
    c5 = five_neuron_code()
    s5 = local_obstructions(c5)
    r5 = classify_completeness(c5)
    cover_code, _ = code_of_cover(five_neuron_closed_cover())
    ok5 = (
        not s5.found
        and not s5.undecided
        and not r5.max_intersection_complete
        and cover_code.words == c5.words
    )
    return ok6 and ok5, "both counterexample codes behave as documented"


def criterion_4_chamber_roundtrip() -> tuple[bool, str]:
    trials, rng = 200, random.Random(1404)
    enumerated = 0
    for t in range(trials):
        c = random_code_with_few_maxima(rng)
        maxima = sorted(maximal_codewords(c), key=word_key)
        oracle = brute_completion_words(maxima)
        realz, cert = max_int_realization(c, AMBIENT_WHOLE)
        want_whole = set(oracle) | ({0} if realz.padding_count else set())
        if realz.achieved_whole.words != frozenset(want_whole):
            return False, f"trial {t}: whole-space mismatch"
        if realz.achieved_union.words != frozenset(oracle) - {0}:
            return False, f"trial {t}: union mismatch"
        if not cert.valid:
            return False, f"trial {t}: certificate check failed"
        if realz.k <= 4:
            # the half-space cover's own arrangement, while it stays small
            enumerated += 1
            cells = arrangement_cells(realz.geometric)
            geo_code, _ = code_of_cover(realz.geometric, cells)
            if geo_code.words != realz.achieved_whole.words:
                return False, f"trial {t}: code_of_cover mismatch"
            rep = check_nondegeneracy(realz.geometric, cells)
            if not (rep.cond_i and rep.cond_ii):
                return False, f"trial {t}: degenerate chamber cover"
            inv = verify_closure_interior_invariance(realz.geometric, cells)
            if inv.code_equal_cl is not True:
                return False, f"trial {t}: closure changed the code"
    return True, f"{trials} codes certified, {enumerated} also by cell enumeration"


def criterion_5_realize_roundtrip() -> tuple[bool, str]:
    trials, rng = 100, random.Random(1405)
    for t in range(trials):
        c = random_max_complete_code(rng)
        k = len(maximal_codewords(c))
        cert = realize(c)
        if isinstance(cert, NotApplicable):
            return False, f"trial {t}: generator emitted a non-complete code"
        if cert.achieved.words != c.words or not cert.valid:
            return False, f"trial {t}: achieved != target"
        if cert.dimension != max(2, k - 1):
            return False, f"trial {t}: dimension {cert.dimension} != max(2,{k}-1)"
        if not replay_certificate(cert):
            return False, f"trial {t}: replay failed"
    return True, f"{trials} max intersection-complete codes realized"


def criterion_6_monotonicity() -> tuple[bool, str]:
    cover = nested_interval_cover()
    base = abstract_from_cover(cover)
    target = Code(3, frozenset(simplicial_complex(abstract_code(base)).faces()))
    extended = monotone_extend(base, target)
    if abstract_code(extended).words != target.words:
        return False, "nested-interval extension missed the full face code"
    trials, rng = 200, random.Random(1406)
    for t in range(trials):
        c, d = random_monotone_pair(rng)
        a = finite_realization(c)
        out = monotone_extend(a, d)
        if abstract_code(out).words != d.words:
            return False, f"trial {t}: extension inexact"
    return True, f"nested-interval case plus {trials} random pairs, all exact"


def criterion_7_potential_cover() -> tuple[bool, str]:
    trials, rng = 200, random.Random(1407)
    for t in range(trials):
        n = rng.randint(2, 6)
        c = random_code(rng, n, max_words=12, allow_empty=False)
        realz, cert = potential_cover(c)
        oracle = brute_completion_words(sorted(c.words, key=word_key))
        if cert.achieved.words != frozenset(oracle):
            return False, f"trial {t}: achieved != brute-force completion"
        if not cert.valid:
            return False, f"trial {t}: witness verification failed"
        if set(cert.achieved.words) != set(realz.witnesses):
            return False, f"trial {t}: witness coverage incomplete"
    return True, f"{trials} codes, witnesses verified exactly"


def criterion_8_geometry_unit_bar() -> tuple[bool, str]:
    cells = enumerate_cells(concurrent_lines(), 2)
    if len(cells.cells) != 13:
        return False, f"expected 13 cells, got {len(cells.cells)}"
    rep = check_nondegeneracy(closed_line_split_cover())
    if rep.cond_i or not rep.cond_ii:
        return False, "split-line non-degeneracy verdict wrong"
    report = sample_code(
        two_interval_cover(), budget=100_000, seed=7, box=((-1,), (4,))
    )
    if report.code.words != Code.from_compact(2, "0 1 12 2").words:
        return False, "sampled code mismatch"
    again = sample_code(
        two_interval_cover(), budget=100_000, seed=7, box=((-1,), (4,))
    )
    if report.render() != again.render():
        return False, "sampling not reproducible"
    return True, "13 cells; split-line verdicts; sampling reproducible"


def criterion_9_homology_unit_bar() -> tuple[bool, str]:
    from .codes import SimplicialComplex

    hollow = SimplicialComplex(3, frozenset({word_mask([1, 2]), word_mask([1, 3]), word_mask([2, 3])}))
    tetra = SimplicialComplex(
        4,
        frozenset(
            {
                word_mask([1, 2, 3]),
                word_mask([1, 2, 4]),
                word_mask([1, 3, 4]),
                word_mask([2, 3, 4]),
            }
        ),
    )
    two_points = SimplicialComplex(4, frozenset({word_mask([3]), word_mask([4])}))
    simplex = SimplicialComplex(3, frozenset({word_mask([1, 2, 3])}))
    ok = (
        reduced_betti(hollow).reduced == (0, 1)
        and reduced_betti(tetra).reduced == (0, 0, 1)
        and reduced_betti(two_points).reduced == (1,)
        and reduced_betti(simplex).is_zero()
    )
    return ok, "hollow triangle, tetra boundary, two points, full simplex"


def acceptance_rows() -> list[tuple[str, Callable[[], tuple[bool, str]]]]:
    return [
        ("criterion-1-local-fixtures", criterion_1_local_fixtures),
        ("criterion-2-nonlocal-fixture", criterion_2_nonlocal_fixture),
        ("criterion-3-counterexample-codes", criterion_3_counterexample_codes),
        ("criterion-4-chamber-roundtrip", criterion_4_chamber_roundtrip),
        ("criterion-5-realize-roundtrip", criterion_5_realize_roundtrip),
        ("criterion-6-monotonicity", criterion_6_monotonicity),
        ("criterion-7-potential-cover", criterion_7_potential_cover),
        ("criterion-8-geometry-unit-bar", criterion_8_geometry_unit_bar),
        ("criterion-9-homology-unit-bar", criterion_9_homology_unit_bar),
    ]


def all_rows() -> list[tuple[str, Callable[[], tuple[bool, str]]]]:
    return fixture_rows() + acceptance_rows()


def run_suite() -> list[FixtureResult]:
    results = []
    for name, fn in all_rows():
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashing fixture is a failing fixture
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(FixtureResult(name, ok, detail))
    return results
