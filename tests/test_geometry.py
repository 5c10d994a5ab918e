import random
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from convexcodes import (
    AMBIENT_UNION,
    AMBIENT_WHOLE,
    Ball,
    BallConstraintError,
    Code,
    ConvexRegion,
    CoverParseError,
    HalfSpace,
    PolyhedralCover,
    arrangement_cells,
    check_nondegeneracy,
    closed_interval,
    code_of_cover,
    cover_from_text,
    cover_to_text,
    enumerate_cells,
    feasible,
    max_int_realization,
    open_interval,
    sample_code,
    verify_closure_interior_invariance,
)
from convexcodes.geometry import (
    MixedRelationsError,
    NonFullDimensionalRegionError,
    _classify,
    _integer_tests,
    _passes,
    _sampled_words,
    canonical_hyperplane,
)
from oracles import (
    LowerDimensional,
    boundary_cells,
    closure_cells,
    fraction_feasible,
    fraction_sample_words,
    grid_sign_vectors,
    interior_cells,
    interval_cover_code,
    per_region_cover_to_text,
    plane_sign,
    reference_invariance,
    reference_nondegeneracy,
    three_sign_cells,
    transform_cover,
    witness_code,
)


def interval_cover(*bounds, closed=False, ambient=AMBIENT_WHOLE):
    mk = closed_interval if closed else open_interval
    return PolyhedralCover(1, tuple(mk(lo, hi) for lo, hi in bounds), ambient)


def halfplane(a, b, c, strict=True):
    return HalfSpace((F(a), F(b)), F(c), strict)


# ---------------------------------------------------------------------------
# feasibility


def test_infeasible_strict_pair():
    assert feasible([((1,), 0, "<"), ((-1,), 0, "<")]) is None


def test_witness_satisfies_constraints():
    cons = [((-1, 0), 0, "<"), ((0, -1), 0, "<"), ((1, 1), 1, "<=")]
    w = feasible(cons)
    assert w is not None
    x, y = w
    assert x > 0 and y > 0 and x + y <= 1


def test_equality_case():
    w = feasible([((1,), 1, "="), ((1,), 1, "<=")])
    assert w == (F(1),)


def test_unbounded_dimensions_rejected():
    from convexcodes.geometry import DimensionCapError

    with pytest.raises(DimensionCapError):
        feasible([(tuple([1] * 9), 0, "<")])


rationals = st.builds(F, st.integers(-5, 5), st.integers(1, 7))


@st.composite
def mixed_systems(draw):
    """Systems with every relation, unlike denominators, zero rows, and rows
    parallel (or antiparallel) to earlier ones."""
    d = draw(st.integers(1, 4))
    cons = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "parallel"]))
        if kind == "zero":
            normal = tuple(F(0) for _ in range(d))
        elif kind == "parallel" and cons:
            scale = draw(rationals.filter(bool))
            normal = tuple(scale * x for x in draw(st.sampled_from(cons))[0])
        else:
            normal = tuple(draw(rationals) for _ in range(d))
        cons.append((normal, draw(rationals), draw(st.sampled_from(["<", "<=", "="]))))
    return d, cons


@settings(max_examples=300, deadline=None)
@given(mixed_systems())
def test_feasible_witness_exact(system):
    # same verdict and witness as the Fraction oracle; the witness is exact
    d, cons = system
    w = feasible(cons, d)
    assert w == fraction_feasible(cons, d)
    if w is None:
        return
    for normal, offset, rel in cons:
        v = sum((a * x for a, x in zip(normal, w)), F(0))
        assert {"<": v < offset, "<=": v <= offset, "=": v == offset}[rel]


# ---------------------------------------------------------------------------
# cell enumeration


def test_single_line_three_cells():
    cells = enumerate_cells([((F(1), F(0)), F(0))], 2)
    assert sorted(c.signs for c in cells.cells) == [(-1,), (0,), (1,)]


def test_two_crossing_lines_nine_cells():
    cells = enumerate_cells([((F(1), F(0)), F(0)), ((F(0), F(1)), F(0))], 2)
    assert len(cells.cells) == 9


def test_three_concurrent_lines_thirteen_cells():
    planes = [((F(1), F(0)), F(0)), ((F(0), F(1)), F(0)), ((F(1), F(-1)), F(0))]
    cells = enumerate_cells(planes, 2)
    got = {c.signs for c in cells.cells}
    # frozen from the grid oracle over [-2,2]^2
    assert got == grid_sign_vectors(planes)
    assert len(got) == 13
    assert cells.full_dim_count() == 6


def test_witness_integrity():
    planes = [((F(1), F(0)), F(0)), ((F(0), F(1)), F(0)), ((F(1), F(-1)), F(0))]
    cells = enumerate_cells(planes, 2)
    for cell in cells.cells:
        for (v, b), s in zip(planes, cell.signs):
            val = sum(a * x for a, x in zip(v, cell.witness)) - b
            assert ((val > 0) - (val < 0)) == s


def test_partition_of_random_points():
    planes = [((F(1), F(0)), F(0)), ((F(0), F(1)), F(1)), ((F(1), F(1)), F(2))]
    cells = enumerate_cells(planes, 2)
    table = {c.signs: c for c in cells.cells}
    rng = random.Random(17)
    for _ in range(1000):
        x = (F(rng.randint(-400, 400), 100), F(rng.randint(-400, 400), 100))
        signs = []
        for v, b in planes:
            val = sum(a * t for a, t in zip(v, x)) - b
            signs.append((val > 0) - (val < 0))
        assert tuple(signs) in table


@st.composite
def arrangements(draw):
    """Integer arrangements in d = 2, 3 with concurrent planes through the
    origin and parallel planes, canonically scaled and deduplicated."""
    d = draw(st.sampled_from([2, 3]))
    coeff = st.integers(-3, 3)
    planes = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["general", "origin", "parallel"]))
        if kind == "parallel" and planes:
            normal = draw(st.sampled_from(planes))[0]
        else:
            normal = tuple(F(draw(coeff)) for _ in range(d))
        if not any(normal):
            continue
        offset = F(0) if kind == "origin" else F(draw(coeff), draw(st.integers(1, 2)))
        plane, _ = canonical_hyperplane(normal, offset)
        if plane not in planes:
            planes.append(plane)
    return d, planes


@settings(max_examples=60, deadline=None)
@given(arrangements())
def test_one_probe_enumeration_matches_three_sign_oracle(arrangement):
    d, planes = arrangement
    cells = enumerate_cells(planes, d)
    assert [c.signs for c in cells.cells] == [s for s, _ in three_sign_cells(planes, d)]
    for cell in cells.cells:
        assert tuple(plane_sign(p, cell.witness) for p in planes) == cell.signs


def test_duplicate_hyperplanes_rejected():
    with pytest.raises(ValueError):
        enumerate_cells([((F(1),), F(0)), ((F(1),), F(0))], 1)


# ---------------------------------------------------------------------------
# code of a cover


def test_two_interval_cover_code():
    cover = interval_cover((0, 2), (1, 3))
    code, _ = code_of_cover(cover)
    assert code.words == interval_cover_code([(0, 2), (1, 3)])
    assert code.words == Code.from_compact(2, "0 1 2 12").words


def test_closed_split_line_code():
    left = ConvexRegion(1, (HalfSpace((F(1),), F(0), False),))
    right = ConvexRegion(1, (HalfSpace((F(-1),), F(0), False),))
    cover = PolyhedralCover(1, (left, right), AMBIENT_WHOLE)
    code, _ = code_of_cover(cover)
    assert code.words == Code.from_compact(2, "1 12 2").words


def test_nested_intervals_realize_chain_code():
    cover = interval_cover((0, 6), (1, 5), (2, 4))
    code, _ = code_of_cover(cover)
    assert code.words == interval_cover_code([(0, 6), (1, 5), (2, 4)])
    assert code.words == Code.from_compact(3, "0 1 12 123").words
    union_code, _ = code_of_cover(
        interval_cover((0, 6), (1, 5), (2, 4), ambient=AMBIENT_UNION)
    )
    assert union_code.words == Code.from_compact(3, "1 12 123").words


def test_explicit_region_ambient():
    cover = PolyhedralCover(
        1,
        (open_interval(0, 2), open_interval(1, 3)),
        ConvexRegion(1, (HalfSpace((F(-1),), F(-1), False), HalfSpace((F(1),), F(2), False))),
    )
    # ambient [1, 2]: only atoms meeting it survive
    code, _ = code_of_cover(cover)
    assert code.words == Code.from_compact(2, "1 2 12").words


def test_ball_rejected_in_exact_mode():
    region = ConvexRegion(1, (), Ball((F(0),), F(1), True))
    cover = PolyhedralCover(1, (region,), AMBIENT_WHOLE)
    with pytest.raises(BallConstraintError):
        code_of_cover(cover)


# ---------------------------------------------------------------------------
# closure / interior transforms


def test_transform_examples():
    # an open interval and an open half-plane keep their codes under closure
    for cover in (
        interval_cover((0, 2)),
        PolyhedralCover(2, (ConvexRegion(2, (halfplane(1, 1, 1, strict=True),)),)),
    ):
        inv = verify_closure_interior_invariance(cover)
        assert inv.code_equal_cl is True and inv.code_equal_int is None
        cells = arrangement_cells(cover).cells
        assert reference_invariance(cover, cells) == (True, None)
    closed = transform_cover(interval_cover((0, 2)), closure=True)
    assert all(not h.strict for h in closed.regions[0].halfspaces)
    inv = verify_closure_interior_invariance(closed)
    assert inv.code_equal_int is True and inv.code_equal_cl is None


def test_transform_rejects_degenerate_region():
    point = ConvexRegion(
        1, (HalfSpace((F(1),), F(0), False), HalfSpace((F(-1),), F(0), False))
    )
    cover = PolyhedralCover(1, (point,), AMBIENT_WHOLE)
    with pytest.raises(NonFullDimensionalRegionError) as info:
        verify_closure_interior_invariance(cover)
    assert info.value.region_index == 0
    with pytest.raises(LowerDimensional) as ref:
        transform_cover(cover, closure=False)
    assert ref.value.regions == [0]


def test_transform_keeps_empty_regions_empty():
    empty = ConvexRegion(
        1, (HalfSpace((F(1),), F(0), True), HalfSpace((F(-1),), F(-1), True))
    )  # x < 0 and x > 1
    cover = PolyhedralCover(1, (empty, open_interval(0, 1)), AMBIENT_WHOLE)
    inv = verify_closure_interior_invariance(cover)
    assert inv.code_equal_cl is True
    code, _ = code_of_cover(transform_cover(cover, closure=True))
    assert code.words == Code.from_compact(2, "0 2").words


# ---------------------------------------------------------------------------
# non-degeneracy


def test_split_line_nondegeneracy():
    left = ConvexRegion(1, (HalfSpace((F(1),), F(0), False),))
    right = ConvexRegion(1, (HalfSpace((F(-1),), F(0), False),))
    cover = PolyhedralCover(1, (left, right), AMBIENT_WHOLE)
    rep = check_nondegeneracy(cover)
    assert not rep.cond_i
    assert rep.cond_ii
    assert any(o.condition == "i" and o.sigma == 0b11 for o in rep.offenders)


def test_generic_halfplanes_nondegenerate():
    regions = (
        ConvexRegion(2, (halfplane(-1, 0, 0),)),  # x > 0
        ConvexRegion(2, (halfplane(0, -1, 0),)),  # y > 0
        ConvexRegion(2, (halfplane(1, 1, 3),)),  # x + y < 3
    )
    cover = PolyhedralCover(2, regions, AMBIENT_WHOLE)
    rep = check_nondegeneracy(cover)
    assert rep.cond_i and rep.cond_ii


def test_single_interval_nondegenerate():
    rep = check_nondegeneracy(interval_cover((0, 1)))
    assert rep.cond_i and rep.cond_ii


def test_invariance_fixtures():
    inv = verify_closure_interior_invariance(interval_cover((0, 2), (1, 3)))
    assert inv.code_equal_cl is True and inv.code_equal_int is None
    left = ConvexRegion(1, (HalfSpace((F(1),), F(0), False),))
    right = ConvexRegion(1, (HalfSpace((F(-1),), F(0), False),))
    inv = verify_closure_interior_invariance(PolyhedralCover(1, (left, right)))
    assert inv.code_equal_int is False and inv.code_equal_cl is None


def test_invariance_rejects_mixed_cover():
    cover = PolyhedralCover(
        1, (open_interval(0, 2), closed_interval(1, 3)), AMBIENT_WHOLE
    )
    with pytest.raises(MixedRelationsError):
        verify_closure_interior_invariance(cover)


def _random_open_cover(rng, n_regions=2):
    regions = []
    while len(regions) < n_regions:
        hs = []
        for _ in range(rng.randint(1, 3)):
            normal = (F(rng.randint(-2, 2)), F(rng.randint(-2, 2)))
            if not any(normal):
                normal = (F(1), F(0))
            hs.append(HalfSpace(normal, F(rng.randint(-2, 2)), True))
        region = ConvexRegion(2, tuple(hs))
        if feasible([(h.normal, h.offset, "<") for h in hs], 2) is not None:
            regions.append(region)
    return PolyhedralCover(2, tuple(regions), AMBIENT_WHOLE)


def test_closure_identities_on_cell_lattice():
    # cl(union) = union(cl) and int(intersection) = intersection(int),
    # read as cell sets, for open full-dimensional covers
    rng = random.Random(4242)
    for _ in range(25):
        cover = _random_open_cover(rng)
        words = _classify(cover)
        cells = words.cells

        def region_cells(per_cell):
            return [
                {ix for ix, w in enumerate(per_cell) if w >> i & 1} for i in range(cover.n)
            ]

        exact = region_cells(words.exact)
        union_closures = set().union(*region_cells(words.closure))
        assert closure_cells(set().union(*exact), cells) == union_closures
        inter_interiors = set.intersection(*region_cells(words.interior))
        assert interior_cells(set.intersection(*exact), cells) == inter_interiors


def test_open_cond_ii_implies_cond_i():
    rng = random.Random(777)
    checked = 0
    for _ in range(40):
        cover = _random_open_cover(rng, n_regions=rng.randint(2, 3))
        rep = check_nondegeneracy(cover)
        if rep.cond_ii:
            checked += 1
            assert rep.cond_i
    assert checked > 0


def _random_region(rng, d, relation, kind):
    """Half-spaces with coefficients in {-1, 0, 1}, so regions touch, share
    planes and coincide; a flat region is a zero-width slab and an empty
    one a pair of opposite half-spaces one unit apart."""

    def normal():
        while True:
            a = tuple(F(rng.randint(-1, 1)) for _ in range(d))
            if any(a):
                return a

    def strict():
        return {"open": True, "closed": False}.get(relation, rng.random() < 0.5)

    if kind == "whole":
        return ConvexRegion(d, ())
    if kind in ("flat", "empty"):
        a, b = normal(), F(rng.randint(-1, 1))
        gap = 1 if kind == "empty" else 0
        return ConvexRegion(
            d,
            (
                HalfSpace(a, b, strict()),
                HalfSpace(tuple(-x for x in a), -b - gap, strict()),
            ),
        )
    count = rng.randint(1, 2 if d == 1 else 3 - d // 3)
    return ConvexRegion(
        d,
        tuple(HalfSpace(normal(), F(rng.randint(-1, 1)), strict()) for _ in range(count)),
    )


def _random_differential_cover(rng, d, relation, ambient):
    kinds = ["random"] * 8 + ["flat", "empty", "whole"]
    regions = tuple(
        _random_region(rng, d, relation, rng.choice(kinds)) for _ in range(rng.randint(1, 3))
    )
    if ambient == "region":
        ambient = _random_region(rng, d, "mixed", "random")
    return PolyhedralCover(d, regions, ambient)


def test_cell_classification_matches_is_face_and_transform_oracle():
    rng = random.Random(20261018)
    seen = {"refused": 0, "empty": 0, "cond_i": 0, "cond_ii": 0, "changed": 0}
    for trial in range(216):
        d = 1 + trial % 3
        relation = ("open", "closed", "mixed")[trial // 3 % 3]
        ambient = (AMBIENT_WHOLE, AMBIENT_UNION, "region")[trial // 9 % 3]
        cover = _random_differential_cover(rng, d, relation, ambient)
        cells = arrangement_cells(cover)
        code, _ = code_of_cover(cover, cells)
        assert code.words == witness_code(cover, cells.cells)
        seen["empty"] += any(
            fraction_feasible([(h.normal, h.offset, "<=") for h in r.halfspaces], d) is None
            for r in cover.regions
        )

        try:
            rep = check_nondegeneracy(cover, cells)
            got = (rep.cond_i, rep.cond_ii, [(o.condition, o.sigma, o.cell.signs) for o in rep.offenders])
        except NonFullDimensionalRegionError as exc:
            got = ("refused", exc.region_index)
        try:
            want = reference_nondegeneracy(cover, cells.cells)
        except LowerDimensional as exc:
            want = ("refused", exc.regions[0])
        assert got == want, cover
        seen["refused"] += got[0] == "refused"
        seen["cond_i"] += got[0] is False
        seen["cond_ii"] += got[1] is False

        rels = set().union(*(r.all_relations() for r in cover.regions))
        if rels == {True, False}:
            with pytest.raises(MixedRelationsError):
                verify_closure_interior_invariance(cover, cells)
            continue
        try:
            inv = verify_closure_interior_invariance(cover, cells)
            got = (inv.code_equal_cl, inv.code_equal_int)
        except NonFullDimensionalRegionError as exc:
            got = ("refused", exc.region_index)
        try:
            want = reference_invariance(cover, cells.cells)
        except LowerDimensional as exc:
            want = ("refused", exc.regions[0])
        assert got == want, cover
        seen["changed"] += False in got
    assert all(seen.values()), seen


def test_nondegeneracy_and_invariance_make_no_feasibility_call(monkeypatch):
    import convexcodes.geometry as geometry

    point = ConvexRegion(
        1, (HalfSpace((F(1),), F(0), False), HalfSpace((F(-1),), F(0), False))
    )
    covers = [
        interval_cover((0, 2), (2, 3)),
        interval_cover((0, 2), (1, 3), closed=True, ambient=AMBIENT_UNION),
        PolyhedralCover(1, (closed_interval(0, 1), point)),
        PolyhedralCover(
            2,
            (
                ConvexRegion(2, (halfplane(-1, 0, 0), halfplane(0, -1, 0))),
                ConvexRegion(2, (halfplane(1, 1, 3), halfplane(1, -1, 1))),
            ),
        ),
    ]
    calls = []
    for cover in covers:
        cells = arrangement_cells(cover)
        monkeypatch.setattr(geometry, "feasible", lambda *a, **k: calls.append(a))
        for check in (check_nondegeneracy, verify_closure_interior_invariance):
            try:
                check(cover, cells)
            except NonFullDimensionalRegionError:
                pass
        monkeypatch.undo()
    assert calls == []


# ---------------------------------------------------------------------------
# sampling


def test_sample_two_intervals_frozen():
    cover = interval_cover((0, 2), (1, 3))
    rep = sample_code(cover, budget=100_000, seed=7, box=((-1,), (4,)))
    assert rep.code.words == Code.from_compact(2, "0 1 2 12").words
    # frozen counts pin the generator and the exact membership path
    labeled = {w: rep.counts[w] for w in rep.code.sorted_words()}
    assert labeled == {0: 40041, 0b01: 19912, 0b10: 19966, 0b11: 20081}


def _mixed_ball_cover():
    """Strict and weak half-spaces and balls with rational data, inside an
    explicit ambient region."""

    def hs(a, b, c, strict):
        return HalfSpace((F(a), F(b)), F(c), strict)

    regions = (
        ConvexRegion(2, (hs(1, F(1, 2), F(2, 3), False),), Ball((F(1, 3), F(-1, 4)), F(7, 5), True)),
        ConvexRegion(2, (hs(-1, 0, F(1, 2), True), hs(0, 1, F(3, 7), False))),
        ConvexRegion(2, (), Ball((F(-2, 3), F(1, 5)), F(5, 4), False)),
    )
    ambient = ConvexRegion(2, (hs(F(3, 2), -1, F(5, 2), True),), Ball((F(0), F(1, 9)), F(13, 6), False))
    return PolyhedralCover(2, regions, ambient)


def test_integer_classifier_exact_on_boundaries():
    cover = _mixed_ball_cover()
    on_boundary = [
        (F(1, 3) - F(7, 5), F(-1, 4)),  # sphere of region 1 (strict)
        (F(1, 3) - F(21, 25), F(-1, 4) - F(28, 25)),
        (F(2, 3), F(0)),  # half-plane of region 1 (weak)
        (F(-1, 2), F(0)),  # region 2, strict side
        (F(0), F(3, 7)),  # region 2, weak side
        (F(-2, 3) - F(5, 4), F(1, 5)),  # sphere of region 3 (weak)
        (F(1), F(-1)),  # ambient half-plane (strict)
    ]
    eps = F(1, 10**9)
    points = [(x + dx, y + dy) for x, y in on_boundary for dx in (-eps, 0, eps) for dy in (-eps, 0, eps)]
    scale = lcm(*(t.denominator for p in points for t in p))
    for region in cover.regions + (cover.ambient,):
        tests = _integer_tests(region, scale)
        for p in points:
            x = [int(t * scale) for t in p]
            assert _passes(tests, x) == region.contains(p), (region, p)


def test_integer_sampling_matches_fraction_classifier():
    cover = _mixed_ball_cover()
    assert cover.ambient_label() == "region"
    lo, hi = (F(-7, 3), F(-5, 4)), (F(9, 5), F(11, 6))
    words = list(_sampled_words(cover, lo, hi, 3000, 13))
    assert words == fraction_sample_words(cover, lo, hi, 3000, 13)
    assert len({w for w in words if w is not None}) >= 4
    assert words.count(None) > 0
    rep = sample_code(cover, budget=3000, seed=13, box=(lo, hi))
    assert rep.counts == {w: words.count(w) for w in set(words) - {None}}


def test_sample_subset_of_exact_code():
    cover = interval_cover((0, 2), (1, 3))
    exact, _ = code_of_cover(cover)
    rep = sample_code(cover, budget=2000, seed=3, box=((-1,), (4,)))
    assert rep.code.words <= exact.words


def test_sample_ball_split_cover():
    ball = Ball((F(0), F(0)), F(1), True)
    pos = ConvexRegion(2, (halfplane(-1, 0, 0),), ball)  # x > 0 inside ball
    neg = ConvexRegion(2, (halfplane(1, 0, 0),), ball)  # x < 0 inside ball
    cover = PolyhedralCover(2, (pos, neg), AMBIENT_WHOLE)
    rep = sample_code(cover, budget=5000, seed=5)
    assert rep.code.words == Code.from_compact(2, "0 1 2").words


def test_sample_budget_zero():
    cover = interval_cover((0, 2))
    rep = sample_code(cover, budget=0, seed=1, box=((-1,), (3,)))
    assert rep.code.words == frozenset()


def test_sample_zero_volume_box():
    with pytest.raises(ValueError):
        sample_code(interval_cover((0, 2)), budget=10, seed=1, box=((1,), (1,)))


def test_sample_no_box_derivable():
    with pytest.raises(ValueError):
        sample_code(interval_cover((0, 2)), budget=10, seed=1)


# ---------------------------------------------------------------------------
# cover text format


def test_cover_text_roundtrip():
    ball = Ball((F(1, 2), F(0)), F(3, 2), False)
    region = ConvexRegion(2, (halfplane(1, -2, 3), halfplane(0, 1, 1, strict=False)), ball)
    cover = PolyhedralCover(2, (region, ConvexRegion(2, ())), AMBIENT_UNION)
    text = cover_to_text(cover)
    parsed = cover_from_text(text)
    assert parsed == cover
    assert cover_to_text(parsed) == text


def test_cover_text_roundtrip_region_ambient():
    cover = PolyhedralCover(
        1,
        (open_interval(0, 2),),
        ConvexRegion(1, (HalfSpace((F(1),), F(5), False),)),
    )
    parsed = cover_from_text(cover_to_text(cover))
    assert parsed == cover


def test_cover_text_matches_per_region_oracle_on_chamber_covers():
    for k in range(1, 9):
        # the complement code on [k] has k maximal words
        code = Code(k, frozenset(range((1 << k) - 1)))
        for ambient in (AMBIENT_WHOLE, AMBIENT_UNION):
            realz, _ = max_int_realization(code, ambient)
            assert cover_to_text(realz.geometric) == per_region_cover_to_text(realz.geometric)


def test_cover_text_formats_each_shared_half_space_once(monkeypatch):
    import convexcodes.geometry as geometry

    # eight disjoint pairs: each of the 16 regions is cut by 7 of the 8 facet sides
    pairs = Code(16, frozenset({0} | {3 << (2 * a) for a in range(8)}))
    realz, _ = max_int_realization(pairs, AMBIENT_WHOLE)
    cover = realz.geometric
    assert len({id(h) for r in cover.regions for h in r.halfspaces}) == 8
    assert sum(len(r.halfspaces) for r in cover.regions) == 16 * 7
    formatted = []
    frac_str = geometry._frac_str
    monkeypatch.setattr(geometry, "_frac_str", lambda f: formatted.append(f) or frac_str(f))
    text = cover_to_text(cover)
    assert len(formatted) == 8 * (cover.dimension + 1)
    assert text == per_region_cover_to_text(cover)


def test_cover_text_matches_per_region_oracle_on_mixed_covers():
    rng = random.Random(2024)
    for _ in range(80):
        d = rng.randint(1, 3)
        pool = [
            HalfSpace(
                tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d - 1))
                + (F(rng.choice([-2, -1, 1, 3])),),
                F(rng.randint(-6, 6), rng.randint(1, 4)),
                rng.random() < 0.5,
            )
            for _ in range(rng.randint(1, 4))
        ]

        def region():
            # shared objects from the pool, equal but distinct copies, fresh ones
            hs = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
            hs += [HalfSpace(h.normal, h.offset, h.strict) for h in rng.sample(pool, 1)]
            ball = None
            if rng.random() < 0.3:
                center = tuple(F(rng.randint(-3, 3), 2) for _ in range(d))
                ball = Ball(center, F(rng.randint(1, 5), 3), rng.random() < 0.5)
            return ConvexRegion(d, tuple(hs), ball)

        ambient = rng.choice([AMBIENT_WHOLE, AMBIENT_UNION, None])
        cover = PolyhedralCover(
            d, tuple(region() for _ in range(rng.randint(1, 4))), ambient or region()
        )
        text = cover_to_text(cover)
        assert text == per_region_cover_to_text(cover)
        assert cover_from_text(text) == cover


def test_cover_parse_errors_carry_line_numbers():
    with pytest.raises(CoverParseError) as err:
        cover_from_text("d=1 n=1 ambient=whole\nSET\nH 1/1 : nope le\n")
    assert err.value.line == 3
    with pytest.raises(CoverParseError):
        cover_from_text("")
    with pytest.raises(CoverParseError):
        cover_from_text("d=1 n=2 ambient=whole\nSET\nH 1/1 : 1/1 le\n")


def test_arrangement_reuse_matches_fresh_run():
    cover = interval_cover((0, 2), (1, 3))
    cells = arrangement_cells(cover)
    code1, _ = code_of_cover(cover)
    code2, _ = code_of_cover(cover, cells)
    assert code1.words == code2.words


def test_boundary_cells_of_interval():
    cover = interval_cover((0, 1))
    words = _classify(cover)
    exact = {ix for ix, w in enumerate(words.exact) if w}
    bd = boundary_cells(exact, words.cells)
    assert bd == {ix for ix, (c, i) in enumerate(zip(words.closure, words.interior)) if c & ~i}
    assert len(bd) == 2  # the two endpoints
