import dataclasses
import random
import time
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from convexcodes import (
    AMBIENT_UNION,
    AMBIENT_WHOLE,
    Code,
    MonotoneExtendError,
    NotApplicable,
    PolyhedralCover,
    abstract_code,
    abstract_from_cover,
    check_nondegeneracy,
    classify_completeness,
    code_of_cover,
    finite_realization,
    intersection_completion,
    max_int_realization,
    maximal_codewords,
    monotone_extend,
    open_interval,
    RealizationCertificate,
    potential_cover,
    realize,
    replay_certificate,
    simplicial_complex,
    verify_closure_interior_invariance,
    word_mask,
)
import convexcodes.realization as realization
from convexcodes import Ball, ConvexRegion, HalfSpace
from convexcodes.cli import _abstract_cover_text, _potential_text
from convexcodes.codes import closed_sets, word_key
from convexcodes.realization import (
    CheckRecord,
    _potential_word,
    _simplex_sides,
)
from oracles import (
    brute_chamber_checks,
    brute_completion,
    chamber_membership_by_filter,
    combinations_missing_intersection,
    complement_code,
    dense_potential_cover,
    dense_potential_text,
    dense_potential_word,
    incremental_completion,
    pointwise_abstract_words,
    scan_abstract_cover_text,
    sunflower_code,
)


def compact(n, text):
    return Code.from_compact(n, text)


# ---------------------------------------------------------------------------
# chamber realization


def test_chamber_two_maximal_words():
    realz, cert = max_int_realization(compact(4, "123 134"), AMBIENT_WHOLE)
    assert realz.k == 3 and realz.padding_count == 1
    assert realz.achieved_whole.words == compact(4, "0 13 123 134").words
    assert realz.achieved_union.words == compact(4, "13 123 134").words
    assert cert.valid
    assert replay_certificate(cert)


def test_chamber_single_word():
    realz, cert = max_int_realization(compact(2, "12"), AMBIENT_UNION)
    assert realz.k == 3 and realz.padding_count == 2
    assert cert.achieved.words == compact(2, "12").words
    assert cert.valid


def test_chamber_six_neuron_maximal_words():
    c = compact(6, "123 126 156 456 345 234 12 16 56 45 34 23 0")
    realz, cert = max_int_realization(c, AMBIENT_WHOLE)
    oracle = brute_completion(maximal_codewords(c))
    assert realz.achieved_whole.words == frozenset(oracle)
    assert 0 in realz.achieved_whole.words  # 123 and 456 are disjoint
    assert cert.valid  # includes the facet-side check of the half-space cover
    assert cert.dimension == 5
    geo_code, _ = code_of_cover(realz.geometric)
    assert geo_code.words == frozenset(oracle)


def test_chamber_rho_matches_definition():
    realz, _ = max_int_realization(compact(4, "123 134"), AMBIENT_WHOLE)
    words = realz.padded_words
    for i in range(1, 5):
        expect = sum(
            1 << (a - 1) for a, w in enumerate(words, start=1) if w & (1 << (i - 1))
        )
        assert realz.rho[i] == expect


def test_chamber_geometric_cover_is_nondegenerate():
    realz, _ = max_int_realization(compact(4, "123 134"), AMBIENT_WHOLE)
    rep = check_nondegeneracy(realz.geometric)
    assert rep.cond_i and rep.cond_ii
    inv = verify_closure_interior_invariance(realz.geometric)
    assert inv.code_equal_cl is True


def test_chamber_cover_nerve_homology():
    # when one set fills the whole space the cover's union is convex, so the
    # complex of the exact cover code must have vanishing reduced homology
    from convexcodes import reduced_betti

    rng = random.Random(515)
    checked = 0
    for _ in range(30):
        n = rng.randint(2, 6)
        common = 1 << rng.randrange(n)
        seeds = {rng.randrange(1 << n) | common for _ in range(rng.randint(1, 4))}
        c = Code(n, frozenset(seeds))
        if len(maximal_codewords(c)) > 4:
            continue
        realz, _ = max_int_realization(c, AMBIENT_WHOLE)
        geo_code, _ = code_of_cover(realz.geometric)
        nonzero = frozenset(w for w in geo_code.words if w)
        profile = reduced_betti(simplicial_complex(Code(n, nonzero)))
        assert profile.is_zero()
        checked += 1
    assert checked > 10


def test_chamber_identity_random_codes():
    rng = random.Random(2024)
    for _ in range(40):
        n = rng.randint(2, 7)
        words = {rng.randrange(1 << n) for _ in range(rng.randint(1, 8))}
        c = Code(n, frozenset(words))
        if len(maximal_codewords(c)) > 5:
            continue
        realz, _ = max_int_realization(c, AMBIENT_WHOLE)
        oracle = brute_completion(maximal_codewords(c))
        want = set(oracle) | ({0} if realz.padding_count else set())
        assert realz.achieved_whole.words == frozenset(want)
        assert realz.achieved_union.words == frozenset(oracle) - {0}


def test_chamber_membership_and_bundle_match_references():
    # k <= 8 maxima: sparse membership against the all-points filter, and
    # the scattered code and the bundle text against per-point readers
    rng = random.Random(4242)
    seen_k = set()
    for trial in range(40):
        n = rng.randint(2, 9)
        c = Code(n, frozenset(rng.randrange(1 << n) for _ in range(rng.randint(1, 10))))
        ambient = (AMBIENT_WHOLE, AMBIENT_UNION)[trial % 2]
        realz, cert = max_int_realization(c, ambient)
        if realz.k > 8:
            continue
        seen_k.add(realz.k)
        for i in range(1, n + 1):
            want = chamber_membership_by_filter(realz.rho[i], realz.k)
            assert realz.abstract.membership[i] == want
        assert realz.achieved_whole.words == pointwise_abstract_words(realz.abstract)
        assert cert.achieved.words == pointwise_abstract_words(cert.cover)
        assert (cert.cover.ambient is None) == (ambient == AMBIENT_WHOLE)
        assert _abstract_cover_text(cert.cover) == scan_abstract_cover_text(cert.cover)
    assert len(seen_k) >= 4


def test_geometric_check_runs_for_every_k():
    # disjoint pairs: k maximal words, far beyond any cell enumeration
    for k in (3, 4, 8, 16):
        c = Code.from_words(2 * k, [(2 * a - 1, 2 * a) for a in range(1, k + 1)])
        realz, cert = max_int_realization(c, AMBIENT_UNION)
        record = {r.name: r for r in cert.checks}["geometric-agreement"]
        assert realz.k == k and record.passed and record.status == "pass"
        assert record.detail == f"{2 * k} regions cut by sides of the {k} simplex facets"
        assert [r.name for r in cert.checks] == [
            "abstract-chamber-code",
            "geometric-agreement",
        ]
        assert cert.valid
    failed = RealizationCertificate(
        cert.target, cert.achieved, cert.method, cert.dimension, cert.ambient,
        cert.checks + (CheckRecord("extra", False),),
    )
    assert failed.checks[-1].status == "FAIL" and not failed.valid


def _side(a, k):
    """The open side {lambda_a < 0} of simplex facet a (0-based) in R^(k-1)."""
    d = k - 1
    if a < d:
        return HalfSpace(tuple(F(int(j == a)) for j in range(d)), 0, True)
    return HalfSpace((F(-1),) * d, -1, True)


def _mutate(cover, kind, rng):
    """One defect of the given kind in a chamber cover, the cover with one
    half-space rescaled, or None when the cover has no place for the defect."""
    k = cover.dimension + 1
    regions = list(cover.regions)
    # a region with a side to change, and for wrong-facet a facet it misses
    room = [
        i
        for i, r in enumerate(regions)
        if r.halfspaces and (kind != "wrong-facet" or len(set(r.halfspaces)) < k)
    ]
    if kind == "swapped":
        room = [i for i in room if any(r.halfspaces != regions[i].halfspaces for r in regions)]
    if not room:
        return None
    i = rng.choice(room)
    hs = list(regions[i].halfspaces)
    j = rng.randrange(len(hs))
    h = hs[j]
    if kind == "swapped":
        m = rng.choice([m for m, r in enumerate(regions) if r.halfspaces != tuple(hs)])
        regions[i], regions[m] = regions[m], regions[i]
        return type(cover)(cover.dimension, tuple(regions), cover.ambient)
    if kind == "lost-region":
        return type(cover)(cover.dimension, tuple(regions[:-1]), cover.ambient)
    if kind == "ambient":
        other = AMBIENT_UNION if cover.ambient == AMBIENT_WHOLE else AMBIENT_WHOLE
        return type(cover)(cover.dimension, tuple(regions), other)
    ball = None
    if kind == "ball":
        ball = Ball((0,) * cover.dimension, 1, True)
    if kind == "weak":
        hs[j] = HalfSpace(h.normal, h.offset, False)
    elif kind == "flipped":
        hs[j] = HalfSpace(tuple(-c for c in h.normal), -h.offset, True)
    elif kind == "dropped":
        del hs[j]
    elif kind == "shifted":
        hs[j] = HalfSpace(h.normal, h.offset + rng.choice((-1, 1)), True)
    elif kind == "wrong-facet":
        hs[j] = rng.choice([_side(a, k) for a in range(k) if _side(a, k) not in hs])
    elif kind == "rescaled":
        t = F(rng.randint(1, 9), rng.randint(1, 9))
        hs[j] = HalfSpace(tuple(t * c for c in h.normal), t * h.offset, True)
    regions[i] = ConvexRegion(cover.dimension, tuple(hs), ball)
    return type(cover)(cover.dimension, tuple(regions), cover.ambient)


DEFECTS = ("weak", "flipped", "dropped", "shifted", "wrong-facet", "swapped")


def test_geometric_check_rejects_every_defect(monkeypatch):
    # k = 4 with every neuron in two maximal words: each region has two
    # facet sides and a free facet to swap in, and no two regions agree
    c = compact(4, "12 23 34 14")
    built = PolyhedralCover
    for kind in DEFECTS + ("lost-region", "ambient", "ball", "rescaled"):
        for seed in range(8):
            rng = random.Random(seed)
            monkeypatch.setattr(
                realization,
                "PolyhedralCover",
                lambda *args: _mutate(built(*args), kind, rng),
            )
            realz, cert = max_int_realization(c, AMBIENT_UNION)
            record = {r.name: r for r in cert.checks}["geometric-agreement"]
            problem = _simplex_sides(realz.geometric, realz.rho, realz.k, AMBIENT_UNION)
            assert record.passed == (problem is None) == (kind == "rescaled"), kind
            assert cert.valid == (kind == "rescaled")
            assert record.detail == (problem or "4 regions cut by sides of the 4 simplex facets")


def test_geometric_check_matches_brute_force():
    # the facet-side check against cell enumeration: both pass on every
    # chamber cover, and a mutant the check accepts has the right code
    rng = random.Random(5150)
    ks, rejected_by_oracle = set(), 0
    for trial in range(60):
        k = 5 if trial % 10 == 0 else rng.randint(1, 4)
        n = rng.randint(4, 7)
        # distinct words of one size are the maximal words
        half = [word_mask(s) for s in combinations(range(1, n + 1), n // 2)]
        c = Code(n, frozenset(rng.sample(half, k)))
        ambient = (AMBIENT_WHOLE, AMBIENT_UNION)[trial % 2]
        realz, cert = max_int_realization(c, ambient)
        ks.add(realz.k)
        oracle = brute_chamber_checks(realz.geometric, realz.padded_words, ambient)
        assert all(oracle.values()) and cert.valid
        kind = (DEFECTS + ("rescaled",))[trial % 7]
        mutant = _mutate(realz.geometric, kind, rng)
        if realz.k == 5 or mutant is None:
            continue
        accepted = _simplex_sides(mutant, realz.rho, realz.k, ambient) is None
        oracle = brute_chamber_checks(mutant, realz.padded_words, ambient)
        assert accepted == (kind == "rescaled"), kind
        if accepted:
            assert all(oracle.values())
        rejected_by_oracle += not all(oracle.values())
    assert ks == {3, 4, 5} and rejected_by_oracle >= 10


# ---------------------------------------------------------------------------
# monotone extension


def test_monotone_adds_one_word():
    base = compact(4, "123 134 13")
    cover = finite_realization(base)
    target = compact(4, "123 134 13 1")
    out = monotone_extend(cover, target)
    assert abstract_code(out).words == target.words


def test_monotone_noop():
    base = compact(4, "123 134 13")
    cover = finite_realization(base)
    out = monotone_extend(cover, base)
    assert abstract_code(out).words == base.words
    assert len(out.points) == len(cover.points)


def test_monotone_full_face_code():
    cover = finite_realization(compact(3, "123"))
    faces = Code(3, frozenset(simplicial_complex(compact(3, "123")).faces()))
    out = monotone_extend(cover, faces)
    assert abstract_code(out).words == faces.words
    assert len(out.points) == 1 + 7  # one original point plus one per added word


def test_monotone_rejects_non_face():
    # a word outside the base complex, disjoint from, above or beside its
    # facet, is refused by the face test before any point is added
    cover = finite_realization(compact(3, "12"))
    for target, word in (("12 3", "3"), ("12 123", "123"), ("12 1 23", "23")):
        with pytest.raises(MonotoneExtendError) as err:
            monotone_extend(cover, compact(3, target))
        assert err.value.word == word_mask(int(i) for i in word)
        assert str(err.value) == f"target word {word} is not a face of the complex"


def test_monotone_rejects_dropped_word():
    cover = finite_realization(compact(3, "12 1"))
    with pytest.raises(MonotoneExtendError):
        monotone_extend(cover, compact(3, "12"))


def test_monotone_reads_facets_not_faces(monkeypatch):
    # membership of a target word is tested against the facets; enumerating
    # the faces of a wide facet would cost 2^|facet|
    from convexcodes.codes import SimplicialComplex

    def no_faces(self, budget=None):
        raise AssertionError("faces() enumerated")

    monkeypatch.setattr(SimplicialComplex, "faces", no_faces)
    base = Code(40, frozenset({(1 << 40) - 1, 1 << 39}))
    target = Code(40, base.words | {1, 3, (1 << 39) | 1})
    out = monotone_extend(finite_realization(base), target)
    assert abstract_code(out).words == target.words
    with pytest.raises(MonotoneExtendError, match="3 is not a face of the complex"):
        monotone_extend(finite_realization(compact(3, "12")), compact(3, "12 3"))


def test_monotone_random_pairs_exact():
    rng = random.Random(606)
    for _ in range(60):
        n = rng.randint(2, 6)
        words = {rng.randrange(1 << n) for _ in range(rng.randint(1, 8))}
        c = Code(n, frozenset(words) or {1})
        complex_ = simplicial_complex(c)
        maxima = maximal_codewords(c)
        extras = [f for f in complex_.faces() if f not in c.words and f not in maxima]
        rng.shuffle(extras)
        d = Code(n, c.words | frozenset(extras[: rng.randint(0, len(extras))]))
        out = monotone_extend(finite_realization(c), d)
        assert abstract_code(out).words == d.words


def test_abstract_from_cover_nested_intervals():
    cover = PolyhedralCover(
        1,
        (open_interval(0, 6), open_interval(1, 5), open_interval(2, 4)),
        AMBIENT_WHOLE,
    )
    abstract = abstract_from_cover(cover)
    assert abstract_code(abstract).words == compact(3, "0 1 12 123").words


# ---------------------------------------------------------------------------
# potential cover


def test_potential_cover_examples():
    _, cert = potential_cover(compact(2, "1 2 12"))
    assert cert.achieved.words == compact(2, "0 1 2 12").words and cert.valid
    _, cert = potential_cover(compact(2, "1 12"))
    assert cert.achieved.words == compact(2, "1 12").words and cert.valid
    realz, cert = potential_cover(compact(2, "12"))
    assert cert.achieved.words == compact(2, "12").words and cert.valid
    assert realz.dimension == 1


def test_potential_cover_witnesses_exact():
    realz, cert = potential_cover(compact(3, "12 23 123"))
    assert cert.valid
    for sigma, (den, numerators) in realz.witnesses.items():
        assert den == sum(numerators.values()) and all(a > 0 for a in numerators.values())
        support = set(numerators)
        for i in range(1, 4):
            holds = bool(support) and support <= set(realz.vertex_sets[i])
            assert holds == bool(sigma & (1 << (i - 1)))


def test_potential_word_rejects_non_convex_points():
    vertex_sets = {1: {0, 1}, 2: {1, 2}}
    assert _potential_word((2, {0: 1, 1: 1}), vertex_sets) == word_mask([1])
    assert _potential_word((1, {1: 1}), vertex_sets) == word_mask([1, 2])
    assert _potential_word((1, {2: 1}), vertex_sets) == word_mask([2])
    # a zero numerator is off the support
    assert _potential_word((1, {0: 0, 2: 1}), vertex_sets) == word_mask([2])
    # sums to 1 with the same support pattern, but one coordinate is negative
    assert _potential_word((2, {0: -1, 1: 3}), vertex_sets) is None
    # the numerators do not sum to the denominator
    assert _potential_word((4, {0: 2, 1: 1}), vertex_sets) is None
    # the numerators sum to the denominator, which is not positive
    assert _potential_word((0, {}), vertex_sets) is None
    assert _potential_word((-2, {0: -1, 1: -1}), vertex_sets) is None


def dense(point, dim):
    den, numerators = point
    return tuple(F(numerators.get(j, 0), den) for j in range(dim))


def test_potential_text_reduces_sparse_fractions():
    realz = realization.PotentialCoverRealization(
        {word_mask([1]): 0, word_mask([2]): 1, word_mask([1, 2]): 2},
        {1: (0, 2), 2: (1, 2)},
        {word_mask([1, 2]): (4, {2: 4}), 0: (6, {0: 2, 1: 4, 2: 0})},
        3,
    )
    lines = _potential_text(realz, 2).splitlines()
    assert lines[-2:] == ["witness 0: 1/3 2/3 0/1", "witness 12: 0/1 0/1 1/1"]


@st.composite
def potential_codes(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    words = draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=14))
    return Code(n, frozenset(words))


@settings(max_examples=150, deadline=None)
@given(potential_codes())
# one wide word, with and without the empty word, and the empty word alone
@example(Code(12, frozenset({(1 << 12) - 1, 1})))
@example(Code(12, frozenset({(1 << 12) - 1, 0b110, 0b1000_0000_0001})))
@example(Code(12, frozenset({(1 << 12) - 1, 0b110, 0})))
@example(Code(11, frozenset({(1 << 11) - 1, 0})))
@example(Code(3, frozenset({0})))
def test_potential_cover_matches_dense_oracle(code):
    realz, cert = potential_cover(code)
    achieved, witnesses = dense_potential_cover(code)
    assert cert.achieved.words == achieved and cert.valid
    dim = realz.dimension
    assert {w: dense(p, dim) for w, p in realz.witnesses.items()} == witnesses
    vertex_sets = {i: set(v) for i, v in realz.vertex_sets.items()}
    for sigma, point in witnesses.items():
        assert dense_potential_word(point, vertex_sets) == sigma
        assert _potential_word(realz.witnesses[sigma], vertex_sets) == sigma
    dense_realz = dataclasses.replace(realz, witnesses=witnesses)
    assert _potential_text(realz, code.n) == dense_potential_text(dense_realz, code.n)


def test_potential_cover_builds_no_faces(monkeypatch):
    # the witnesses come from the completion, not from a walk of 2^40 faces
    from convexcodes.codes import SimplicialComplex

    def no_faces(self, budget=None):
        raise AssertionError("faces() enumerated")

    monkeypatch.setattr(SimplicialComplex, "faces", no_faces)
    wide = (1 << 40) - 1
    realz, cert = potential_cover(Code(40, frozenset({wide, 1, 0b110})))
    assert cert.valid and cert.achieved.words == {wide, 1, 0b110, 0}
    assert realz.witnesses[0] == (3, {0: 1, 1: 1, 2: 1})


def test_potential_cover_checks_catch_a_misread_witness(monkeypatch):
    # the achieved code is read back at the witnesses, so one misread word
    # fails both checks
    read = realization._potential_word
    full = word_mask([1, 2])

    def misread(point, vertex_sets):
        word = read(point, vertex_sets)
        return word_mask([1]) if word == full else word

    monkeypatch.setattr(realization, "_potential_word", misread)
    _, cert = potential_cover(compact(2, "1 2 12"))
    assert {c.name: c.passed for c in cert.checks} == {
        "witness-membership": False,
        "achieved-is-completion": False,
    }
    assert not cert.valid


def test_potential_cover_random_oracle():
    rng = random.Random(321)
    for _ in range(60):
        n = rng.randint(2, 6)
        words = {rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 10))}
        c = Code(n, frozenset(words))
        _, cert = potential_cover(c)
        assert cert.achieved.words == brute_completion(c.words)
        assert cert.valid


# ---------------------------------------------------------------------------
# end-to-end realize


def test_realize_max_complete_code():
    cert = realize(compact(4, "123 134 13 1"))
    assert not isinstance(cert, NotApplicable)
    assert cert.achieved.words == compact(4, "123 134 13 1").words
    assert cert.dimension == 2
    assert cert.valid and replay_certificate(cert)
    assert cert.method == "chamber+monotone"


def test_realize_not_applicable_six_neuron():
    c = compact(6, "123 126 156 456 345 234 12 16 56 45 34 23 0")
    out = realize(c)
    assert isinstance(out, NotApplicable)
    assert out.missing == word_mask([1])
    assert set(out.intersect_of) == {word_mask([1, 2, 3]), word_mask([1, 5, 6])}


def _witness_both_ways(code):
    maxima = sorted(maximal_codewords(code), key=word_key)
    completion = Code(code.n, frozenset(incremental_completion(maxima)))
    if completion.words <= code.words:
        return None
    got = realize(code)
    assert got == combinations_missing_intersection(code, maxima, completion)
    return got


def test_witness_matches_combinations_oracle():
    rng = random.Random(1609)
    checked = 0
    while checked < 2000:
        n = rng.randint(2, 10)
        words = {rng.randrange(1 << n) for _ in range(rng.randint(2, 8))}
        checked += _witness_both_ways(Code(n, frozenset(words))) is not None
    # 70 distinct 8-subsets of [16] are all maximal: more than 64 members
    # of the witness search, whose masks word_key would not take
    words = set()
    while len(words) < 70:
        words.add(sum(1 << i for i in rng.sample(range(16), 8)))
    got = _witness_both_ways(Code(16, frozenset(words)))
    assert got.missing == 0


def test_realize_stops_at_the_first_missing_intersection(monkeypatch):
    # the first closed set of the 60 maxima is their meet 0, missing from
    # the code; the completion would hold 2^60 - 1 words
    code = complement_code(60)
    walk, drawn = realization.closed_sets, []

    def counting(words):
        for item in walk(words):
            drawn.append(item)
            yield item

    monkeypatch.setattr(realization, "closed_sets", counting)
    t0 = time.perf_counter()
    out = realize(code)
    assert time.perf_counter() - t0 < 1
    assert out == NotApplicable(0, tuple(sorted(code.words, key=word_key)))
    assert len(drawn) == 1
    report = classify_completeness(code)
    assert not report.intersection_complete and not report.max_intersection_complete


def _relabeled_closed_sets(maxima, relabel):
    return {
        relabel(w): frozenset(relabel(m) for a, m in enumerate(maxima) if family >> a & 1)
        for w, family in closed_sets(maxima)
    }


def test_completion_questions_do_not_depend_on_neuron_names():
    rng = random.Random(2311)
    t0 = time.perf_counter()
    for _ in range(300):
        n = rng.randint(1, 8)
        code = Code(n, frozenset(rng.randrange(1 << n) for _ in range(rng.randint(1, 8))))
        if rng.random() < 0.3:
            code = Code(n, code.words | intersection_completion(Code(n, maximal_codewords(code))).words)
        perm = rng.sample(range(n), n)

        def relabel(w):
            return sum(1 << perm[i] for i in range(n) if w >> i & 1)

        image = Code(n, frozenset(map(relabel, code.words)))
        assert classify_completeness(image) == classify_completeness(code)
        maxima = tuple(maximal_codewords(code))
        closed = _relabeled_closed_sets(maxima, relabel)
        assert closed == _relabeled_closed_sets(tuple(map(relabel, maxima)), lambda w: w)
        out, image_out = realize(code), realize(image)
        assert isinstance(out, NotApplicable) == isinstance(image_out, NotApplicable)
        if isinstance(out, NotApplicable):
            # each witness is a missing intersection under the other labeling
            for missing in (relabel(out.missing), image_out.missing):
                assert missing in closed and missing not in image.words
    assert time.perf_counter() - t0 < 1


def test_sunflower_witness_is_all_ten_petals():
    t0 = time.perf_counter()
    out = realize(sunflower_code())
    assert time.perf_counter() - t0 < 1
    assert isinstance(out, NotApplicable)
    assert out.missing == word_mask([11])
    petals = [word_mask({*range(1, 12)} - {a}) for a in range(1, 11)]
    assert out.intersect_of == tuple(sorted(petals, key=word_key))


def test_realize_simplicial_complex():
    # three facets on four vertices: simplicial complexes are realizable
    faces = simplicial_complex(compact(4, "123 124 34")).faces()
    c = Code(4, frozenset(faces))
    cert = realize(c)
    assert not isinstance(cert, NotApplicable)
    assert cert.achieved.words == c.words
    assert cert.dimension == max(2, 3 - 1)
    assert cert.valid


def test_realize_code_with_empty_word():
    c = compact(3, "123 23 3 0")
    cert = realize(c)
    assert not isinstance(cert, NotApplicable)
    assert cert.ambient == AMBIENT_WHOLE
    assert cert.achieved.words == c.words
    assert cert.valid and replay_certificate(cert)


def test_realize_union_ambient_rejects_the_empty_word():
    # no point of the union of the sets lies outside every set
    with pytest.raises(MonotoneExtendError, match="empty word") as err:
        realize(compact(3, "0 1"), ambient=AMBIENT_UNION)
    assert err.value.word == 0
    cert = realize(compact(3, "0 1"), ambient=AMBIENT_WHOLE)
    assert cert.valid and cert.achieved.words == compact(3, "0 1").words
    cert = realize(compact(3, "1"), ambient=AMBIENT_UNION)
    assert cert.valid and cert.achieved.words == compact(3, "1").words


def test_realize_random_complete_codes():
    rng = random.Random(888)
    for _ in range(30):
        n = rng.randint(2, 6)
        seeds = {rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 4))}
        maxima = maximal_codewords(Code(n, frozenset(seeds)))
        base = intersection_completion(Code(n, maxima))
        c = Code(n, base.words)
        k = len(maxima)
        cert = realize(c)
        assert not isinstance(cert, NotApplicable)
        assert cert.achieved.words == c.words
        assert cert.dimension == max(2, k - 1)
        assert replay_certificate(cert)
