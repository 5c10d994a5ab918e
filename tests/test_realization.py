import random
from fractions import Fraction as F

import pytest

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
from convexcodes.cli import _abstract_cover_text
from convexcodes.realization import CheckRecord, _potential_word
from oracles import (
    brute_completion,
    chamber_membership_by_filter,
    pointwise_abstract_words,
    scan_abstract_cover_text,
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
    realz, cert = max_int_realization(c, AMBIENT_WHOLE, geometric_check_cap=6)
    oracle = brute_completion(maximal_codewords(c))
    assert realz.achieved_whole.words == frozenset(oracle)
    assert 0 in realz.achieved_whole.words  # 123 and 456 are disjoint
    assert cert.valid  # includes the geometric cross-check at k = 6
    assert cert.dimension == 5


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
        realz, cert = max_int_realization(c, ambient, geometric_check_cap=0)
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


def test_geometric_check_above_cap_is_skipped_not_passed():
    c = compact(4, "12 23 34 14")  # k = 4 maximal words
    _, checked = max_int_realization(c, AMBIENT_UNION)
    record = {r.name: r for r in checked.checks}["geometric-agreement"]
    assert record.passed and not record.skipped and record.status == "pass"
    _, cert = max_int_realization(c, AMBIENT_UNION, geometric_check_cap=3)
    record = {r.name: r for r in cert.checks}["geometric-agreement"]
    assert record.skipped and not record.passed
    assert record.status == "skipped" and record.detail == "k=4 above cap 3"
    assert "cell-for-codeword" not in {r.name for r in cert.checks}
    # a skipped check is not a failed one
    assert cert.valid and checked.valid
    failed = RealizationCertificate(
        cert.target, cert.achieved, cert.method, cert.dimension, cert.ambient,
        cert.checks + (CheckRecord("extra", False),),
    )
    assert not failed.valid


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
    cover = finite_realization(compact(3, "12"))
    with pytest.raises(MonotoneExtendError) as err:
        monotone_extend(cover, compact(3, "12 3"))
    assert err.value.word == word_mask([3])


def test_monotone_rejects_dropped_word():
    cover = finite_realization(compact(3, "12 1"))
    with pytest.raises(MonotoneExtendError):
        monotone_extend(cover, compact(3, "12"))


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
    for sigma, point in realz.witnesses.items():
        support = {j for j, c in enumerate(point) if c > 0}
        for i in range(1, 4):
            holds = bool(support) and support <= set(realz.vertex_sets[i])
            assert holds == bool(sigma & (1 << (i - 1)))


def test_potential_word_rejects_non_convex_points():
    vertex_sets = {1: {0, 1}, 2: {1, 2}}
    assert _potential_word((F(1, 2), F(1, 2), F(0)), vertex_sets) == word_mask([1])
    assert _potential_word((F(0), F(1), F(0)), vertex_sets) == word_mask([1, 2])
    assert _potential_word((F(0), F(0), F(1)), vertex_sets) == word_mask([2])
    # sums to 1 with the same support pattern, but one coordinate is negative
    assert _potential_word((F(-1, 2), F(3, 2), F(0)), vertex_sets) is None
    assert _potential_word((F(1, 2), F(1, 4), F(0)), vertex_sets) is None


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
