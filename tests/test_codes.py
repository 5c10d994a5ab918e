import pytest
from hypothesis import given, settings, strategies as st

from convexcodes import (
    AbstractCover,
    Code,
    CodeParseError,
    abstract_code,
    classify_completeness,
    code_from_text,
    code_to_text,
    covers,
    finite_realization,
    intersection_completion,
    link,
    maximal_codewords,
    restrict,
    simplicial_complex,
    simplicial_violators,
    word_mask,
    word_neurons,
)
from convexcodes.cli import _abstract_cover_text
from convexcodes.codes import closed_sets, word_key, word_label
from oracles import (
    bitwise_word_label,
    bitwise_word_neurons,
    brute_completion,
    brute_delta_faces,
    brute_link,
    brute_violators,
    fixpoint_completion,
    incremental_completion,
    pairwise_maximal_codewords,
    pointwise_abstract_words,
    scan_abstract_cover_text,
    tuple_word_key,
)


def compact(n, text):
    return Code.from_compact(n, text)


def words_of(code):
    return set(code.words)


# ---------------------------------------------------------------------------
# strategies


@st.composite
def codes(draw, max_n=6, min_words=1, max_words=10, allow_empty_word=True):
    n = draw(st.integers(2, max_n))
    lo = 0 if allow_empty_word else 1
    ws = draw(
        st.sets(st.integers(lo, (1 << n) - 1), min_size=min_words, max_size=max_words)
    )
    if not ws:
        ws = {draw(st.integers(1, (1 << n) - 1))}
    return Code(n, frozenset(ws))


@st.composite
def abstract_covers(draw, max_n=8, max_points=12):
    """Covers of mixed int and str point labels, with or without an ambient subset."""
    n = draw(st.integers(1, max_n))
    count = draw(st.integers(0, max_points))
    labels = draw(st.permutations([*range(count), *(f"q{j}" for j in range(count))]))
    points = tuple(labels[:count])
    membership = {
        i: frozenset(draw(st.sets(st.sampled_from(points), max_size=count)) if points else ())
        for i in draw(st.sets(st.integers(1, n)))
    }
    ambient = None
    if draw(st.booleans()):
        covered = frozenset().union(*membership.values())
        extra = draw(st.sets(st.sampled_from(points))) if points else set()
        ambient = covered | frozenset(extra)
    return AbstractCover(n, points, membership, ambient)


# ---------------------------------------------------------------------------
# words and complexes


def test_word_mask_roundtrip():
    assert word_neurons(word_mask([3, 1, 2])) == (1, 2, 3)
    assert word_mask([]) == 0
    with pytest.raises(ValueError):
        word_mask([0])


ALL_64 = (1 << 64) - 1


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.one_of(st.integers(0, ALL_64), st.integers(0, 1 << 12)),
        max_size=40,
    )
)
def test_word_key_orders_like_tuple_key(masks):
    # the integer key sorts exactly as (size, sorted neuron indices) did
    masks += [0, ALL_64, 1, 1 << 63, ALL_64 >> 1, ALL_64 - 1]
    assert sorted(masks, key=word_key) == sorted(masks, key=tuple_word_key)


def test_word_helpers_match_bitwise_loops_below_2_12():
    for mask in range(1 << 12):
        assert word_neurons(mask) == bitwise_word_neurons(mask)
        for n in (9, 10):
            assert word_label(mask, n) == bitwise_word_label(mask, n)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, ALL_64), max_size=20))
def test_word_helpers_match_bitwise_loops_below_2_64(masks):
    for mask in masks + [ALL_64, 1 << 63]:
        assert word_neurons(mask) == bitwise_word_neurons(mask)
        for n in (9, 10, 64):
            assert word_label(mask, n) == bitwise_word_label(mask, n)


def test_simplicial_complex_of_fig_cover():
    c = compact(4, "0 2 3 12 23 34 123")
    k = simplicial_complex(c)
    assert k.facets == frozenset({word_mask([1, 2, 3]), word_mask([3, 4])})


def test_simplicial_complex_empty_word_only():
    k = simplicial_complex(compact(3, "0"))
    assert k.facets == frozenset({0})
    assert k.faces() == {0}


def test_simplicial_complex_inclusion_scan():
    k = simplicial_complex(compact(4, "23 14 123"))
    assert k.facets == frozenset({word_mask([1, 2, 3]), word_mask([1, 4])})


def test_maximal_codewords():
    c5 = compact(5, "2345 124 135 145 14 15 24 35 45 4 5")
    assert maximal_codewords(c5) == compact(5, "2345 124 135 145").words
    assert maximal_codewords(compact(2, "12")) == {word_mask([1, 2])}
    c6 = compact(6, "123 126 156 456 345 234 12 16 56 45 34 23 0")
    assert maximal_codewords(c6) == compact(6, "123 126 156 456 345 234").words


def test_link_examples():
    c = compact(4, "0 1 2 3 4 123 124")
    assert words_of(link(c, word_mask([1, 2]))) == words_of(compact(4, "3 4"))
    assert words_of(link(c, 0)) == words_of(c)
    # oracle-checked: link of the four-ellipse code at {3}
    c2 = compact(4, "0 2 3 12 23 34 123")
    got = words_of(link(c2, word_mask([3])))
    assert got == brute_link(c2.words, word_mask([3]), 4)
    assert got == words_of(compact(4, "0 2 4 12"))


def test_violators_examples():
    c = compact(4, "0 2 3 12 23 34 123")
    got = simplicial_violators(c)
    assert got == brute_violators(c.words)
    # {4} is a violator too: 4 is below the facet 34 but absent from the code
    assert got == {word_mask([1]), word_mask([4]), word_mask([1, 3])}
    # a downward-closed code has none
    closed = Code(3, frozenset(brute_delta_faces(compact(3, "123").words)))
    assert simplicial_violators(closed) == frozenset()
    c3 = compact(3, "0 1 2 13 23")
    assert simplicial_violators(c3) == {word_mask([3])}


def test_restrict_examples():
    c = compact(4, "23 14 123")
    assert words_of(restrict(c, word_mask([1, 2]))) == words_of(compact(4, "2 1 12"))
    assert words_of(restrict(c, word_mask([3, 4]))) == words_of(compact(4, "3 4"))
    assert words_of(restrict(c, word_mask([1, 2, 3, 4]))) == words_of(c)


def test_covers_examples():
    c = compact(4, "23 14 123")
    assert covers(word_mask([1, 2]), c)
    assert covers(word_mask([3, 4]), c)
    assert not covers(word_mask([1]), c)
    assert not covers(word_mask([1, 2]), compact(4, "0 12"))
    with pytest.raises(ValueError):
        covers(0, c)


def test_intersection_completion_examples():
    got = intersection_completion(compact(2, "1 2 12"))
    assert words_of(got) == brute_completion(compact(2, "1 2 12").words)
    assert words_of(got) == words_of(compact(2, "0 1 2 12"))
    # a simplicial complex is already complete
    cx = Code(3, frozenset(brute_delta_faces({word_mask([1, 2, 3])})))
    assert intersection_completion(cx).words == cx.words
    # the six maximal words of the six-neuron code
    m = compact(6, "123 126 156 456 345 234")
    got = intersection_completion(m)
    assert words_of(got) == brute_completion(m.words)
    assert words_of(got) == words_of(
        compact(6, "123 126 156 456 345 234 12 1 3 23 16 6 2 56 5 45 4 34 0")
    )


def test_classify_completeness():
    c6 = compact(6, "123 126 156 456 345 234 12 16 56 45 34 23 0")
    rep = classify_completeness(c6)
    assert not rep.max_intersection_complete
    c5 = compact(5, "2345 124 135 145 14 15 24 35 45 4 5")
    assert not classify_completeness(c5).max_intersection_complete
    good = compact(4, "123 134 13 1")
    rep = classify_completeness(good)
    assert rep.max_intersection_complete
    # 12 ∩ 13 = 1 is missing, but the one maximal word 123 has no other intersection
    rep = classify_completeness(compact(3, "123 12 13"))
    assert rep.max_intersection_complete and not rep.intersection_complete


def test_abstract_code_examples():
    c = compact(2, "0 1 12")
    assert abstract_code(finite_realization(c)).words == c.words
    empty = AbstractCover(1, (), {1: frozenset()}, None)
    assert abstract_code(empty).words == frozenset()
    # the one-point-per-chamber system for maximal words {123, 134}
    rho = {1: {1, 2}, 2: {1}, 3: {1, 2}, 4: {2}}
    points = tuple(range(1, 8))  # non-empty subsets of [3] as masks
    membership = {
        i: frozenset(p for p in points if p & sum(1 << (a - 1) for a in rho[i]) == p)
        for i in rho
    }
    cover = AbstractCover(4, points, membership, None)
    assert abstract_code(cover).words == words_of(compact(4, "123 134 13 0"))


# ---------------------------------------------------------------------------
# invariants


@settings(max_examples=120, deadline=None)
@given(codes(max_n=7))
def test_link_commutes_with_complex(c):
    k = simplicial_complex(c)
    for sigma in sorted(k.faces()):
        link_code = link(c, sigma)
        if not link_code.words:
            continue
        left = simplicial_complex(link_code).faces()
        right = {
            f & ~sigma
            for f in k.faces()
            if f & sigma == sigma
        }
        assert left == right


@settings(max_examples=120, deadline=None)
@given(codes(max_n=6))
def test_violator_iff_empty_word_missing_from_link(c):
    k = simplicial_complex(c)
    violators = simplicial_violators(c)
    for sigma in k.faces():
        assert (sigma in violators) == (0 not in link(c, sigma).words)


@settings(max_examples=120, deadline=None)
@given(codes(max_n=6))
def test_completion_idempotent(c):
    once = intersection_completion(c)
    twice = intersection_completion(once)
    assert once.words == twice.words
    assert c.words <= once.words


@settings(max_examples=80, deadline=None)
@given(codes(max_n=5, max_words=6), st.sets(st.integers(0, 31), max_size=4))
def test_completion_monotone(c, extra):
    extra = {w for w in extra if w < (1 << c.n)}
    d = Code(c.n, c.words | frozenset(extra))
    assert intersection_completion(c).words <= intersection_completion(d).words


@settings(max_examples=120, deadline=None)
@given(codes(max_n=8, max_words=12))
def test_finite_realization_roundtrip(c):
    assert abstract_code(finite_realization(c)).words == c.words


@settings(max_examples=100, deadline=None)
@given(codes(max_n=6, allow_empty_word=False), st.integers(1, 63))
def test_covers_iff_union_equality(c, sigma):
    sigma &= (1 << c.n) - 1
    if sigma == 0:
        return
    cover = finite_realization(c)
    union_all = frozenset().union(*cover.member_sets())
    union_sigma = frozenset().union(
        *(cover.membership.get(i, frozenset()) for i in word_neurons(sigma))
    )
    assert covers(sigma, c) == (union_all == union_sigma)


@settings(max_examples=100, deadline=None)
@given(codes(max_n=6))
def test_completion_against_oracle(c):
    assert intersection_completion(c).words == brute_completion(c.words)


@settings(max_examples=200, deadline=None)
@given(codes(max_n=8, max_words=40))
def test_word_algebra_matches_pairwise_references(c):
    assert maximal_codewords(c) == pairwise_maximal_codewords(c.words)
    assert intersection_completion(c).words == fixpoint_completion(c.words)


def _walk_matches_oracles(words):
    walk = list(closed_sets(words))
    assert [w for w, _ in walk] == sorted(incremental_completion(words), key=tuple_word_key)
    for w, family in walk:
        assert family == sum(1 << a for a, v in enumerate(words) if v & w == w)
    return {w for w, _ in walk}


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: st.lists(st.integers(0, (1 << n) - 1), max_size=10)))
def test_closed_sets_match_completion_oracles(words):
    assert _walk_matches_oracles(words) == brute_completion(words)


def test_closed_sets_edge_cases():
    assert list(closed_sets([])) == []
    assert list(closed_sets([0])) == [(0, 1)]
    assert list(closed_sets([5, 5])) == [(5, 3)]
    # the 126 proper non-empty subsets of [7]: the empty word lies in all of
    # them, so its family mask passes 2^64
    words = list(range(1, 127))
    assert _walk_matches_oracles(words) == set(range(127))
    assert next(closed_sets(words)) == (0, (1 << 126) - 1)


@settings(max_examples=200, deadline=None)
@given(abstract_covers())
def test_abstract_code_matches_per_point_reference(cover):
    assert abstract_code(cover).words == pointwise_abstract_words(cover)


@settings(max_examples=200, deadline=None)
@given(abstract_covers())
def test_abstract_cover_text_matches_scan(cover):
    assert _abstract_cover_text(cover) == scan_abstract_cover_text(cover)


# ---------------------------------------------------------------------------
# text format


def test_code_text_roundtrip():
    c = compact(4, "0 2 3 12 23 34 123")
    text = code_to_text(c)
    assert code_from_text(text).words == c.words
    # canonical emission is stable
    assert code_to_text(code_from_text(text)) == text


def test_code_text_parsing():
    c = code_from_text("# comment\nn=3\n1 2\n0\n3\n")
    assert c.words == {word_mask([1, 2]), 0, word_mask([3])}
    with pytest.raises(CodeParseError):
        code_from_text("")
    with pytest.raises(CodeParseError):
        code_from_text("n=3\n1 9\n")
    err = None
    try:
        code_from_text("n=2\n1\nbroken line\n")
    except CodeParseError as exc:
        err = exc
    assert err is not None and err.line == 3


@settings(max_examples=80, deadline=None)
@given(codes(max_n=12, max_words=12))
def test_code_text_roundtrip_random(c):
    assert code_from_text(code_to_text(c)).words == c.words


def test_package_exports_names_not_submodules():
    import types

    import convexcodes

    assert "realize" in convexcodes.__all__ and "Code" in convexcodes.__all__
    for name in ("codes", "geometry", "realization", "topology"):
        assert name not in convexcodes.__all__
    for name in convexcodes.__all__:
        assert not isinstance(getattr(convexcodes, name), types.ModuleType), name
    namespace: dict = {}
    exec("from convexcodes import *", namespace)
    imported = [v for k, v in namespace.items() if not k.startswith("__")]
    assert imported and not any(isinstance(v, types.ModuleType) for v in imported)
