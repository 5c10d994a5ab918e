import random
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from convexcodes import (
    Code,
    Contractible,
    NotContractible,
    SimplicialComplex,
    contractibility,
    covering_sets,
    link,
    local_obstructions,
    nonlocal_obstructions,
    reduced_betti,
    replay_collapse,
    restrict,
    simplicial_complex,
    word_mask,
)
import convexcodes.topology as topology
from convexcodes.codes import FaceBudgetError, word_key
from convexcodes.topology import _try_collapse
from oracles import (
    brute_covering_sets,
    brute_delta_faces,
    full_scan_local_obstructions,
    levelwise_covering_sets,
    per_dimension_reduced_betti,
    quadratic_collapse,
    quadratic_contractibility,
    sorted_pairs_nonlocal_obstructions,
)


def cx(n, *faces):
    return SimplicialComplex(n, frozenset(word_mask(f) for f in faces))


# ---------------------------------------------------------------------------
# homology


def test_hollow_triangle():
    assert reduced_betti(cx(3, [1, 2], [1, 3], [2, 3])).reduced == (0, 1)


def test_full_simplex():
    assert reduced_betti(cx(3, [1, 2, 3])).is_zero()


def test_two_isolated_vertices():
    p = reduced_betti(cx(4, [3], [4]))
    assert p.reduced == (1,)
    assert p.minus_one == 0


def test_tetrahedron_boundary():
    p = reduced_betti(cx(4, [1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]))
    assert p.reduced == (0, 0, 1)


def test_empty_face_complex():
    p = reduced_betti(SimplicialComplex(3, frozenset({0})))
    assert p.minus_one == 1 and p.reduced == ()


def test_void_complex():
    p = reduced_betti(SimplicialComplex(3, frozenset()))
    assert p.is_zero()


def test_two_triangles_sharing_an_edge():
    assert reduced_betti(cx(4, [1, 2, 3], [1, 2, 4])).is_zero()


# ---------------------------------------------------------------------------
# contractibility


def test_cone_detected():
    v = contractibility(cx(3, [1, 2, 3]))
    assert isinstance(v, Contractible) and v.apex == 1


def test_disconnected_not_contractible():
    v = contractibility(cx(4, [3], [4]))
    assert isinstance(v, NotContractible)
    assert v.degree == 0 and v.betti == 1


def test_link_complex_of_two_triangle_code():
    c = Code.from_compact(4, "0 1 2 3 4 123 124")
    k = simplicial_complex(link(c, word_mask([1, 2])))
    v = contractibility(k)
    assert isinstance(v, NotContractible)


def test_collapse_certificate_replays():
    # a path of three edges has no cone apex but collapses to a point
    k = cx(4, [1, 2], [2, 3], [3, 4])
    v = contractibility(k)
    assert isinstance(v, Contractible)
    if v.collapse_sequence is not None:
        assert replay_collapse(k, v.collapse_sequence)


def test_collapse_needed_for_path_complex():
    # facets {23, 26, 56}: path 3-2-6-5, no common vertex
    k = cx(6, [2, 3], [2, 6], [5, 6])
    v = contractibility(k)
    assert isinstance(v, Contractible)
    assert v.collapse_sequence is not None
    assert replay_collapse(k, v.collapse_sequence)


def test_contractibility_rejects_void():
    with pytest.raises(ValueError):
        contractibility(SimplicialComplex(2, frozenset()))


def test_empty_face_complex_not_contractible():
    v = contractibility(SimplicialComplex(2, frozenset({0})))
    assert v == NotContractible(degree=-1, betti=1)


def test_components_certify_a_disconnected_complex(monkeypatch):
    def no_faces(self, budget=None):
        raise AssertionError("faces() enumerated")

    monkeypatch.setattr(SimplicialComplex, "faces", no_faces)
    # three components: a path 1-2-3, the edge 45 and the vertex 6
    k = cx(6, [1, 2], [2, 3], [4, 5], [6])
    assert contractibility(k) == NotContractible(degree=0, betti=2)
    monkeypatch.undo()
    assert reduced_betti(k).reduced == (2,)


def test_two_disjoint_simplices_link_decided_from_facets():
    # {[m+1], {1, m+2..2m+1}} with m = 20: the link at 1 is two disjoint
    # 20-simplices, 2^21 faces, past the face budget
    m = 20
    code = Code(2 * m + 1, frozenset({(1 << (m + 1)) - 1, ((1 << m) - 1) << (m + 1) | 1}))
    t0 = time.perf_counter()
    scan = local_obstructions(code)
    assert time.perf_counter() - t0 < 0.1
    assert [(o.sigma, o.verdict) for o in scan.found] == [(1, NotContractible(0, 1))]
    assert not scan.undecided


@st.composite
def complexes(draw, max_n=5, max_words=5):
    n = draw(st.integers(2, max_n))
    words = draw(st.sets(st.integers(1, (1 << n) - 1), min_size=1, max_size=max_words))
    return simplicial_complex(Code(n, frozenset(words)))


@settings(max_examples=60, deadline=None)
@given(complexes())
@example(SimplicialComplex(3, frozenset({0})))
def test_betti_ranks_match_per_dimension_oracle(k):
    assert reduced_betti(k) == per_dimension_reduced_betti(k)


def test_contractibility_walks_the_faces_once(monkeypatch):
    # the path 12, 23, 34: connected, no apex, contractible by collapses
    k = cx(4, [1, 2], [2, 3], [3, 4])
    walks = []
    faces = SimplicialComplex.faces

    def counted(self, budget=None):
        walks.append(budget)
        return faces(self, budget)

    monkeypatch.setattr(SimplicialComplex, "faces", counted)
    v = contractibility(k)
    assert walks == [topology.FACE_BUDGET]
    assert v.collapse_sequence is not None
    assert replay_collapse(k, v.collapse_sequence)


def test_replay_collapse_keeps_the_face_budget(monkeypatch):
    k = cx(4, [1, 2], [2, 3], [3, 4])  # 8 faces, the empty one included
    seq = contractibility(k).collapse_sequence
    monkeypatch.setattr(topology, "FACE_BUDGET", 7)
    with pytest.raises(FaceBudgetError):
        replay_collapse(k, seq)
    monkeypatch.setattr(topology, "FACE_BUDGET", 8)
    assert replay_collapse(k, seq)


@settings(max_examples=60, deadline=None)
@given(complexes())
def test_cone_law(k):
    # the cone over k with a fresh apex vertex
    apex = 1 << k.n
    cone = SimplicialComplex(k.n + 1, frozenset(f | apex for f in k.facets))
    assert isinstance(contractibility(cone), Contractible)


@settings(max_examples=60, deadline=None)
@given(complexes(max_n=4))
def test_verdict_certificates_sound(k):
    v = contractibility(k)
    if isinstance(v, Contractible):
        if v.apex is not None:
            bit = 1 << (v.apex - 1)
            assert all(f & bit for f in k.facets)
        if v.collapse_sequence is not None:
            assert replay_collapse(k, v.collapse_sequence)
        assert reduced_betti(k).is_zero()
    elif isinstance(v, NotContractible):
        p = reduced_betti(k)
        if v.degree == -1:
            assert p.minus_one == v.betti != 0
        else:
            assert p.reduced[v.degree] == v.betti != 0


@settings(max_examples=50, deadline=None)
@given(complexes(max_n=8, max_words=8), st.integers(0, 1 << 16))
def test_collapse_matches_quadratic_oracle(k, seed):
    # same rng draws, same free-face order: the same sequence, pair for pair
    faces = brute_delta_faces(k.facets)
    ordered = sorted(faces, key=word_key)
    for s in range(seed, seed + 3):
        assert _try_collapse(ordered, random.Random(s)) == quadratic_collapse(
            faces - {0}, random.Random(s)
        )
    assert contractibility(k, restarts=4, seed=seed % 5) == quadratic_contractibility(
        k, restarts=4, seed=seed % 5
    )


# ---------------------------------------------------------------------------
# local obstructions


def test_local_obstruction_disconnected_link_code():
    scan = local_obstructions(Code.from_compact(3, "0 1 2 13 23"))
    assert [o.sigma for o in scan.found] == [word_mask([3])]
    assert not scan.undecided
    (obs,) = scan.found
    assert obs.link_facets == {word_mask([1]), word_mask([2])}


def test_local_obstruction_two_triangle_code():
    scan = local_obstructions(Code.from_compact(4, "0 1 2 3 4 123 124"))
    assert [o.sigma for o in scan.found] == [word_mask([1, 2])]
    assert not scan.undecided


def test_local_obstruction_among_nonlocal_code():
    scan = local_obstructions(Code.from_compact(4, "23 14 123"))
    assert [o.sigma for o in scan.found] == [word_mask([1])]
    assert not scan.undecided


def test_no_local_obstruction_six_neuron_code():
    c = Code.from_compact(6, "123 126 156 456 345 234 12 16 56 45 34 23 0")
    scan = local_obstructions(c)
    assert not scan.found and not scan.undecided


def test_no_local_obstruction_five_neuron_code():
    c = Code.from_compact(5, "2345 124 135 145 14 15 24 35 45 4 5")
    scan = local_obstructions(c)
    assert not scan.found and not scan.undecided


def _random_code(rng, n):
    facets = {rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 6))}
    words = set(facets)
    for f in facets:
        words.update(f & rng.randrange(1 << n) for _ in range(rng.randint(0, 4)))
    return Code(n, frozenset(words))


def test_local_scan_matches_full_violator_scan():
    # every code with n <= 3; stride 9, coprime to 2^16, so that each of the
    # 16 words of n = 4 is in some sampled codes and out of others
    codes = [
        Code(n, frozenset(w for w in range(1 << n) if k >> w & 1))
        for n in (1, 2, 3)
        for k in range(1, 1 << (1 << n))
    ]
    codes += [
        Code(4, frozenset(w for w in range(16) if k >> w & 1))
        for k in range(1, 1 << 16, 9)
    ]
    rng = random.Random(20261018)
    codes += [_random_code(rng, n) for n in range(5, 10) for _ in range(12)]
    for c in codes:
        assert local_obstructions(c) == full_scan_local_obstructions(c)


def test_local_scan_skips_cone_links(monkeypatch):
    # {[20], {1}}: completion(M) is the one facet, a codeword, so nothing is
    # scanned; the full scan would build 2^20 - 2 links
    calls = {"faces": 0, "contractibility": 0}
    faces, contract = SimplicialComplex.faces, topology.contractibility

    def counted_faces(self, budget=None):
        calls["faces"] += 1
        return faces(self, budget)

    def counted_contractibility(*args, **kwargs):
        calls["contractibility"] += 1
        return contract(*args, **kwargs)

    monkeypatch.setattr(SimplicialComplex, "faces", counted_faces)
    monkeypatch.setattr(topology, "contractibility", counted_contractibility)
    scan = local_obstructions(Code(20, frozenset({(1 << 20) - 1, 1})))
    assert scan.certifies_no_local_obstruction()
    assert calls == {"faces": 0, "contractibility": 0}
    # the counters do count: the link at 4 of 124 134 234 is a hollow
    # triangle, connected and obstructed, so its faces are built
    local_obstructions(Code.from_compact(4, "124 134 234"))
    assert calls["contractibility"] == 4 and calls["faces"] >= 1


# ---------------------------------------------------------------------------
# covering sets and non-local obstructions


def test_covering_sets_against_oracle():
    c = Code.from_compact(4, "23 14 123")
    got = covering_sets(c)
    assert set(got) == brute_covering_sets(c.words, 4)
    # canonical order: sizes never decrease
    sizes = [s.bit_count() for s in got]
    assert sizes == sorted(sizes)


def test_covering_sets_empty_word():
    assert covering_sets(Code.from_compact(3, "0 1 12")) == []


def test_covering_sets_match_levelwise_oracle():
    # the pruned search against the enumeration of every minimal covering set
    rng = random.Random(20261019)
    for _ in range(600):
        n = rng.randint(1, 9)
        words = {rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 8))}
        if rng.random() < 0.05:
            words.add(0)
        c = Code(n, frozenset(words))
        for limit in (1, 3, 10, 65, None):
            assert covering_sets(c, limit) == levelwise_covering_sets(c, limit)


def test_disjoint_pairs_closed_form():
    # 30 disjoint pairs {2i-1, 2i}: the covering sets of size 30 are the 2^30
    # transversals, the first 65 of them vary only the last 7 pairs, and each
    # restricts the code to 30 isolated points
    k = 30
    c = Code(2 * k, frozenset(0b11 << 2 * i for i in range(k)))
    first = [
        sum(1 << (2 * i + (j >> (k - 1 - i) & 1)) for i in range(k)) for j in range(65)
    ]
    assert covering_sets(c, 65) == first
    assert nonlocal_obstructions(c) == ()


def test_nonlocal_obstruction_fixture():
    got = nonlocal_obstructions(Code.from_compact(4, "23 14 123"))
    pairs = {(o.sigma1, o.sigma2) for o in got}
    key = (word_mask([1, 2]), word_mask([3, 4]))
    assert key in pairs
    obs = next(o for o in got if (o.sigma1, o.sigma2) == key)
    assert obs.profile1.is_zero()
    assert obs.profile2.reduced == (1,)


def test_nonlocal_empty_word_trivial():
    assert nonlocal_obstructions(Code.from_compact(3, "0 12 13")) == ()


def test_nonlocal_six_neuron_code_empty():
    c = Code.from_compact(6, "123 126 156 456 345 234 12 16 56 45 34 23 0")
    assert nonlocal_obstructions(c, max_pair_budget=10_000) == ()


def test_nonlocal_budget_limits_work():
    c = Code.from_compact(4, "23 14 123")
    assert nonlocal_obstructions(c, max_pair_budget=0) == ()


@st.composite
def codes_without_empty_word(draw, max_n=4, max_words=7):
    n = draw(st.integers(2, max_n))
    words = draw(st.sets(st.integers(1, (1 << n) - 1), min_size=1, max_size=max_words))
    return Code(n, frozenset(words))


@settings(max_examples=15, deadline=None)
@given(codes_without_empty_word())
def test_nonlocal_matches_sorted_pairs_oracle(c):
    # every budget from 1 to one past the number of covering-set pairs
    count = len(covering_sets(c))
    for budget in range(1, count * (count - 1) // 2 + 2):
        assert nonlocal_obstructions(c, budget) == sorted_pairs_nonlocal_obstructions(
            c, budget
        )


def test_nonlocal_matches_sorted_pairs_oracle_beyond_the_cap():
    # some of these codes have more covering sets than the scan keeps
    rng = random.Random(7)
    for n in (6, 7, 8):
        for _ in range(3):
            c = Code(n, _random_code(rng, n).words - {0})
            for budget in (1, 50, 2000, 3000):
                assert nonlocal_obstructions(c, budget) == (
                    sorted_pairs_nonlocal_obstructions(c, budget)
                )


def test_nonlocal_scan_profiles_each_touched_candidate_once(monkeypatch):
    calls = []

    def counted(k):
        calls.append(k)
        return reduced_betti(k)

    monkeypatch.setattr(topology, "reduced_betti", counted)
    heavy = [[1, 3], [3, 10], [1, 3, 6], [2, 4, 10], [3, 6, 7], [5, 8, 10], [2, 4, 5, 9],
             [1, 2, 3, 6, 7], [2, 3, 4, 5, 10], [2, 4, 8, 9, 10], [1, 3, 4, 7, 9, 10],
             [1, 2, 4, 5, 8, 9, 10], [2, 3, 4, 5, 8, 9, 10]]
    for c in (Code.from_compact(4, "23 14 123"), Code(10, frozenset(map(word_mask, heavy)))):
        for budget in (0, 1, 7, 300, 2000):
            # the candidates that the first `budget` pairs, in the oracle's order, touch
            cap = max(64, int((2 * budget) ** 0.5) + 2)
            cands = levelwise_covering_sets(c, limit=cap)
            pairs = sorted(
                ((a, b) for i, a in enumerate(cands) for b in cands[i + 1:]),
                key=lambda p: (p[0].bit_count() + p[1].bit_count(), word_key(p[0]), word_key(p[1])),
            )
            touched = {s for pair in pairs[:budget] for s in pair}
            calls.clear()
            nonlocal_obstructions(c, budget)
            assert len(calls) == len(touched)  # so none at budget 0
            assert Counter(calls) == Counter(simplicial_complex(restrict(c, s)) for s in touched)
