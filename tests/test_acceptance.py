"""Acceptance gate: one test per criterion, each printing its verdict line.

The criterion runners live in convexcodes.verification so the CLI's
verify-paper subcommand executes the same checks; the assertions here add
independently frozen expectations on top.
"""

from convexcodes import (
    Code,
    enumerate_cells,
    local_obstructions,
    nonlocal_obstructions,
    reduced_betti,
    sample_code,
    word_mask,
)
from convexcodes.verification import (
    concurrent_lines,
    criterion_1_local_fixtures,
    criterion_2_nonlocal_fixture,
    criterion_3_counterexample_codes,
    criterion_4_chamber_roundtrip,
    criterion_5_realize_roundtrip,
    criterion_6_monotonicity,
    criterion_7_potential_cover,
    criterion_8_geometry_unit_bar,
    criterion_9_homology_unit_bar,
    two_interval_cover,
)
from oracles import grid_sign_vectors


def _report(number, name, ok, detail):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_1_local_obstruction_fixtures():
    ok, detail = criterion_1_local_fixtures()
    # independent probe: the three expected violators, frozen
    scan = local_obstructions(Code.from_compact(3, "0 1 2 13 23"))
    assert [o.sigma for o in scan.found] == [word_mask([3])]
    scan = local_obstructions(Code.from_compact(4, "0 1 2 3 4 123 124"))
    assert [o.sigma for o in scan.found] == [word_mask([1, 2])]
    scan = local_obstructions(Code.from_compact(4, "23 14 123"))
    assert word_mask([1]) in [o.sigma for o in scan.found]
    _report(1, "local-obstruction-fixtures", ok, detail)


def test_criterion_2_nonlocal_fixture():
    ok, detail = criterion_2_nonlocal_fixture()
    got = nonlocal_obstructions(Code.from_compact(4, "23 14 123"))
    pair = next(
        o
        for o in got
        if (o.sigma1, o.sigma2) == (word_mask([1, 2]), word_mask([3, 4]))
    )
    assert pair.profile1.reduced == () and pair.profile1.minus_one == 0
    assert pair.profile2.reduced == (1,)
    _report(2, "nonlocal-fixture", ok, detail)


def test_criterion_3_counterexample_codes():
    ok, detail = criterion_3_counterexample_codes()
    _report(3, "counterexample-codes", ok, detail)


def test_criterion_4_chamber_roundtrip():
    ok, detail = criterion_4_chamber_roundtrip()
    _report(4, "chamber-roundtrip", ok, detail)


def test_criterion_5_realize_end_to_end():
    ok, detail = criterion_5_realize_roundtrip()
    _report(5, "realize-end-to-end", ok, detail)


def test_criterion_6_monotonicity():
    ok, detail = criterion_6_monotonicity()
    _report(6, "monotonicity", ok, detail)


def test_criterion_7_potential_cover():
    ok, detail = criterion_7_potential_cover()
    _report(7, "potential-cover", ok, detail)


def test_criterion_8_geometry_unit_bar():
    ok, detail = criterion_8_geometry_unit_bar()
    # frozen via the grid oracle: exactly these 13 sign vectors
    cells = enumerate_cells(concurrent_lines(), 2)
    assert {c.signs for c in cells.cells} == grid_sign_vectors(concurrent_lines())
    # frozen sampling counts for seed 7, budget 10^5
    rep = sample_code(two_interval_cover(), budget=100_000, seed=7, box=((-1,), (4,)))
    assert {w: rep.counts[w] for w in rep.code.sorted_words()} == {
        0b00: 40041,
        0b01: 19912,
        0b10: 19966,
        0b11: 20081,
    }
    _report(8, "geometry-unit-bar", ok, detail)


def test_criterion_9_homology_unit_bar():
    ok, detail = criterion_9_homology_unit_bar()
    from convexcodes import SimplicialComplex

    hollow = SimplicialComplex(
        3, frozenset({word_mask([1, 2]), word_mask([1, 3]), word_mask([2, 3])})
    )
    assert reduced_betti(hollow).reduced == (0, 1)
    _report(9, "homology-unit-bar", ok, detail)
