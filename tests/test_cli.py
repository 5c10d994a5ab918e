import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from convexcodes import Code, classify_completeness, code_from_text, code_to_text, cover_to_text
from convexcodes.cli import _json_text, analysis_report, main
from convexcodes.verification import (
    closed_line_split_cover,
    five_neuron_closed_cover,
    five_neuron_code,
    six_neuron_code,
)
from oracles import complement_code, sunflower_code


def write_code(tmp_path, name, n, compact):
    path = tmp_path / name
    path.write_text(code_to_text(Code.from_compact(n, compact)))
    return str(path)


def test_analyze_local_obstruction(tmp_path, capsys):
    path = write_code(tmp_path, "c.code", 3, "0 1 2 13 23")
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "local-obstruction: sigma=3" in out
    assert "max-intersection-complete:" in out


def test_analyze_five_neuron_code(tmp_path, capsys):
    path = tmp_path / "five.code"
    path.write_text(code_to_text(five_neuron_code()))
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "local-obstruction" not in out
    assert "max-intersection-complete: false" in out


def test_analyze_completeness_flags_match_classification():
    rng = random.Random(4417)
    for _ in range(60):
        n = rng.randint(1, 5)
        words = frozenset(rng.randrange(1 << n) for _ in range(rng.randint(1, 10)))
        code = Code(n, words)
        report = analysis_report(code, nonlocal_budget=200)
        want = classify_completeness(code)
        assert report["intersection_complete"] == want.intersection_complete
        assert report["max_intersection_complete"] == want.max_intersection_complete


def test_analyze_json_mirrors_text(tmp_path, capsys):
    path = write_code(tmp_path, "c.code", 4, "23 14 123")
    assert main(["analyze", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert main(["analyze", path]) == 0
    text = capsys.readouterr().out
    assert data["words"] == ["14", "23", "123"]
    # every scalar field of the JSON report appears in the text report
    assert f"n: {data['n']}" in text
    assert "words: " + " ".join(data["words"]) in text
    assert "delta-facets: " + " ".join(data["delta_facets"]) in text
    assert "violators: " + " ".join(data["violators"]) in text
    for o in data["local_obstructions"]:
        assert f"local-obstruction: sigma={o['sigma']}" in text
    for o in data["nonlocal_obstructions"]:
        assert f"sigma1={o['sigma1']} sigma2={o['sigma2']}" in text
    assert f"intersection-complete: {str(data['intersection_complete']).lower()}" in text
    assert (
        f"max-intersection-complete: {str(data['max_intersection_complete']).lower()}"
        in text
    )
    assert data["realization"]["applicable"] is False
    assert f"missing={data['realization']['missing']}" in text


def test_analyze_empty_file_exit_2(tmp_path, capsys):
    path = tmp_path / "empty.code"
    path.write_text("")
    assert main(["analyze", str(path)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_code_without_codewords_exit_2(tmp_path, capsys):
    path = tmp_path / "bare.code"
    path.write_text("n=3\n# nothing fires\n")
    for argv in (["analyze"], ["realize"], ["realize", "--method", "potential"]):
        assert main([argv[0], str(path), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.err == "parse error: line 2: code has no codewords\n"
        assert captured.out == ""


CODE_LINES = st.one_of(
    st.just(""),
    st.just("# comment"),
    st.just("0"),
    st.lists(st.integers(-1, 7), min_size=1, max_size=4).map(
        lambda idx: " ".join(map(str, idx))  # indices out of range included
    ),
    st.sampled_from(["x", "1 two", "n=4", "1.5", "0 0"]),
)


@settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.integers(1, 6), st.lists(CODE_LINES, max_size=6))
def test_analyze_any_code_text_exits_0_or_2(tmp_path, capsys, n, body):
    path = tmp_path / "fuzz.code"
    path.write_text("\n".join([f"n={n}", *body]) + "\n")
    status = main(["analyze", str(path)])
    err = capsys.readouterr().err
    assert status in (0, 2)
    assert (status == 2) == err.startswith("parse error: ")


def test_analyze_bad_line_reports_line_number(tmp_path, capsys):
    path = tmp_path / "bad.code"
    path.write_text("n=3\n1 2\nwhat\n")
    assert main(["analyze", str(path)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_realize_bundle(tmp_path, capsys):
    path = write_code(tmp_path, "c.code", 4, "123 134 13 1")
    out_dir = tmp_path / "bundle"
    assert main(["realize", path, "--method", "chamber", "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "dimension: 2" in out
    assert "valid: true" in out
    assert (out_dir / "certificate.txt").exists()
    assert (out_dir / "abstract_cover.txt").exists()
    assert (out_dir / "cover.txt").exists()
    with pytest.raises(SystemExit):  # chamber is the default; auto is gone
        main(["realize", path, "--method", "auto"])
    capsys.readouterr()


def test_realize_not_applicable_exit_1(tmp_path, capsys):
    path = tmp_path / "six.code"
    path.write_text(code_to_text(six_neuron_code()))
    assert main(["realize", str(path), "--method", "chamber"]) == 1
    out = capsys.readouterr().out
    assert "1 = 123" in out and "156" in out


def test_realize_union_ambient_with_empty_word_exits_1(tmp_path, capsys):
    path = write_code(tmp_path, "c.code", 3, "0 1")
    out_dir = tmp_path / "o"
    assert main(["realize", path, "--ambient", "union", "--out", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not realizable under the requested ambient" in captured.err
    assert not out_dir.exists()


def test_realize_potential(tmp_path, capsys):
    path = write_code(tmp_path, "c.code", 2, "1 2 12")
    out_dir = tmp_path / "pot"
    assert main(["realize", path, "--method", "potential", "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "achieved: 0 1 2 12" in out
    assert (out_dir / "potential_cover.txt").exists()


def test_cover_code_five_neuron(tmp_path, capsys):
    path = tmp_path / "five.cover"
    path.write_text(cover_to_text(five_neuron_closed_cover()))
    assert main(["cover-code", str(path)]) == 0
    out = capsys.readouterr().out
    want = " ".join(
        __import__("convexcodes").word_label(w, 5)
        for w in five_neuron_code().sorted_words()
    )
    assert f"code: {want}" in out


def test_cover_code_nondegen_flags(tmp_path, capsys):
    path = tmp_path / "split.cover"
    path.write_text(cover_to_text(closed_line_split_cover()))
    assert main(["cover-code", str(path), "--nondegen", "--invariance"]) == 0
    out = capsys.readouterr().out
    assert "cond_i: false" in out
    assert "cond_ii: true" in out
    assert "code-equal-interior: false" in out


def test_cover_code_ball_needs_sampling(tmp_path, capsys):
    text = "d=1 n=1 ambient=whole\nSET\nBALL 0/1 1/1 lt\n"
    path = tmp_path / "ball.cover"
    path.write_text(text)
    assert main(["cover-code", str(path)]) == 3
    assert "--sample" in capsys.readouterr().err
    assert main(["cover-code", str(path), "--sample", "500", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "sampled code estimate" in out


def test_cover_code_over_hyperplane_cap_exit_3(tmp_path, capsys, monkeypatch):
    import convexcodes.geometry as geometry

    # two regions of 8 distinct half-planes each: 16 planes, cap 14
    text = "d=2 n=2 ambient=whole\n" + "".join(
        "SET\n" + "".join(f"H 1 {s * (8 * r + j)} : {j + 1} lt\n" for j in range(8))
        for r, s in ((0, 1), (1, -1))
    )
    path = tmp_path / "wide.cover"
    path.write_text(text)

    def no_feasibility(*args, **kwargs):
        raise AssertionError("the cover must be refused before any enumeration")

    monkeypatch.setattr(geometry, "feasible", no_feasibility)
    assert main(["cover-code", str(path), "--nondegen", "--invariance"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert err == ["over budget: 16 hyperplanes exceed the cap of 14"]


def test_cover_code_over_dimension_cap_exit_3(tmp_path, capsys):
    # non-degeneracy and invariance read the cells, so a cover above the
    # feasibility kernel's dimension cap is checked in full
    path = tmp_path / "tall.cover"
    path.write_text("d=9 n=1 ambient=whole\nSET\nH 1 0 0 0 0 0 0 0 0 : 1 lt\n")
    assert main(["cover-code", str(path), "--nondegen", "--invariance"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "code: 0 1",
        "cells 0: 2",
        "cells 1: 1",
        "cond_i: true",
        "cond_ii: true",
        "code-equal-closure: true",
    ]
    assert captured.err == ""
    # a non-empty region without interior is still refused with exit 3
    path.write_text(
        "d=9 n=1 ambient=whole\nSET\n"
        "H 1 0 0 0 0 0 0 0 0 : 1 le\nH -1 0 0 0 0 0 0 0 0 : -1 le\n"
    )
    assert main(["cover-code", str(path), "--invariance"]) == 3
    captured = capsys.readouterr()
    assert captured.out.startswith("code: 0 1\n")
    assert captured.err.strip().splitlines() == [
        "cannot check invariance: region 0 is not full-dimensional; "
        "strict system infeasible (2 constraints)"
    ]


def test_cover_code_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.cover"
    path.write_text("d=1 n=1 ambient=whole\nH 1/1 : 1/1 le\n")
    assert main(["cover-code", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_verify_paper_list(capsys):
    assert main(["verify-paper", "--list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "simplicial-complex-of-fig-cover",
        "maximal-words-five-neuron",
        "link-at-12",
        "covering-subsets",
        "finite-realization-roundtrip",
        "closed-split-line",
        "nested-intervals",
        "chamber-two-maximal-words",
        "chamber-six-neuron",
        "potential-cover-three-words",
        "realize-max-complete",
        "criterion-1-local-fixtures",
        "criterion-2-nonlocal-fixture",
        "criterion-3-counterexample-codes",
        "criterion-4-chamber-roundtrip",
        "criterion-5-realize-roundtrip",
        "criterion-6-monotonicity",
        "criterion-7-potential-cover",
        "criterion-8-geometry-unit-bar",
        "criterion-9-homology-unit-bar",
    ]


def test_verify_paper_flags_corrupted_row(monkeypatch, capsys):
    import convexcodes.cli as cli_mod
    from convexcodes.verification import FixtureResult

    fake = [
        FixtureResult("healthy-row", True, "fine"),
        FixtureResult("corrupted-row", False, "broken on purpose"),
    ]
    monkeypatch.setattr(cli_mod, "run_suite", lambda: fake)
    assert main(["verify-paper"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  corrupted-row" in out


def test_exit_codes_are_stable(tmp_path, capsys):
    # obstructions are report content, not process failures
    path = write_code(tmp_path, "c.code", 4, "23 14 123")
    assert main(["analyze", path]) == 0
    capsys.readouterr()


def test_analyze_over_face_budget_exit_3(tmp_path, capsys, monkeypatch):
    import convexcodes.topology as topology
    from convexcodes.codes import FaceBudgetError

    def over_budget(*args, **kwargs):
        raise FaceBudgetError("complex exceeds face budget of 1048576")

    monkeypatch.setattr(topology, "reduced_betti", over_budget)
    path = write_code(tmp_path, "c.code", 4, "23 14 123")
    assert main(["analyze", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "over budget: complex exceeds face budget of 1048576"
    ]


@pytest.mark.parametrize("budget", ["-1", "x"])
def test_analyze_rejects_a_bad_nonlocal_budget(tmp_path, capsys, budget):
    path = write_code(tmp_path, "c.code", 4, "23 14 123")
    with pytest.raises(SystemExit) as exc:
        main(["analyze", path, "--nonlocal-budget", budget])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--nonlocal-budget: expected a non-negative integer" in captured.err
    assert main(["analyze", path, "--nonlocal-budget", "0"]) == 0


def test_analyze_thirty_disjoint_pairs(tmp_path, capsys):
    # 2^30 minimal covering sets, of which the scan reads the first 65
    path = tmp_path / "pairs.code"
    path.write_text(
        "n=60\n" + "".join(f"{2 * i - 1} {2 * i}\n" for i in range(1, 31))
    )
    assert main(["analyze", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["nonlocal_obstructions"] == []
    assert report["local_obstructions"] == []
    assert report["max_intersection_complete"] is False


def test_realize_builds_one_chamber_cover(tmp_path, capsys, monkeypatch):
    import convexcodes.realization as realization

    calls = {"max_int_realization": 0, "abstract_code": 0}

    def counted(name):
        original = getattr(realization, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(realization, name, counted(name))
    # the completion of its maximal words: no monotone extension
    path = write_code(tmp_path, "c.code", 4, "123 134 13")
    out_dir = tmp_path / "bundle"
    assert main(["realize", path, "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "method: chamber\n" in out and "check geometric-agreement: pass" in out
    assert (out_dir / "cover.txt").exists()
    assert calls["max_int_realization"] == 1
    assert calls["abstract_code"] <= 2  # the chamber code and the replay


def test_realize_checks_geometry_of_five_pairs(tmp_path, capsys):
    # five disjoint pairs: k = 5 maximal words, once above the old cap of 4
    path = tmp_path / "pairs.code"
    path.write_text("n=10\n0\n1 2\n3 4\n5 6\n7 8\n9 10\n")
    assert main(["realize", str(path), "--out", str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert (
        "check geometric-agreement: pass 10 regions cut by sides of the 5 simplex facets\n"
        in out
    )
    assert "skipped" not in out and "valid: true\n" in out
    assert (tmp_path / "b" / "certificate.txt").read_text() == out


@pytest.mark.parametrize(
    "text, argv, line",
    [
        ("d=2 n=0 ambient=whole\n", [], 1),
        ("d=0 n=65 ambient=whole\n" + "SET\n" * 65, [], 1),
        ("d=-1 n=1 ambient=whole\nSET\n", [], 1),
        ("d=2 n=1 ambient=whole\nSET\nH 0 0 : 1 lt\n", [], 3),
        ("d=2 n=1 ambient=whole\nSET\nBALL 0 0 0 lt\n", ["--sample", "10"], 3),
        ("d=1 n=1 ambient=whole\nSET\nH 1 : 1 lt\n", ["--sample", "-5"], None),
    ],
)
def test_cover_code_malformed_input_exits_2(tmp_path, capsys, text, argv, line):
    path = tmp_path / "bad.cover"
    path.write_text(text)
    try:
        status = main(["cover-code", str(path), *argv])
    except SystemExit as exc:  # argparse refuses the option
        status = exc.code
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    if line is None:
        assert "--sample: expected a non-negative integer" in captured.err
    else:
        assert captured.err.startswith(f"parse error: line {line}: ")


@st.composite
def cover_texts(draw):
    """A small valid cover file, then a few lines replaced, dropped or added."""
    d = draw(st.integers(0, 2))
    regions = draw(st.integers(1, 3))
    coords = st.lists(st.integers(-1, 1), min_size=d, max_size=d).map(
        lambda c: " ".join(map(str, c))
    )
    rel = st.sampled_from(["lt", "le"])
    mutant = st.one_of(
        st.builds("H {} : {} {}".format, coords, st.integers(-1, 1), rel),
        st.builds("BALL {} {} {}".format, coords, st.integers(-1, 1), rel),
        st.builds("d={} n={} ambient=union".format, st.integers(-1, 2), st.integers(0, 3)),
        st.sampled_from(["SET", "AMBIENT", "H 1 : 1/0 le", "H x : 1 lt", "BALL", "Q"]),
    )
    lines = [f"d={d} n={regions} ambient={draw(st.sampled_from(['whole', 'union']))}"]
    for _ in range(regions):
        lines.append("SET")
        for _ in range(draw(st.integers(0, 2)) if d else 0):
            normal = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
            if not any(normal):
                normal[0] = 1
            offset = draw(st.integers(-2, 2))
            lines.append(f"H {' '.join(map(str, normal))} : {offset} {draw(rel)}")
    for _ in range(draw(st.integers(1, 2))):
        at = draw(st.integers(0, len(lines)))
        action = draw(st.sampled_from(["replace", "drop", "add"]))
        if action == "add" or at == len(lines):
            lines.insert(at, draw(mutant))
        elif action == "drop":
            del lines[at]
        else:
            lines[at] = draw(mutant)
    return "\n".join(lines) + "\n"


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    cover_texts(),
    st.sampled_from([[], ["--nondegen", "--invariance"], ["--sample", "20"]]),
)
def test_cover_code_any_mutated_cover_exits_0_2_or_3(tmp_path, capsys, text, argv):
    path = tmp_path / "fuzz.cover"
    path.write_text(text)
    status = main(["cover-code", str(path), *argv])
    err = capsys.readouterr().err
    assert status in (0, 2, 3)
    assert (status == 2) == err.startswith("parse error: ")


def test_realize_potential_on_a_forty_neuron_word(tmp_path, capsys):
    # the words 1..40, 1 and 2 3: the face walk would visit 2^40 faces
    path = tmp_path / "wide.code"
    path.write_text("n=40\n" + " ".join(map(str, range(1, 41))) + "\n1\n2 3\n")
    t0 = time.perf_counter()
    assert main(["realize", str(path), "--method", "potential"]) == 0
    assert time.perf_counter() - t0 < 1.0
    lines = capsys.readouterr().out.splitlines()
    completion = "0 1 2,3 " + ",".join(map(str, range(1, 41)))
    assert f"target: {completion}" in lines
    assert f"achieved: {completion}" in lines
    assert "valid: true" in lines


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cover-code", "F", "--sample", "100", "--nondegen"], "need the exact code"),
        (["cover-code", "F", "--sample", "100", "--invariance"], "need the exact code"),
        (["realize", "F", "--method", "potential", "--ambient", "whole"], "ambient union only"),
    ],
)
def test_options_that_would_be_ignored_exit_2(tmp_path, capsys, argv, message):
    # refused before the input is read: no check may be skipped as if it passed
    argv = [str(tmp_path / "missing") if a == "F" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ") and message in captured.err


def test_analyze_sunflower_code(tmp_path, capsys):
    # the not-applicable witness is all ten petals, the only family that
    # meets in the missing word 11
    path = tmp_path / "sunflower.code"
    path.write_text(code_to_text(sunflower_code()))
    t0 = time.perf_counter()
    assert main(["analyze", str(path), "--json"]) == 0
    assert time.perf_counter() - t0 < 2
    report = json.loads(capsys.readouterr().out)
    assert report["realization"]["missing"] == "11"
    assert report["realization"]["witness"].count("∩") == 9


def test_realize_reports_the_missing_empty_word_of_60_maxima(tmp_path, capsys):
    path = tmp_path / "complement60.code"
    path.write_text(code_to_text(complement_code(60)))
    t0 = time.perf_counter()
    assert main(["realize", str(path)]) == 1
    assert time.perf_counter() - t0 < 1
    out = capsys.readouterr().out
    assert out.startswith("not applicable: 0 = ") and out.count("∩") == 59


JSON_TEXT = st.text(st.characters() | st.sampled_from('"\\\x00\x1f\x7f\n∩é'), max_size=8)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(2**100), 2**100) | JSON_TEXT,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(JSON_TEXT, kids, max_size=4),
    max_leaves=12,
)


@settings(max_examples=50, deadline=None)
@given(JSON_VALUES)
def test_json_text_matches_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2)


def test_json_text_renders_a_shared_part_at_every_depth():
    shared = {"a": [1, {}, []], "b": "x ∩ y"}
    value = {"s": shared, "t": [shared, shared], "u": {"v": [shared, []]}}
    assert _json_text(value) == json.dumps(value, indent=2)


def test_json_text_matches_json_dumps_on_golden_reports():
    for path in sorted((Path(__file__).parent / "golden").rglob("input.code")):
        report = analysis_report(code_from_text(path.read_text()), nonlocal_budget=2000)
        assert _json_text(report) == json.dumps(report, indent=2), path


@pytest.mark.parametrize("value", [1.5, [0.0], (1,), {1}, {1: 2}, {"a": {(): 1}}])
def test_json_text_refuses_other_types(value):
    with pytest.raises(TypeError):
        _json_text(value)
