"""Command-line front end.

Subcommands: analyze, realize, cover-code, verify-paper.  Exit codes are a
stable contract: 0 success, 1 domain verdict (realization not applicable or
a failing verification row), 2 parse error or conflicting options, 3
capability error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from json.encoder import encode_basestring_ascii
from math import gcd
from pathlib import Path

from .codes import (
    Code,
    CodeParseError,
    FaceBudgetError,
    classify_completeness,
    code_from_text,
    simplicial_complex,
    simplicial_violators,
    word_key,
    word_label,
)
from .geometry import (
    BallConstraintError,
    CoverParseError,
    HyperplaneBudgetError,
    MixedRelationsError,
    NonFullDimensionalRegionError,
    arrangement_cells,
    check_nondegeneracy,
    code_of_cover,
    cover_from_text,
    cover_to_text,
    sample_code,
    verify_closure_interior_invariance,
)
from .realization import (
    NotApplicable,
    MonotoneExtendError,
    RealizationCertificate,
    potential_cover,
    realize,
    replay_certificate,
)
from .topology import local_obstructions, nonlocal_obstructions
from .verification import all_rows, run_suite

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_PARSE = 2
EXIT_CAPABILITY = 3


def _load_code(path: str) -> Code:
    text = Path(path).read_text()
    code = code_from_text(text)
    if not code.words:
        # an empty Code is a library value, but no subcommand has words to read
        raise CodeParseError(max(1, len(text.splitlines())), "code has no codewords")
    return code


def _profile_json(profile) -> dict:
    return {"minus_one": profile.minus_one, "reduced": list(profile.reduced)}


def _profile_text(profile: dict) -> str:
    """Render a profile from its JSON form, as `_profile_json` writes it."""
    if profile["minus_one"]:
        return f"(-1:{profile['minus_one']})"
    return "(" + ",".join(map(str, profile["reduced"])) + ")"


def _json_text(value, pad: str = "", memo: dict | None = None) -> str:
    """The bytes of `json.dumps(value, indent=2)` for str, int, bool, None,
    lists and dicts with str keys; any other type raises TypeError.

    A container's text is memoized on (id, pad), so a part that the value
    shares at one depth is rendered once.  That is sound only while every
    container stays alive and unchanged for the whole call.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if value is None:
        return "null"
    if not isinstance(value, (list, dict)):
        raise TypeError(f"{type(value).__name__} is not rendered as JSON")
    if not value:
        return "[]" if isinstance(value, list) else "{}"
    memo = {} if memo is None else memo
    key = (id(value), pad)
    if key not in memo:
        inner = pad + "  "
        if isinstance(value, list):
            items = [_json_text(v, inner, memo) for v in value]
        elif all(isinstance(k, str) for k in value):
            items = [f"{encode_basestring_ascii(k)}: {_json_text(v, inner, memo)}"
                     for k, v in value.items()]
        else:
            raise TypeError("JSON object keys must be str")
        opening, closing = "[]" if isinstance(value, list) else "{}"
        memo[key] = f"{opening}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{closing}"
    return memo[key]


def analysis_report(code: Code, nonlocal_budget: int) -> dict:
    """All analysis facts in one dictionary; text output renders it 1:1.

    Each candidate set is labelled once.  Each distinct Betti profile is one
    dict, shared by its obstructions, so the report is read-only.
    """
    lab = functools.cache(lambda w: word_label(w, code.n))
    prof = functools.cache(_profile_json)
    complex_ = simplicial_complex(code)
    violators = sorted(simplicial_violators(code), key=word_key)
    scan = local_obstructions(code)
    nonlocal_ = nonlocal_obstructions(code, max_pair_budget=nonlocal_budget)
    completeness = classify_completeness(code)
    ra = realize(code)
    if isinstance(ra, NotApplicable):
        realization = {
            "applicable": False,
            "missing": lab(ra.missing),
            "witness": ra.describe(code.n),
        }
    else:
        realization = {
            "applicable": True,
            "method": ra.method,
            "dimension": ra.dimension,
            "ambient": ra.ambient,
            "valid": ra.valid,
        }
    return {
        "n": code.n,
        "words": [lab(w) for w in code.sorted_words()],
        "delta_facets": [lab(f) for f in sorted(complex_.facets, key=word_key)],
        # distinct, and as many as the faces: a cache would only cost
        "violators": [word_label(v, code.n) for v in violators],
        "local_obstructions": [
            {
                "sigma": lab(o.sigma),
                "degree": o.verdict.degree,
                "betti": o.verdict.betti,
                "link_facets": [lab(f) for f in sorted(o.link_facets, key=word_key)],
            }
            for o in scan.found
        ],
        "undecided_violators": [lab(s) for s in scan.undecided],
        "nonlocal_obstructions": [
            {
                "sigma1": lab(o.sigma1),
                "sigma2": lab(o.sigma2),
                "profile1": prof(o.profile1),
                "profile2": prof(o.profile2),
            }
            for o in nonlocal_
        ],
        "intersection_complete": completeness.intersection_complete,
        "max_intersection_complete": completeness.max_intersection_complete,
        "realization": realization,
    }


def render_analysis(report: dict) -> str:
    lines = [
        f"n: {report['n']}",
        "words: " + " ".join(report["words"]),
        "delta-facets: " + " ".join(report["delta_facets"]),
        "violators: " + (" ".join(report["violators"]) or "-"),
    ]
    for o in report["local_obstructions"]:
        lines.append(
            f"local-obstruction: sigma={o['sigma']} degree={o['degree']} "
            f"betti={o['betti']} link-facets=" + ",".join(o["link_facets"])
        )
    lines.append(
        "undecided-violators: " + (" ".join(report["undecided_violators"]) or "-")
    )
    for o in report["nonlocal_obstructions"]:
        lines.append(
            f"nonlocal-obstruction: sigma1={o['sigma1']} sigma2={o['sigma2']} "
            f"profile1={_profile_text(o['profile1'])} "
            f"profile2={_profile_text(o['profile2'])}"
        )
    lines.append(f"intersection-complete: {str(report['intersection_complete']).lower()}")
    lines.append(
        f"max-intersection-complete: {str(report['max_intersection_complete']).lower()}"
    )
    r = report["realization"]
    if r["applicable"]:
        lines.append(
            f"realization: method={r['method']} dimension={r['dimension']} "
            f"ambient={r['ambient']} valid={str(r['valid']).lower()}"
        )
    else:
        lines.append(f"realization: not-applicable missing={r['missing']} ({r['witness']})")
    return "\n".join(lines) + "\n"


def cmd_analyze(args) -> int:
    try:
        code = _load_code(args.code_file)
    except CodeParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        report = analysis_report(code, args.nonlocal_budget)
    except FaceBudgetError as exc:
        print(f"over budget: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    if args.json:
        print(_json_text(report))
    else:
        print(render_analysis(report), end="")
    return EXIT_OK


def _certificate_text(cert: RealizationCertificate) -> str:
    n = cert.target.n
    lines = [
        f"method: {cert.method}",
        f"dimension: {cert.dimension}",
        f"ambient: {cert.ambient}",
        "target: " + " ".join(word_label(w, n) for w in cert.target.sorted_words()),
        "achieved: " + " ".join(word_label(w, n) for w in cert.achieved.sorted_words()),
        f"valid: {str(cert.valid).lower()}",
    ]
    for c in cert.checks:
        lines.append(f"check {c.name}: {c.status} {c.detail}".rstrip())
    return "\n".join(lines) + "\n"


def _abstract_cover_text(cover) -> str:
    """Points are named p0, p1, ... in order; every set lists them in that order."""
    listed = frozenset().union(cover.ambient or (), *cover.membership.values())
    index = {p: i for i, p in enumerate(cover.points) if p in listed}

    def names(points) -> str:
        return " ".join(f"p{i}" for i in sorted(index[p] for p in points))

    lines = [
        f"n={cover.n}",
        "points: " + " ".join(f"p{i}" for i in range(len(cover.points))),
        "ambient: " + ("all" if cover.ambient is None else names(cover.ambient)),
    ]
    for i in range(1, cover.n + 1):
        lines.append(f"{i}: " + names(cover.membership.get(i, ())))
    return "\n".join(lines) + "\n"


def _potential_text(realz, n: int) -> str:
    lines = [f"dimension: {realz.dimension}"]
    for w, pos in sorted(realz.basis_index.items(), key=lambda kv: word_key(kv[0])):
        lines.append(f"vertex e{pos}: word {word_label(w, n)}")
    for i in range(1, n + 1):
        verts = realz.vertex_sets.get(i, ())
        lines.append(f"set {i}: " + " ".join(f"e{p}" for p in verts))
    for w in sorted(realz.witnesses, key=word_key):
        # a witness is sparse: write its reduced fractions into a row of zeros
        den, numerators = realz.witnesses[w]
        row = ["0/1"] * realz.dimension
        for j, a in numerators.items():
            g = gcd(a, den)
            row[j] = f"{a // g}/{den // g}"
        lines.append(f"witness {word_label(w, n)}: " + " ".join(row))
    return "\n".join(lines) + "\n"


def cmd_realize(args) -> int:
    try:
        code = _load_code(args.code_file)
    except CodeParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    potential_realz = None
    if args.method == "potential":
        potential_realz, cert = potential_cover(code)
    else:
        try:
            result = realize(code, ambient=args.ambient)
        except MonotoneExtendError as exc:
            print(f"not realizable under the requested ambient: {exc}", file=sys.stderr)
            return EXIT_VERDICT
        if isinstance(result, NotApplicable):
            print(f"not applicable: {result.describe(code.n)}")
            return EXIT_VERDICT
        cert = result

    ok = cert.valid and (cert.cover is None or replay_certificate(cert))
    certificate = _certificate_text(cert)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "certificate.txt").write_text(certificate)
        if cert.cover is not None:
            (out / "abstract_cover.txt").write_text(_abstract_cover_text(cert.cover))
        if cert.geometric is not None:
            (out / "cover.txt").write_text(cover_to_text(cert.geometric))
        if potential_realz is not None:
            (out / "potential_cover.txt").write_text(
                _potential_text(potential_realz, code.n)
            )
    print(certificate, end="")
    return EXIT_OK if ok else EXIT_VERDICT


def cmd_cover_code(args) -> int:
    try:
        cover = cover_from_text(Path(args.cover_file).read_text())
    except CoverParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    if args.sample is not None:
        try:
            report = sample_code(cover, args.sample, args.seed)
        except ValueError as exc:
            print(f"cannot sample: {exc}", file=sys.stderr)
            return EXIT_CAPABILITY
        print("sampled code estimate")
        print(report.render(), end="")
        return EXIT_OK

    try:
        cells = arrangement_cells(cover)
    except BallConstraintError:
        print(
            "cover carries ball constraints; exact mode unavailable, rerun with --sample N",
            file=sys.stderr,
        )
        return EXIT_CAPABILITY
    except HyperplaneBudgetError as exc:
        print(f"over budget: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    # the code, non-degeneracy and invariance all read this one arrangement
    code, atlas = code_of_cover(cover, cells)
    print("code: " + " ".join(word_label(w, code.n) for w in code.sorted_words()))
    for w in code.sorted_words():
        print(f"cells {word_label(w, code.n)}: {len(atlas[w])}")
    if args.nondegen:
        try:
            rep = check_nondegeneracy(cover, cells)
        except NonFullDimensionalRegionError as exc:
            print(f"cannot check non-degeneracy: {exc}", file=sys.stderr)
            return EXIT_CAPABILITY
        print(f"cond_i: {str(rep.cond_i).lower()}")
        print(f"cond_ii: {str(rep.cond_ii).lower()}")
        for off in rep.offenders:
            print(
                f"offender: condition={off.condition} sigma="
                f"{word_label(off.sigma, code.n)} cell-signs={list(off.cell.signs)}"
            )
    if args.invariance:
        try:
            inv = verify_closure_interior_invariance(cover, cells)
        except (MixedRelationsError, NonFullDimensionalRegionError) as exc:
            print(f"cannot check invariance: {exc}", file=sys.stderr)
            return EXIT_CAPABILITY
        if inv.code_equal_cl is not None:
            print(f"code-equal-closure: {str(inv.code_equal_cl).lower()}")
        if inv.code_equal_int is not None:
            print(f"code-equal-interior: {str(inv.code_equal_int).lower()}")
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    if args.list:
        for name, _ in all_rows():
            print(name)
        return EXIT_OK
    results = run_suite()
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}}  {r.detail}")
        if not r.passed:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} rows passed")
    return EXIT_OK if failed == 0 else EXIT_VERDICT


def _budget(text: str) -> int:
    """A non-negative integer option; anything else is a parse error (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="convexcodes",
        description="Convexity analysis and verified realizations of neural codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="obstructions and completeness of a code file")
    p.add_argument("code_file")
    p.add_argument("--nonlocal-budget", type=_budget, default=2000)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_analyze)

    realize_parser = p = sub.add_parser("realize", help="construct a verified convex realization")
    p.add_argument("code_file")
    p.add_argument("--method", choices=["chamber", "potential"], default="chamber")
    p.add_argument("--ambient", choices=["whole", "union"], default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_realize)

    cover_parser = p = sub.add_parser("cover-code", help="exact or sampled code of a cover file")
    p.add_argument("cover_file")
    p.add_argument("--nondegen", action="store_true")
    p.add_argument("--invariance", action="store_true")
    p.add_argument("--sample", type=_budget, default=None, metavar="N")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_cover_code)

    p = sub.add_parser("verify-paper", help="run the bundled verification suite")
    p.add_argument("--list", action="store_true")
    p.set_defaults(fn=cmd_verify_paper)

    args = parser.parse_args(argv)
    # options that would be ignored are refused, so no skipped check looks passed
    if args.command == "realize" and args.method == "potential" and args.ambient == "whole":
        realize_parser.error("--method potential builds a cover of ambient union only")
    if args.command == "cover-code" and args.sample is not None:
        if args.nondegen or args.invariance:
            cover_parser.error("--nondegen and --invariance need the exact code, not --sample")
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
