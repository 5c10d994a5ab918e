"""Seeded inputs, output checks and verdict facts for the three workloads.

Every workload is a list of blocks.  A block has a fixed composition (the
same number of operations of each category and size class); the seed only
draws the concrete inputs inside each class.  Timed windows end on a block
boundary, so two seeds run the same mix and differ only in the drawn inputs.

The checks here re-derive what they compare against with their own bit and
integer arithmetic; they import nothing from the program under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from pathlib import Path

# ---------------------------------------------------------------------------
# codeword helpers (independent of convexcodes.codes)


def _key(w: int):
    return (w.bit_count(), [i + 1 for i in range(w.bit_length()) if w >> i & 1])


def _label(w: int, n: int) -> str:
    if w == 0:
        return "0"
    idx = [str(i + 1) for i in range(w.bit_length()) if w >> i & 1]
    return "".join(idx) if n <= 9 else ",".join(idx)


def _parse_label(tok: str, n: int) -> int:
    if tok == "0":
        return 0
    parts = tok.split(",") if n > 9 else list(tok)
    w = 0
    for p in parts:
        w |= 1 << (int(p) - 1)
    return w


def _labels(words, n: int) -> list[str]:
    return [_label(w, n) for w in sorted(words, key=_key)]


def _maximal(words) -> set[int]:
    ws = set(words)
    return {w for w in ws if not any(v != w and v & w == w for v in ws)}


def _submasks(m: int):
    s = m
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & m


def _faces(facets) -> set[int]:
    out: set[int] = set()
    for f in facets:
        out.update(_submasks(f))
    return out


def _completion(words) -> set[int]:
    done = set(words)
    frontier = list(done)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(done):
                c = a & b
                if c not in done:
                    done.add(c)
                    fresh.append(c)
        frontier = fresh
    return done


def _link_facets(words, sigma: int) -> set[int]:
    return _maximal({w & ~sigma for w in words if w & sigma == sigma})


def _code_text(n: int, words) -> str:
    lines = [f"n={n}"]
    for w in sorted(words, key=_key):
        lines.append(" ".join(str(i + 1) for i in range(n) if w >> i & 1) or "0")
    return "\n".join(lines) + "\n"


def _random_word(rng: random.Random, n: int, lo: int, hi: int) -> int:
    w = 0
    for i in rng.sample(range(n), rng.randint(lo, hi)):
        w |= 1 << i
    return w


def _antichain(rng: random.Random, n: int, k: int, lo: int, hi: int) -> set[int]:
    """k random words, none inside another; starts over when a draw blocks it."""
    words: set[int] = set()
    misses = 0
    while len(words) < k:
        w = _random_word(rng, n, lo, hi)
        if not any(w & v in (w, v) for v in words):
            words.add(w)
        else:
            misses += 1
            if misses > 50:
                words, misses = set(), 0
    return words


# ---------------------------------------------------------------------------
# operations


@dataclass
class Op:
    """One CLI invocation plus what its output check needs."""

    category: str
    argv: list[str]
    check: object  # callable(rc, stdout, op) -> (ok, reason, facts)
    meta: dict = field(default_factory=dict)
    out_dir: Path | None = None


class InputFiles:
    """Numbered input files under one directory, plus a bundle directory."""

    def __init__(self, root: Path):
        self.root = root
        self.out_dir = root / "bundle"
        self.count = 0
        root.mkdir(parents=True)

    def new(self, suffix: str) -> Path:
        self.count += 1
        return self.root / f"in{self.count}.{suffix}"


def _fail(reason: str):
    return False, reason, None


# ---------------------------------------------------------------------------
# analyze-mix

# Largest face count allowed in a non-cone link of a random analyze code.
# The collapse search costs about F^3 on F faces; links above this bound
# make single codes take seconds, and a run of ~1000 codes then swings by
# more than the bounds allow from one seed to the next.
LINK_FACE_LIMIT = 256
ANALYZE_PER_N = 20  # random codes per neuron count n = 6..11 in one block
# Of those, this many are max intersection-complete: two maximal words plus
# their intersection, so `analyze` also takes the realization path (~14%).
ANALYZE_MIC_PER_N = 3
WIDE_NS = (12, 13, 14)  # one wide-facet code {[n], {1}} per n in one block


def _largest_noncone_link(words) -> int:
    worst = 0
    for sigma in _faces(_maximal(words)):
        if sigma == 0 or sigma in words:
            continue
        lk = _link_facets(words, sigma)
        common = -1
        for f in lk:
            common &= f
        if lk and common == 0:
            worst = max(worst, len(_faces(lk)))
    return worst


def _random_analyze_code(rng: random.Random, n: int, mic: bool) -> set[int]:
    while True:
        k = 2 if mic else rng.randint(2, 6)
        maxima = _antichain(rng, n, k, (n + 1) // 2, min(9, n))
        words = _completion(maxima) if mic else set(maxima)
        for m in maxima:
            for _ in range(rng.randint(0, 3)):
                words.add(m & rng.getrandbits(n))
        if not (mic and 0 in words):
            words.discard(0)
            if rng.random() < 0.5:
                words.add(0)
        if _largest_noncone_link(words) <= LINK_FACE_LIMIT:
            return words


def check_analyze(rc: int, stdout: str, op: Op):
    if rc != 0:
        return _fail(f"exit {rc}, expected 0")
    try:
        rep = json.loads(stdout)
    except ValueError:
        return _fail("stdout is not JSON")
    n, words = op.meta["n"], op.meta["words"]
    if rep.get("n") != n or rep.get("words") != _labels(words, n):
        return _fail("reported words differ from the input code")
    maxima = _maximal(words)
    violators = _faces(maxima) - words
    local = []
    for o in rep["local_obstructions"]:
        sigma = _parse_label(o["sigma"], n)
        if sigma not in violators:
            return _fail(f"obstruction at non-violator {o['sigma']}")
        if sorted(o["link_facets"]) != sorted(_labels(_link_facets(words, sigma), n)):
            return _fail(f"wrong link facets at {o['sigma']}")
        local.append(o["sigma"])
    for s in rep["undecided_violators"]:
        if _parse_label(s, n) not in violators:
            return _fail(f"undecided non-violator {s}")
    ic = _completion(words) == words
    mic = _completion(maxima) <= words
    if rep["intersection_complete"] != ic or rep["max_intersection_complete"] != mic:
        return _fail("completeness flags disagree with the independent check")
    r = rep["realization"]
    if r["applicable"] != mic:
        return _fail("realization applicability disagrees with completeness")
    dim = None
    if mic:
        dim = max(3, len(maxima)) - 1
        if r["dimension"] != dim or r["valid"] is not True:
            return _fail("realization dimension or validity wrong")
    facts = {
        "local": local,
        "undecided": rep["undecided_violators"],
        "nonlocal": [[o["sigma1"], o["sigma2"]] for o in rep["nonlocal_obstructions"]],
        "ic": ic,
        "mic": mic,
        "applicable": r["applicable"],
        "dimension": dim,
    }
    return True, "", facts


def analyze_block(rng: random.Random, files: InputFiles) -> list[Op]:
    specs = [("wide", n) for n in WIDE_NS]
    for n in range(6, 12):
        specs += [("mic", n)] * ANALYZE_MIC_PER_N
        specs += [("random", n)] * (ANALYZE_PER_N - ANALYZE_MIC_PER_N)
    rng.shuffle(specs)
    ops = []
    for category, n in specs:
        if category == "wide":
            words = {(1 << n) - 1, 1}
        else:
            words = _random_analyze_code(rng, n, category == "mic")
        path = files.new("code")
        path.write_text(_code_text(n, words))
        ops.append(
            Op(
                f"{category}-n{n}",
                ["analyze", str(path), "--json"],
                check_analyze,
                {"n": n, "words": words},
            )
        )
    return ops


# ---------------------------------------------------------------------------
# cover-exact

# Region shapes of one block: (dimension, half-spaces per region, count).
# Every region is cut from integer half-spaces around an integer interior
# point, so it is full-dimensional.  Each cover's planes are in general
# position, so a shape fixes the number of cells and the cost of an
# operation varies little within a shape.
COVER_SHAPES = (
    (2, (3, 3), 4),
    (2, (2, 3), 4),
    (2, (2, 2, 2), 1),
    (3, (2, 2), 3),
)
BALL_COVERS = 2  # ball-constrained covers per block, run through --sample
SAMPLE_POINTS = (1500, 2500)


def _rank(rows) -> int:
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def _general_position(planes, d: int) -> bool:
    """Any k <= d normals independent; no d+1 planes through one point."""
    for k in range(2, d + 2):
        for sub in combinations(planes, k):
            if k <= d and _rank([a for a, _ in sub]) < k:
                return False
            if k == d + 1 and _rank([(*a, b) for a, b in sub]) < k:
                return False
    return True


def _region(rng: random.Random, d: int, count: int):
    center = tuple(rng.randint(-2, 2) for _ in range(d))
    hs = []
    while len(hs) < count:
        a = tuple(rng.randint(-3, 3) for _ in range(d))
        if any(a):
            hs.append((a, sum(x * c for x, c in zip(a, center)) + rng.randint(1, 4)))
    return center, hs


def _random_cover(rng: random.Random, d: int, sizes):
    while True:
        regions = [_region(rng, d, s) for s in sizes]
        if _general_position([h for _, hs in regions for h in hs], d):
            return regions


def _cover_text(d: int, regions, rel: str, ambient: str, ball_radius=None) -> str:
    lines = [f"d={d} n={len(regions)} ambient={ambient}"]
    for center, hs in regions:
        lines.append("SET")
        for a, b in hs:
            lines.append("H " + " ".join(map(str, a)) + f" : {b} {rel}")
        if ball_radius is not None:
            lines.append("BALL " + " ".join(map(str, center)) + f" {ball_radius} {rel}")
    return "\n".join(lines) + "\n"


def _word_at(regions, x, strict: bool) -> int:
    w = 0
    for i, (_, hs) in enumerate(regions):
        vals = [sum(ai * xi for ai, xi in zip(a, x)) - b for a, b in hs]
        if all(v < 0 if strict else v <= 0 for v in vals):
            w |= 1 << i
    return w


def check_cover_exact(rc: int, stdout: str, op: Op):
    if rc != 0:
        return _fail(f"exit {rc}, expected 0")
    n, regions, strict = op.meta["n"], op.meta["regions"], op.meta["strict"]
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith("code: "):
        return _fail("no code line")
    code = lines[0][len("code: "):].split()
    cells = {}
    flags = {}
    for ln in lines[1:]:
        head, _, value = ln.partition(": ")
        if head.startswith("cells "):
            cells[head[len("cells "):]] = int(value)
        elif head in ("cond_i", "cond_ii", "code-equal-closure", "code-equal-interior"):
            flags[head] = value
    if sorted(cells) != sorted(code) or any(c < 1 for c in cells.values()):
        return _fail("code and reported cells disagree")
    words = {_parse_label(t, n) for t in code}
    for center, _ in regions:
        if _word_at(regions, center, strict) not in words:
            return _fail("word at a region's interior point is missing")
    want = {"cond_i", "cond_ii", "code-equal-closure" if strict else "code-equal-interior"}
    if set(flags) != want or any(v not in ("true", "false") for v in flags.values()):
        return _fail("non-degeneracy or invariance flags missing")
    return True, "", {"code": code, **flags}


def check_cover_sample(rc: int, stdout: str, op: Op):
    if rc != 0:
        return _fail(f"exit {rc}, expected 0")
    lines = stdout.splitlines()
    budget, seed = op.meta["budget"], op.meta["seed"]
    if lines[:2] != ["sampled code estimate", f"budget={budget} seed={seed}"]:
        return _fail("sample header wrong")
    counts = {}
    for ln in lines[3:]:
        word, _, count = ln.partition(": ")
        counts[word] = int(count)
    # ambient is the whole space, so every sampled point is counted
    if sum(counts.values()) != budget or any(c < 1 for c in counts.values()):
        return _fail("sample counts do not add up to the budget")
    return True, "", {"sampled": counts}


def cover_block(rng: random.Random, files: InputFiles) -> list[Op]:
    specs = [(d, sizes) for d, sizes, count in COVER_SHAPES for _ in range(count)]
    specs += [("ball", None)] * BALL_COVERS
    rng.shuffle(specs)
    flip = rng.randint(0, 1)
    ops = []
    for j, (d, sizes) in enumerate(specs):
        path = files.new("cover")
        strict = (j + flip) % 2 == 0
        rel = "lt" if strict else "le"
        if d == "ball":
            regions = _random_cover(rng, 2, (2, 2))
            path.write_text(_cover_text(2, regions, rel, "whole", ball_radius=rng.randint(2, 4)))
            budget, seed = rng.randint(*SAMPLE_POINTS), rng.randrange(1 << 16)
            argv = ["cover-code", str(path), "--sample", str(budget), "--seed", str(seed)]
            ops.append(Op("ball-sample", argv, check_cover_sample, {"budget": budget, "seed": seed}))
            continue
        regions = _random_cover(rng, d, sizes)
        path.write_text(_cover_text(d, regions, rel, rng.choice(("whole", "union"))))
        argv = ["cover-code", str(path), "--nondegen", "--invariance"]
        meta = {"n": len(sizes), "regions": regions, "strict": strict}
        ops.append(Op(f"d{d}-{sum(sizes)}planes", argv, check_cover_exact, meta))
    return ops


# ---------------------------------------------------------------------------
# realize-bundle

# Composition of one realize block, 80 operations.  Its latencies sort into
# tiers (times on a shared 2-vCPU host), in ranks: 1-24 cheap (random codes,
# potential covers and the k=8 complement, < 50 ms); 25-57 disjoint pairs
# with k=12 and random codes with k=3 or 12 (about 60 ms); 58-67 pairs with
# k=13, the k=9 complement and a random k=4 code (130-300 ms); 68-77 pairs
# with k=14 and the k=8 complement through potential (about 300 ms); 78-80
# pairs with k=15 and 16 and the k=10 complement (0.6-1.4 s).  The 50th and
# 90th percentiles (ranks 40.5 and 72.9) fall in the middle of a tier of
# many like operations, not on the edge between two tiers, so they move
# neither with the random codes a seed draws nor with which of two unlike
# operations happened to run faster.
RANDOM_KS = tuple(range(3, 13)) + (5, 6)  # random codes through the chamber method
RANDOM_POTENTIAL_KS = tuple(range(3, 13))  # random codes through --method potential
COMPLEMENT_KS = (8, 9, 10)
COMPLEMENT_POTENTIAL_KS = (8,) * 5
# Disjoint pairs: k -> how many per block.  The seed draws which neurons
# pair up, so the copies are distinct inputs of the same size.
PAIRS_KS = {12: 31, 13: 8, 14: 5, 15: 1, 16: 1}
PAIRS_POTENTIAL = 4  # pairs codes through --method potential, k drawn from PAIRS_KS


def _random_mic_code(rng: random.Random, k: int):
    n = rng.randint(6, 14)
    maxima = _antichain(rng, n, k, 2, max(3, n // 2 + 1))
    words = _completion(maxima)
    for m in maxima:
        for _ in range(rng.randint(0, 2)):
            words.add(m & rng.getrandbits(n))
    if rng.random() < 0.5:
        words.add(0)
    return n, words


def _read_abstract_cover(text: str) -> set[int]:
    """Replay an abstract_cover.txt bundle: the set of words of its points."""
    lines = text.splitlines()
    points = lines[1][len("points: "):].split()
    amb = lines[2][len("ambient: "):]
    ambient = set(points) if amb == "all" else set(amb.split())
    word = dict.fromkeys(points, 0)
    for ln in lines[3:]:
        i, _, members = ln.partition(": ")
        bit = 1 << (int(i) - 1)
        for p in members.split():
            word[p] |= bit
    return {word[p] for p in points if p in ambient}


def check_realize(rc: int, stdout: str, op: Op):
    if rc != 0:
        return _fail(f"exit {rc}, expected 0")
    fields = dict(ln.split(": ", 1) for ln in stdout.splitlines() if ": " in ln and not ln.startswith("check "))
    n, words, potential = op.meta["n"], op.meta["words"], op.meta["potential"]
    if fields.get("valid") != "true":
        return _fail("certificate not valid")
    nonempty = {w for w in words if w}
    target = _completion(nonempty) if potential else words
    want = " ".join(_labels(target, n))
    if fields.get("target") != want or fields.get("achieved") != want:
        return _fail("target or achieved code wrong")
    dim = len(nonempty) if potential else max(3, len(_maximal(words))) - 1
    if fields.get("dimension") != str(dim):
        return _fail(f"dimension {fields.get('dimension')}, expected {dim}")
    out = op.out_dir
    if (out / "certificate.txt").read_text() != stdout:
        return _fail("certificate.txt differs from stdout")
    if potential:
        bundle = (out / "potential_cover.txt").read_text()
        if bundle.count("\nwitness ") != len(target):
            return _fail("potential bundle lacks witnesses")
    else:
        if not (out / "cover.txt").is_file():
            return _fail("bundle lacks cover.txt")
        if _read_abstract_cover((out / "abstract_cover.txt").read_text()) != target:
            return _fail("abstract cover does not replay to the target")
    facts = {k: fields.get(k) for k in ("target", "achieved", "method", "dimension", "valid")}
    return True, "", facts


def _pairs_code(rng: random.Random, k: int):
    """k disjoint pairs of neurons out of 2k, drawn by the seed, and the empty word."""
    order = rng.sample(range(2 * k), 2 * k)
    return 2 * k, {1 << order[2 * a] | 1 << order[2 * a + 1] for a in range(k)} | {0}


def realize_block(rng: random.Random, files: InputFiles) -> list[Op]:
    specs = [("random", k, False) for k in RANDOM_KS]
    specs += [("random", k, True) for k in RANDOM_POTENTIAL_KS]
    specs += [("complement", k, False) for k in COMPLEMENT_KS]
    specs += [("complement", k, True) for k in COMPLEMENT_POTENTIAL_KS]
    specs += [("pairs", k, False) for k, count in PAIRS_KS.items() for _ in range(count)]
    specs += [("pairs", rng.choice(list(PAIRS_KS)), True) for _ in range(PAIRS_POTENTIAL)]
    rng.shuffle(specs)
    ops = []
    for family, k, potential in specs:
        if family == "random":
            n, words = _random_mic_code(rng, k)
        elif family == "complement":
            n, words = k, set(range((1 << k) - 1))
        else:
            n, words = _pairs_code(rng, k)
        path = files.new("code")
        path.write_text(_code_text(n, words))
        argv = ["realize", str(path), "--out", str(files.out_dir)]
        if potential:
            argv += ["--method", "potential"]
        category = f"{family}-k{k}" + ("-potential" if potential else "")
        meta = {"n": n, "words": words, "potential": potential}
        ops.append(Op(category, argv, check_realize, meta, files.out_dir))
    return ops


WORKLOADS = {
    "analyze-mix": analyze_block,
    "cover-exact": cover_block,
    "realize-bundle": realize_block,
}
