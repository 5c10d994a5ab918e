"""Brute-force oracles, deliberately independent of the library internals.

Everything here enumerates from first principles (all subsets, all
subfamilies, grid scans) so the fast implementations have something honest
to be checked against.  The later sections keep the first, slower versions
of fast paths as references that the fast ones must match exactly.
"""

import random
from fractions import Fraction
from itertools import combinations

from convexcodes import (
    BettiProfile,
    Code,
    Contractible,
    LocalObstruction,
    NonlocalObstruction,
    NotApplicable,
    NotContractible,
    Unknown,
    link,
    reduced_betti,
    restrict,
    simplicial_complex,
)
from convexcodes.topology import LocalScan, _rank_gf2, cone_apex


def submasks(mask: int):
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


def brute_delta_faces(words) -> set[int]:
    """Downward closure of a set of words."""
    out = set()
    for w in words:
        out.update(submasks(w))
    return out


def brute_violators(words) -> set[int]:
    return brute_delta_faces(words) - set(words)


def brute_link(words, sigma: int, n: int) -> set[int]:
    """Direct enumeration of {tau : tau | sigma in C, tau & sigma == 0}."""
    out = set()
    for tau in range(1 << n):
        if tau & sigma == 0 and (tau | sigma) in words:
            out.add(tau)
    return out


def brute_completion(words) -> set[int]:
    """Intersections of every non-empty subfamily."""
    ws = sorted(words)
    out = set()
    for r in range(1, len(ws) + 1):
        for combo in combinations(ws, r):
            inter = combo[0]
            for w in combo[1:]:
                inter &= w
            out.add(inter)
    return out


def brute_covering_sets(words, n: int) -> set[int]:
    out = set()
    for sigma in range(1, 1 << n):
        if all(w & sigma for w in words):
            out.add(sigma)
    return out


def grid_sign_vectors(planes, lo=-2, hi=2, steps=16) -> set[tuple]:
    """Sign vectors realized by a rational grid; confirms cell enumerations
    on fixtures whose cells are all fat enough to meet the grid."""
    out = set()
    for i in range(steps + 1):
        for j in range(steps + 1):
            x = Fraction(lo) + Fraction(i * (hi - lo), steps)
            y = Fraction(lo) + Fraction(j * (hi - lo), steps)
            sv = []
            for (a, b), c in planes:
                v = a * x + b * y - c
                sv.append((v > 0) - (v < 0))
            out.add(tuple(sv))
    return out


def interval_cover_code(intervals, closed=False) -> set[int]:
    """Code of a one-dimensional interval cover over the whole line,
    computed by scanning breakpoints and midpoints."""
    points = set()
    for lo, hi in intervals:
        points.update([Fraction(lo), Fraction(hi)])
    pts = sorted(points)
    samples = [pts[0] - 1, pts[-1] + 1] + pts
    for a, b in zip(pts, pts[1:]):
        samples.append((a + b) / 2)
    out = set()
    for x in samples:
        w = 0
        for i, (lo, hi) in enumerate(intervals):
            inside = lo <= x <= hi if closed else lo < x < hi
            if inside:
                w |= 1 << i
        out.add(w)
    return out


# ---------------------------------------------------------------------------
# Fourier-Motzkin over Fraction, and the three-sign cell enumeration built on
# it: the reference the integer feasibility kernel and the one-probe
# enumerator are checked against.
#
# A constraint is (coeffs, bound, strict) meaning coeffs . x < bound
# (strict) or <= bound.  Equalities are split into two weak constraints.


def _fm_normalize(con):
    coeffs, bound, strict = con
    lead = next((c for c in coeffs if c != 0), None)
    if lead is None:
        return con
    scale = abs(lead)
    return (tuple(c / scale for c in coeffs), bound / scale, strict)


def _fm_prune(cons):
    """Group parallel constraints, keep the binding one; detect 0 < c failures."""
    best = {}
    for coeffs, bound, strict in cons:
        if not any(coeffs):
            if bound < 0 or (strict and bound == 0):
                return None
            continue
        cur = best.get(coeffs)
        if cur is None or bound < cur[0] or (bound == cur[0] and strict and not cur[1]):
            best[coeffs] = (bound, strict)
    return [(c, b, s) for c, (b, s) in best.items()]


def _fm_eliminate(cons, j):
    """Project out variable j (1-based); input constraints use vars 1..j."""
    zero, lows, ups = [], [], []
    for con in cons:
        aj = con[0][j - 1]
        if aj == 0:
            zero.append(con)
        elif aj > 0:
            ups.append(con)
        else:
            lows.append(con)
    out = list(zero)
    for la, lb, ls in lows:
        p = -la[j - 1]
        for ua, ub, us in ups:
            q = ua[j - 1]
            coeffs = tuple(q * x + p * y for x, y in zip(la, ua))
            out.append((coeffs, q * lb + p * ub, ls or us))
    return [_fm_normalize(c) for c in out]


def fraction_feasible(constraints, dimension=None):
    """Witness of a mixed '<', '<=', '=' system, or None; Fraction throughout."""
    cons = []
    d = dimension
    for normal, offset, rel in constraints:
        a = tuple(Fraction(x) for x in normal)
        b = Fraction(offset)
        if d is None:
            d = len(a)
        if rel == "<":
            cons.append((a, b, True))
        elif rel == "<=":
            cons.append((a, b, False))
        else:
            cons.append((a, b, False))
            cons.append((tuple(-x for x in a), -b, False))
    if d is None:
        return ()
    per_var = [None] * (d + 1)
    per_var[d] = _fm_prune([_fm_normalize(c) for c in cons])
    if per_var[d] is None:
        return None
    for j in range(d, 0, -1):
        nxt = _fm_prune(_fm_eliminate(per_var[j], j))
        if nxt is None:
            return None
        per_var[j - 1] = nxt
    witness = []
    for j in range(1, d + 1):
        lo = hi = None
        for coeffs, bound, strict in per_var[j]:
            aj = coeffs[j - 1]
            if aj == 0:
                continue
            partial = sum((coeffs[k] * witness[k] for k in range(j - 1)), Fraction(0))
            val = (bound - partial) / aj
            if aj > 0:
                if hi is None or val < hi[0] or (val == hi[0] and strict):
                    hi = (val, strict)
            elif lo is None or val > lo[0] or (val == lo[0] and strict):
                lo = (val, strict)
        if lo is None and hi is None:
            witness.append(Fraction(0))
        elif lo is None:
            witness.append(hi[0] - 1)
        elif hi is None:
            witness.append(lo[0] + 1)
        elif lo[0] < hi[0]:
            witness.append((lo[0] + hi[0]) / 2)
        else:
            assert lo[0] == hi[0] and not lo[1] and not hi[1]
            witness.append(lo[0])
    return tuple(witness)


def plane_sign(plane, x) -> int:
    normal, offset = plane
    v = sum((Fraction(a) * t for a, t in zip(normal, x)), Fraction(0)) - Fraction(offset)
    return (v > 0) - (v < 0)


def three_sign_cells(planes, dimension):
    """Sign vectors of an arrangement, in the order of the plane-by-plane
    refinement that tries signs -1, 0, 1 on every partial cell, each with a
    witness from `fraction_feasible`."""
    planes = list(planes)
    partial = [((), tuple(Fraction(0) for _ in range(dimension)))]
    for k, plane in enumerate(planes):
        grown = []
        for signs, w in partial:
            sw = plane_sign(plane, w)
            for s in (-1, 0, 1):
                if s == sw:
                    grown.append((signs + (s,), w))
                    continue
                cons = []
                for (v, b), sk in zip(planes[:k] + [plane], signs + (s,)):
                    if sk == 0:
                        cons.append((v, b, "="))
                    elif sk < 0:
                        cons.append((v, b, "<"))
                    else:
                        cons.append((tuple(-Fraction(x) for x in v), -Fraction(b), "<"))
                wit = fraction_feasible(cons, dimension)
                if wit is not None:
                    grown.append((signs + (s,), wit))
        partial = grown
    return partial


def fraction_sample_words(cover, lo, hi, budget, seed):
    """Per sampled point, its codeword or None outside the ambient, with the
    points drawn as in `sample_code` and classified over Fraction."""
    def inside(region, x):
        for h in region.halfspaces:
            v = sum((a * t for a, t in zip(h.normal, x)), Fraction(0))
            if not (v < h.offset if h.strict else v <= h.offset):
                return False
        ball = region.ball
        if ball is not None:
            d2 = sum(((t - c) ** 2 for t, c in zip(x, ball.center)), Fraction(0))
            r2 = ball.radius**2
            if not (d2 < r2 if ball.strict else d2 <= r2):
                return False
        return True

    rng = random.Random(seed)
    out = []
    for _ in range(budget):
        x = [l + (h - l) * Fraction(rng.getrandbits(48), 1 << 48) for l, h in zip(lo, hi)]
        word = sum(1 << i for i, r in enumerate(cover.regions) if inside(r, x))
        if isinstance(cover.ambient, str):
            keep = cover.ambient == "whole" or word != 0
        else:
            keep = inside(cover.ambient, x)
        out.append(word if keep else None)
    return out


# ---------------------------------------------------------------------------
# The first, quadratic word algebra and the per-point readers of abstract
# covers: the references the output-sensitive versions are checked against.


def pairwise_maximal_codewords(words) -> frozenset[int]:
    """Words contained in no other word, by comparing every pair."""
    return frozenset(w for w in words if not any(w != v and w & v == w for v in words))


def fixpoint_completion(words) -> set[int]:
    """Close a set of words under pairwise intersection until nothing is new."""
    out = set(words)
    frontier = list(out)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(out):
                c = a & b
                if c not in out:
                    out.add(c)
                    fresh.append(c)
        frontier = fresh
    return out


def incremental_completion(words) -> set[int]:
    """The completion built one word at a time: the completion of the words
    seen so far plus w is the old completion, w itself and w meeting each
    old intersection.  The empty word enters whenever some intersection
    comes out empty."""
    out: set[int] = set()
    for w in words:
        out |= {w & c for c in out}
        out.add(w)
    return out


def pointwise_abstract_words(cover) -> set[int]:
    """The word of every ambient point, read off by asking each neuron."""
    out = set()
    for p in cover.points:
        if cover.ambient is not None and p not in cover.ambient:
            continue
        w = 0
        for i in range(1, cover.n + 1):
            if p in cover.membership.get(i, ()):
                w |= 1 << (i - 1)
        out.add(w)
    return out


def scan_abstract_cover_text(cover) -> str:
    """The abstract_cover.txt bundle, written by scanning all points per set."""
    names = {p: f"p{i}" for i, p in enumerate(cover.points)}
    lines = [f"n={cover.n}", "points: " + " ".join(names[p] for p in cover.points)]
    if cover.ambient is None:
        lines.append("ambient: all")
    else:
        lines.append(
            "ambient: " + " ".join(names[p] for p in cover.points if p in cover.ambient)
        )
    for i in range(1, cover.n + 1):
        members = cover.membership.get(i, frozenset())
        lines.append(f"{i}: " + " ".join(names[p] for p in cover.points if p in members))
    return "\n".join(lines) + "\n"


def chamber_membership_by_filter(rho: int, k: int) -> frozenset[int]:
    """The non-empty subsets of [k] inside rho, found by testing every subset."""
    return frozenset(p for p in range(1, 1 << k) if p & rho == p)


# ---------------------------------------------------------------------------
# Non-degeneracy and closure/interior invariance the first way: cells are
# placed in regions by their witness points, cell sets are closed and
# opened by testing every pair of cells with `is_face`, lower-dimensional
# regions are found with two feasibility calls each, and the closure or
# interior of a cover is built as a transformed cover.  The reference the
# single cell classification is checked against.


def is_face(c, t) -> bool:
    """cell(c) lies in the closure of cell(t)."""
    return all(b == a if b == 0 else a in (0, b) for a, b in zip(c, t))


def closure_cells(members, cells) -> set[int]:
    """Indices of cells contained in the closure of the given cell set."""
    return {
        i for i, c in enumerate(cells) if any(is_face(c.signs, cells[j].signs) for j in members)
    }


def interior_cells(members, cells) -> set[int]:
    """Indices of member cells whose every coface is a member: a point of a
    cell c has arbitrarily close points exactly in the cells t with c a face
    of t."""
    return {
        i
        for i in members
        if all(j in members for j, t in enumerate(cells) if is_face(cells[i].signs, t.signs))
    }


def boundary_cells(members, cells) -> set[int]:
    return closure_cells(members, cells) - interior_cells(members, cells)


class LowerDimensional(Exception):
    """Regions whose weak system is feasible and strict system is not."""

    def __init__(self, regions):
        super().__init__(regions)
        self.regions = regions


def lower_dimensional_regions(cover) -> list[int]:
    out = []
    for i, r in enumerate(cover.regions):
        weak = [(h.normal, h.offset, "<=") for h in r.halfspaces]
        strict = [(h.normal, h.offset, "<") for h in r.halfspaces]
        if fraction_feasible(weak, cover.dimension) is None:
            continue
        if fraction_feasible(strict, cover.dimension) is None:
            out.append(i)
    return out


def transform_cover(cover, closure: bool):
    """The cover with every relation weak (closure) or strict (interior).

    Refused when a region is not full-dimensional, unless it is empty and
    stays empty after the flip.
    """
    offenders = []
    for i, r in enumerate(cover.regions):
        strict = [(h.normal, h.offset, "<") for h in r.halfspaces]
        if fraction_feasible(strict, cover.dimension) is not None:
            continue
        as_given = [(h.normal, h.offset, "<" if h.strict else "<=") for h in r.halfspaces]
        weak = [(h.normal, h.offset, "<=") for h in r.halfspaces]
        flipped = weak if closure else strict
        if (
            fraction_feasible(as_given, cover.dimension) is None
            and fraction_feasible(flipped, cover.dimension) is None
        ):
            continue
        offenders.append(i)
    if offenders:
        raise LowerDimensional(offenders)
    regions = tuple(
        type(r)(
            r.dimension,
            tuple(type(h)(h.normal, h.offset, not closure) for h in r.halfspaces),
        )
        for r in cover.regions
    )
    return type(cover)(cover.dimension, regions, cover.ambient)


def witness_words(cover, cells) -> list[int]:
    """Per cell, the regions containing its witness point."""
    return [
        sum(1 << i for i, r in enumerate(cover.regions) if r.contains(c.witness))
        for c in cells
    ]


def witness_code(cover, cells) -> frozenset[int]:
    """The words of the cells whose witness lies in the ambient."""
    out = set()
    for c, w in zip(cells, witness_words(cover, cells)):
        if isinstance(cover.ambient, str):
            keep = cover.ambient == "whole" or w != 0
        else:
            keep = cover.ambient.contains(c.witness)
        if keep:
            out.add(w)
    return frozenset(out)


def reference_nondegeneracy(cover, cells):
    """(cond_i, cond_ii, offenders as (condition, sigma, signs)); raises
    LowerDimensional first."""
    lower = lower_dimensional_regions(cover)
    if lower:
        raise LowerDimensional(lower)
    words = witness_words(cover, cells)
    offenders = []
    for sigma in sorted(set(words), key=tuple_word_key):
        members = [ix for ix, w in enumerate(words) if w == sigma]
        fulls = [ix for ix in members if cells[ix].full_dim]
        for ix in members:
            if not any(is_face(cells[ix].signs, cells[j].signs) for j in fulls):
                offenders.append(("i", sigma, cells[ix].signs))
    in_region = [{ix for ix, w in enumerate(words) if w >> i & 1} for i in range(cover.n)]
    bd_region = [boundary_cells(s, cells) for s in in_region]
    candidates = set()
    for ix in range(len(cells)):
        touched = sum(1 << i for i in range(cover.n) if ix in bd_region[i])
        candidates.update(s for s in submasks(touched) if s)
    for sigma in sorted(candidates, key=tuple_word_key):
        idxs = [i for i in range(cover.n) if sigma >> i & 1]
        common = set.intersection(*(bd_region[i] for i in idxs))
        inter = set.intersection(*(in_region[i] for i in idxs))
        bd_inter = boundary_cells(inter, cells)
        for ix in sorted(common - bd_inter):
            offenders.append(("ii", sigma, cells[ix].signs))
    cond_i = not any(o[0] == "i" for o in offenders)
    cond_ii = not any(o[0] == "ii" for o in offenders)
    return cond_i, cond_ii, offenders


def reference_invariance(cover, cells):
    """(code_equal_cl, code_equal_int) through the transformed cover; raises
    LowerDimensional for a refused transform."""
    strict = any(h.strict for r in cover.regions for h in r.halfspaces)
    weak = any(not h.strict for r in cover.regions for h in r.halfspaces)
    assert not (strict and weak), "mixed covers have no invariance verdict"
    closure = not weak
    same = witness_code(cover, cells) == witness_code(transform_cover(cover, closure), cells)
    return (same, None) if closure else (None, same)


# ---------------------------------------------------------------------------
# The chamber cover's half-space regions checked the first way: the cover's
# code from its own arrangement, then every cell of the simplex arrangement
# (about 3^k of them) tested against every region.  The reference the
# facet-side certificate is checked against.


def simplex_planes(k: int):
    """Facet planes of conv{e_1, ..., e_{k-1}, 0}: x_a = 0 for a < k, sum x = 1."""
    d = k - 1
    planes = [
        (tuple(Fraction(int(j == a)) for j in range(d)), Fraction(0)) for a in range(d)
    ]
    planes.append((tuple(Fraction(1) for _ in range(d)), Fraction(1)))
    return planes


def chamber_of(x, k: int) -> int:
    """{a : lambda_a(x) >= 0} as a mask over [k]: the closed facet sides holding x."""
    lam = list(x) + [1 - sum(x, Fraction(0))]
    assert len(lam) == k
    return sum(1 << a for a, t in enumerate(lam) if t >= 0)


def _intersect_words(words, chamber: int) -> int:
    out = None
    for a, w in enumerate(words):
        if chamber >> a & 1:
            out = w if out is None else out & w
    return 0 if out is None else out


def _cover_planes(cover):
    """The distinct boundary planes of a cover, scaled to a leading 1."""
    out = []
    for r in cover.regions:
        for h in r.halfspaces:
            lead = next(c for c in h.normal if c)
            plane = (tuple(c / lead for c in h.normal), h.offset / lead)
            if plane not in out:
                out.append(plane)
    return out


def brute_chamber_checks(geometric, words, ambient) -> dict[str, bool]:
    """geometric-agreement, cell-for-codeword and chamber-coverage of the
    chamber cover of the padded maximal words, by brute force."""
    k = len(words)
    expected = {_intersect_words(words, s) for s in range(1, 1 << k)}
    if ambient == "union":
        expected.discard(0)
    code = set()
    for _, x in three_sign_cells(_cover_planes(geometric), geometric.dimension):
        w = sum(1 << i for i, r in enumerate(geometric.regions) if r.contains(x))
        if geometric.ambient == "whole" or w:
            code.add(w)
    per_cell_ok = True
    seen = set()
    for _, x in three_sign_cells(simplex_planes(k), k - 1):
        chamber = chamber_of(x, k)
        seen.add(chamber)
        w = sum(1 << i for i, r in enumerate(geometric.regions) if r.contains(x))
        per_cell_ok &= w == _intersect_words(words, chamber)
    return {
        "geometric-agreement": code == expected,
        "cell-for-codeword": per_cell_ok,
        "chamber-coverage": seen == set(range(1, 1 << k)),
    }


# ---------------------------------------------------------------------------
# The first topology scans: the tuple word key, the collapse search that
# rescans every live face per step, the scan of every violator, the
# enumeration of every minimal covering set and the sorted list of all
# covering-set pairs.  They reuse the unchanged library pieces (links, Betti
# numbers) and are the references the output-sensitive versions must match
# exactly.


def tuple_word_key(w: int):
    """Cardinality first, then the 1-based neuron indices lexicographically."""
    return w.bit_count(), tuple(i + 1 for i in range(w.bit_length()) if w >> i & 1)


def quadratic_collapse(faces, rng):
    """Greedy free-face collapse, finding the free faces by comparing every
    pair of live faces at each step; the removal sequence, or None."""
    live = set(faces)
    seq = []
    while len(live) > 1:
        free = []
        for f in live:
            cof = [g for g in live if g != f and g & f == f]
            if len(cof) == 1:
                free.append((f, cof[0]))
        if not free:
            return None
        free.sort(key=lambda p: (tuple_word_key(p[0]), tuple_word_key(p[1])))
        f, g = free[rng.randrange(len(free))]
        live.discard(f)
        live.discard(g)
        seq.append((f, g))
    (last,) = live
    if last.bit_count() != 1:
        return None
    return tuple(seq)


def quadratic_contractibility(K, restarts=32, seed=0):
    """`contractibility` with the quadratic collapse search."""
    apex = cone_apex(K)
    if apex is not None:
        return Contractible(apex=apex)
    profile = reduced_betti(K)
    if profile.minus_one:
        return NotContractible(degree=-1, betti=profile.minus_one)
    for d, b in enumerate(profile.reduced):
        if b:
            return NotContractible(degree=d, betti=b)
    faces = brute_delta_faces(K.facets) - {0}
    for attempt in range(restarts):
        seq = quadratic_collapse(faces, random.Random((seed << 16) + attempt))
        if seq is not None:
            return Contractible(collapse_sequence=seq)
    return Unknown(restarts=restarts)


def full_scan_local_obstructions(code, restarts=32, seed=0):
    """Decide the link at every non-empty violator."""
    found, undecided = [], []
    for sigma in sorted(brute_violators(code.words) - {0}, key=tuple_word_key):
        link_cx = simplicial_complex(link(code, sigma))
        verdict = quadratic_contractibility(link_cx, restarts=restarts, seed=seed)
        if isinstance(verdict, NotContractible):
            found.append(LocalObstruction(sigma, verdict, link_cx.facets))
        elif isinstance(verdict, Unknown):
            undecided.append(sigma)
    return LocalScan(tuple(found), tuple(undecided))


def minimal_covering_sets(code):
    """Inclusion-minimal subsets meeting every codeword (minimal hitting sets)."""
    if 0 in code.words or not code.words:
        return []
    words = sorted(code.words, key=tuple_word_key)
    minimal = []

    def dominated(s):
        return any(m & s == m for m in minimal)

    def branch(s, remaining):
        if dominated(s):
            return
        uncovered = [w for w in remaining if not w & s]
        if not uncovered:
            minimal.append(s)
            return
        w = uncovered[0]
        for i in tuple_word_key(w)[1]:
            branch(s | (1 << (i - 1)), uncovered[1:])

    branch(0, words)
    # branching can emit non-minimal sets; prune to the true minima
    minimal.sort(key=tuple_word_key)
    pruned = []
    for s in minimal:
        if not any(m != s and m & s == m for m in pruned):
            pruned.append(s)
    return pruned


def levelwise_covering_sets(code, limit=None):
    """Covering subsets in canonical size order, grown from the minimal ones.

    Every covering set is a superset of a minimal one, so size level s is
    the minima of size s plus all one-element extensions of level s-1.
    """
    minima = minimal_covering_sets(code)
    if not minima:
        return []
    by_size = {}
    for m in minima:
        by_size.setdefault(m.bit_count(), set()).add(m)
    out = []
    prev = set()
    for size in range(min(by_size), code.n + 1):
        level = set(by_size.get(size, ()))
        for s in prev:
            for i in range(code.n):
                if not s >> i & 1:
                    level.add(s | (1 << i))
        out.extend(sorted(level, key=tuple_word_key))
        if limit is not None and len(out) >= limit:
            break
        prev = level
    if limit is not None:
        out = out[:limit]
    return out


def sorted_pairs_nonlocal_obstructions(code, max_pair_budget=2000):
    """Materialise every pair of covering sets, sort the pairs by total size
    and word keys, and compare the Betti profiles of the first ones."""
    if 0 in code.words or not code.words:
        return ()
    cap = max(64, int((2 * max_pair_budget) ** 0.5) + 2)
    cands = levelwise_covering_sets(code, limit=cap)
    pairs = [(a, b) for i, a in enumerate(cands) for b in cands[i + 1:]]
    pairs.sort(
        key=lambda p: (
            p[0].bit_count() + p[1].bit_count(),
            tuple_word_key(p[0]),
            tuple_word_key(p[1]),
        )
    )
    profiles = {s: reduced_betti(simplicial_complex(restrict(code, s))) for s in cands}
    found = []
    for s1, s2 in pairs[:max_pair_budget]:
        p1, p2 = profiles[s1], profiles[s2]
        if p1 != p2:
            found.append(NonlocalObstruction(s1, s2, p1, p2))
    return tuple(found)


# ---------------------------------------------------------------------------
# The word helpers' bit-by-bit loops, the dense `Fraction` potential cover
# witnesses and the cover writer that formats every half-space of every
# region; the set-bit loops, sparse integer witnesses and once-per-object
# half-space lines must match them exactly.


def bitwise_word_neurons(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def bitwise_word_label(mask: int, n: int = 9) -> str:
    if mask == 0:
        return "0"
    idx = bitwise_word_neurons(mask)
    if n <= 9:
        return "".join(str(i) for i in idx)
    return ",".join(str(i) for i in idx)


def dense_potential_cover(code):
    """The achieved words and dense `Fraction` witnesses of the potential
    cover: sigma's witness puts 1/|family| on every e_w with w containing
    sigma, and the empty word's puts 1/dim everywhere."""
    nonempty = sorted((w for w in code.words if w), key=tuple_word_key)
    basis_index = {w: i for i, w in enumerate(nonempty)}
    dim = len(nonempty)
    achieved_words = set()
    if nonempty:
        for sigma in brute_delta_faces(nonempty):
            if sigma == 0:
                continue
            closure = None
            for w in nonempty:
                if w & sigma == sigma:
                    closure = w if closure is None else closure & w
            if closure == sigma:
                achieved_words.add(sigma)
        common = nonempty[0]
        for w in nonempty:
            common &= w
        if common == 0:
            achieved_words.add(0)
    witnesses = {}
    for sigma in achieved_words:
        family = [w for w in nonempty if w & sigma == sigma] if sigma else nonempty
        point = [Fraction(0)] * dim
        for w in family:
            point[basis_index[w]] = Fraction(1, len(family))
        witnesses[sigma] = tuple(point)
    return achieved_words, witnesses


def dense_potential_word(point, vertex_sets):
    """The word of a dense point by its support, or None off the simplex."""
    nonzero = {j: c for j, c in enumerate(point) if c}
    if any(c < 0 for c in nonzero.values()) or sum(nonzero.values(), Fraction(0)) != 1:
        return None
    word = 0
    for i, vertices in vertex_sets.items():
        if nonzero.keys() <= vertices:
            word |= 1 << (i - 1)
    return word


def dense_potential_text(realz, n: int) -> str:
    """potential_cover.txt from a realization whose witnesses are dense."""
    lab = lambda w: bitwise_word_label(w, n)
    lines = [f"dimension: {realz.dimension}"]
    for w, pos in sorted(realz.basis_index.items(), key=lambda kv: tuple_word_key(kv[0])):
        lines.append(f"vertex e{pos}: word {lab(w)}")
    for i in range(1, n + 1):
        verts = realz.vertex_sets.get(i, ())
        lines.append(f"set {i}: " + " ".join(f"e{p}" for p in verts))
    for w in sorted(realz.witnesses, key=tuple_word_key):
        coords = " ".join(
            f"{c.numerator}/{c.denominator}" if c else "0/1" for c in realz.witnesses[w]
        )
        lines.append(f"witness {lab(w)}: {coords}")
    return "\n".join(lines) + "\n"


def per_region_cover_to_text(cover) -> str:
    """cover.txt, formatting every half-space of every region afresh."""
    frac = lambda f: f"{f.numerator}/{f.denominator}"
    lines = [f"d={cover.dimension} n={cover.n} ambient={cover.ambient_label()}"]

    def emit_region(r) -> None:
        for h in r.halfspaces:
            rel = "lt" if h.strict else "le"
            lines.append(
                "H " + " ".join(frac(c) for c in h.normal) + " : " + frac(h.offset) + f" {rel}"
            )
        if r.ball is not None:
            rel = "lt" if r.ball.strict else "le"
            lines.append(
                "BALL "
                + " ".join(frac(c) for c in r.ball.center)
                + f" {frac(r.ball.radius)} {rel}"
            )

    for r in cover.regions:
        lines.append("SET")
        emit_region(r)
    if not isinstance(cover.ambient, str):
        lines.append("AMBIENT")
        emit_region(cover.ambient)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The not-applicable witness that tries every subfamily of the maximal words
# by size, and the Betti numbers read from one sorted face list per
# dimension.  The hitting-set witness and the ranks read from the runs of
# one sorted face list must match them exactly.


def combinations_missing_intersection(code, maxima, completion):
    """The first missing word and the first smallest subfamily of `maxima`
    (as ordered) that meets in it."""
    missing = sorted(completion.words - code.words, key=tuple_word_key)[0]
    for size in range(2, len(maxima) + 1):
        for combo in combinations(maxima, size):
            inter = combo[0]
            for w in combo[1:]:
                inter &= w
            if inter == missing:
                return NotApplicable(missing, tuple(combo))
    raise AssertionError("missing word must arise as an intersection")


def sunflower_code():
    """n=64: the ten words {11} + ([10] - {a}), every intersection of two or
    more of them but {11}, the pairs {12,13}, ..., {62,63} and the empty word.

    Only all ten words meet in the missing {11}, so a search of subfamilies
    by size walks about 1.3e8 families of the 36 maximal words first.
    """
    petals = [(1 << 10) | (1023 & ~(1 << (a - 1))) for a in range(1, 11)]
    words = {(1 << 10) | s for s in range(1, 1024) if s.bit_count() <= 8}
    words |= {3 << (j - 1) for j in range(12, 63, 2)}
    return Code(64, frozenset(words | set(petals) | {0}))


def complement_code(k):
    """n = k: the k words [k] - {a}.  Their meet, the empty word, is missing,
    and their completion holds all 2^k - 1 proper subsets of [k]."""
    return Code(k, frozenset(((1 << k) - 1) ^ (1 << a) for a in range(k)))


def per_dimension_reduced_betti(K):
    """`reduced_betti` with one face list and one row index per dimension."""
    if not K.facets:
        return BettiProfile(0, ())
    by_dim = {}
    for f in K.faces():
        by_dim.setdefault(f.bit_count() - 1, []).append(f)
    top = max(by_dim)
    for d in by_dim:
        by_dim[d].sort(key=tuple_word_key)
    index = {d: {f: i for i, f in enumerate(by_dim[d])} for d in by_dim}

    def boundary_rank(d):
        if d not in by_dim or (d - 1) not in by_dim:
            return 0
        rows = index[d - 1]
        cols = []
        for f in by_dim[d]:
            col = 0
            for i in bitwise_word_neurons(f):
                col |= 1 << rows[f & ~(1 << (i - 1))]
            cols.append(col)
        return _rank_gf2(cols)

    ranks = {d: boundary_rank(d) for d in range(0, top + 1)}
    ranks[top + 1] = 0
    minus_one = 1 - ranks.get(0, 0)
    betti = [len(by_dim.get(d, ())) - ranks[d] - ranks[d + 1] for d in range(0, top + 1)]
    while betti and betti[-1] == 0:
        betti.pop()
    return BettiProfile(minus_one, tuple(betti))
