"""Exact rational polyhedral engine.

Feasibility of mixed strict/weak linear systems is decided by
Fourier-Motzkin elimination on primitive integer rows (each row divided by
its gcd, parallel rows merged to the binding one); `Fraction` appears only
when the witness is built back.  Cells of a hyperplane arrangement are
enumerated as feasible sign vectors with exact witness points, refining
one plane at a time with at most one feasibility call per (cell, plane):
the other signs follow from the convexity and relative openness of cells.
One pass over the cells gives each cell three region words: exact,
closure (every condition weakened) and interior (every condition strict).
The code of a polyhedral cover, the lower-dimensional refusal, both
non-degeneracy conditions and the codes of the closure and interior are
all read from these words, with no further feasibility call.  Regions may
carry one optional ball constraint; balls leave the exact fragment and are
handled only by seeded Monte Carlo sampling, whose points are held as
integers over a common denominator and classified exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .codes import MAX_NEURONS, Code, _submasks, word_key, word_label

Vec = tuple[Fraction, ...]

DIMENSION_CAP = 8
HYPERPLANE_CAP = 14


class DimensionCapError(ValueError):
    pass


class HyperplaneBudgetError(ValueError):
    pass


class BallConstraintError(ValueError):
    """Raised when an exact operation meets a ball constraint."""


class MixedRelationsError(ValueError):
    """Raised when a cover mixes open and closed regions."""


class NonFullDimensionalRegionError(ValueError):
    def __init__(self, region_index: int, certificate: list):
        super().__init__(
            f"region {region_index} is not full-dimensional; "
            f"strict system infeasible ({len(certificate)} constraints)"
        )
        self.region_index = region_index
        self.certificate = certificate


def dot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


# ---------------------------------------------------------------------------
# regions and covers


@dataclass(frozen=True)
class HalfSpace:
    """{x : normal . x < offset} when strict, else {x : normal . x <= offset}."""

    normal: Vec
    offset: Fraction
    strict: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "normal", tuple(Fraction(x) for x in self.normal))
        object.__setattr__(self, "offset", Fraction(self.offset))
        if not any(self.normal):
            raise ValueError("half-space normal must be non-zero")

    def contains(self, x: Vec) -> bool:
        v = dot(self.normal, x)
        return v < self.offset if self.strict else v <= self.offset


@dataclass(frozen=True)
class Ball:
    """{x : |x - center| < radius} when strict, else the closed ball."""

    center: Vec
    radius: Fraction
    strict: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", tuple(Fraction(x) for x in self.center))
        object.__setattr__(self, "radius", Fraction(self.radius))
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")

    def contains(self, x: Vec) -> bool:
        d2 = sum((xi - ci) ** 2 for xi, ci in zip(x, self.center))
        r2 = self.radius**2
        return d2 < r2 if self.strict else d2 <= r2


@dataclass(frozen=True)
class ConvexRegion:
    """An intersection of half-spaces, optionally cut with one ball."""

    dimension: int
    halfspaces: tuple[HalfSpace, ...]
    ball: Ball | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "halfspaces", tuple(self.halfspaces))
        for h in self.halfspaces:
            if len(h.normal) != self.dimension:
                raise ValueError("half-space dimension mismatch")
        if self.ball is not None and len(self.ball.center) != self.dimension:
            raise ValueError("ball dimension mismatch")

    def contains(self, x: Vec) -> bool:
        if self.ball is not None and not self.ball.contains(x):
            return False
        return all(h.contains(x) for h in self.halfspaces)

    def all_relations(self) -> set[bool]:
        rel = {h.strict for h in self.halfspaces}
        if self.ball is not None:
            rel.add(self.ball.strict)
        return rel


AMBIENT_WHOLE = "whole"
AMBIENT_UNION = "union"


@dataclass(frozen=True)
class PolyhedralCover:
    """n regions in R^d plus an ambient mode: whole space, the union of the
    regions, or an explicit region."""

    dimension: int
    regions: tuple[ConvexRegion, ...]
    ambient: str | ConvexRegion = AMBIENT_WHOLE

    def __post_init__(self) -> None:
        object.__setattr__(self, "regions", tuple(self.regions))
        if not self.regions:
            raise ValueError("cover needs at least one region")
        for r in self.regions:
            if r.dimension != self.dimension:
                raise ValueError("region dimension mismatch")
        if isinstance(self.ambient, str):
            if self.ambient not in (AMBIENT_WHOLE, AMBIENT_UNION):
                raise ValueError(f"unknown ambient mode {self.ambient!r}")
        elif self.ambient.dimension != self.dimension:
            raise ValueError("ambient region dimension mismatch")

    @property
    def n(self) -> int:
        return len(self.regions)

    def has_balls(self) -> bool:
        if any(r.ball is not None for r in self.regions):
            return True
        return isinstance(self.ambient, ConvexRegion) and self.ambient.ball is not None

    def ambient_label(self) -> str:
        if isinstance(self.ambient, ConvexRegion):
            return "region"
        return self.ambient


def open_interval(lo, hi) -> ConvexRegion:
    """(lo, hi) as a one-dimensional region."""
    return ConvexRegion(
        1,
        (
            HalfSpace((Fraction(-1),), -Fraction(lo), True),
            HalfSpace((Fraction(1),), Fraction(hi), True),
        ),
    )


def closed_interval(lo, hi) -> ConvexRegion:
    return ConvexRegion(
        1,
        (
            HalfSpace((Fraction(-1),), -Fraction(lo), False),
            HalfSpace((Fraction(1),), Fraction(hi), False),
        ),
    )


# ---------------------------------------------------------------------------
# Fourier-Motzkin feasibility on integer rows

# The system is kept as a dict key -> (k, b, strict), one entry per direction:
# the row k * (key . x) < b when strict, else <= b.  key is a primitive
# integer vector (gcd 1), k > 0 and gcd(k, b) = 1, so parallel rows share a
# key and the binding one is found by comparing the bounds b / k.  A row whose
# normal is zero never enters a system; it is decided where it appears.


def _rational(x) -> int | Fraction:
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def _int_row(normal, offset) -> tuple[tuple[int, ...], int]:
    """(normal, offset) times the least positive integer that clears denominators."""
    if type(offset) is int and all(type(x) is int for x in normal):
        return tuple(normal), offset
    a = [_rational(x) for x in normal]
    b = _rational(offset)
    den = lcm(b.denominator, *(x.denominator for x in a))
    return (
        tuple(x.numerator * (den // x.denominator) for x in a),
        b.numerator * (den // b.denominator),
    )


def _merge(best: dict, coeffs: tuple[int, ...], num: int, den: int, strict: bool) -> bool:
    """Add coeffs . x < num / den (<= unless strict; den > 0) to the system,
    keeping the binding row of each direction.  False if the row reads 0 < c
    or 0 <= c and is false."""
    g = gcd(*coeffs)
    if g == 0:
        return num > 0 or (num == 0 and not strict)
    key = coeffs if g == 1 else tuple(c // g for c in coeffs)
    k = den * g
    h = gcd(k, num)
    if h != 1:
        k //= h
        num //= h
    cur = best.get(key)
    if cur is not None:
        ck, cb, cs = cur
        new, old = num * ck, cb * k
        if new > old or (new == old and (cs or not strict)):
            return True
    best[key] = (k, num, strict)
    return True


def _eliminate(rows: dict, j: int) -> dict | None:
    """Project out variable j (1-based) from rows over vars 1..j; None if a
    contradiction appears."""
    out: dict = {}
    lows, ups = [], []
    for key, row in rows.items():
        a = key[j - 1]
        if a == 0:
            out[key[:-1]] = row
        elif a > 0:
            ups.append((key, row))
        else:
            lows.append((key, row))
    for lkey, (lk, lb, ls) in lows:
        lq = -lkey[j - 1]
        for ukey, (uk, ub, us) in ups:
            # uj * low + (-lj) * up, with the coefficient gcd taken out
            p, q = ukey[j - 1], lq
            g = gcd(p, q)
            if g != 1:
                p //= g
                q //= g
            coeffs = tuple(p * x + q * y for x, y in zip(lkey[:-1], ukey))
            if not _merge(out, coeffs, p * lb * uk + q * ub * lk, lk * uk, ls or us):
                return None
    return out


def feasible(
    constraints: Sequence[tuple[Sequence, object, str]],
    dimension: int | None = None,
    dimension_cap: int = DIMENSION_CAP,
) -> Vec | None:
    """Exact feasibility of a mixed strict/weak linear system.

    Each constraint is (normal, offset, rel) with rel one of '<', '<=', '='.
    Returns a rational witness satisfying every constraint, or None.
    Variables are eliminated from the last to the first on integer rows;
    the witness is built back from the first variable, taking the midpoint
    of its bounds, the bound -/+ 1 when only one side is bounded, or 0.
    """
    rows = []
    d = dimension
    for normal, offset, rel in constraints:
        a, b = _int_row(normal, offset)
        if d is None:
            d = len(a)
        elif len(a) != d:
            raise ValueError("constraint dimension mismatch")
        if rel not in ("<", "<=", "="):
            raise ValueError(f"unknown relation {rel!r}")
        rows.append((a, b, rel))
    if d is None:
        return ()
    if d > dimension_cap:
        raise DimensionCapError(f"dimension {d} exceeds cap {dimension_cap}")

    system: dict = {}
    for a, b, rel in rows:
        if not _merge(system, a, b, 1, rel == "<"):
            return None
        if rel == "=" and not _merge(system, tuple(-x for x in a), -b, 1, False):
            return None
    per_var: list = [None] * (d + 1)
    per_var[d] = system
    for j in range(d, 0, -1):
        system = _eliminate(system, j)
        if system is None:
            return None
        per_var[j - 1] = system

    # back-substitution; the witness so far is wnum / wden
    witness: list[Fraction] = []
    wnum: list[int] = []
    wden = 1
    for j in range(1, d + 1):
        lo = hi = None  # (numerator, positive denominator, strict)
        for key, (k, b, strict) in per_var[j].items():
            aj = key[j - 1]
            if aj == 0:
                continue
            # k * (key . x) < b  gives  aj * x_j < b / k - partial
            rest = b * wden - k * sum(c * w for c, w in zip(key, wnum))
            if aj > 0:
                num, den = rest, k * wden * aj
                if hi is None or num * hi[1] < hi[0] * den or (
                    num * hi[1] == hi[0] * den and strict
                ):
                    hi = (num, den, strict)
            else:
                num, den = -rest, k * wden * -aj
                if lo is None or num * lo[1] > lo[0] * den or (
                    num * lo[1] == lo[0] * den and strict
                ):
                    lo = (num, den, strict)
        if lo is None and hi is None:
            x = Fraction(0)
        elif lo is None:
            x = Fraction(hi[0] - hi[1], hi[1])
        elif hi is None:
            x = Fraction(lo[0] + lo[1], lo[1])
        elif lo[0] * hi[1] < hi[0] * lo[1]:
            x = Fraction(lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1])
        else:
            # elimination guarantees lo == hi with both bounds weak
            assert lo[0] * hi[1] == hi[0] * lo[1] and not lo[2] and not hi[2]
            x = Fraction(lo[0], lo[1])
        witness.append(x)
        scale = lcm(wden, x.denominator)
        wnum = [w * (scale // wden) for w in wnum]
        wnum.append(x.numerator * (scale // x.denominator))
        wden = scale
    return tuple(witness)


# ---------------------------------------------------------------------------
# arrangements and cells


@dataclass(frozen=True)
class Cell:
    """One feasible sign vector of an arrangement, with an exact witness."""

    signs: tuple[int, ...]
    witness: Vec

    @property
    def full_dim(self) -> bool:
        return all(s != 0 for s in self.signs)


@dataclass(frozen=True)
class CellComplex:
    dimension: int
    hyperplanes: tuple[tuple[Vec, Fraction], ...]
    cells: tuple[Cell, ...]

    def full_dim_count(self) -> int:
        return sum(1 for c in self.cells if c.full_dim)


def canonical_hyperplane(normal: Vec, offset: Fraction) -> tuple[tuple[Vec, Fraction], int]:
    """Scale to first-nonzero-coefficient +1; report the orientation kept.

    (normal, offset) = orient * mu * (v, b) with mu > 0.
    """
    lead = next(c for c in normal if c != 0)
    orient = 1 if lead > 0 else -1
    scale = abs(lead)
    v = tuple(c / scale * orient for c in normal)
    b = offset / scale * orient
    return (v, b), orient


def enumerate_cells(
    hyperplanes: Sequence[tuple[Sequence, object]], dimension: int
) -> CellComplex:
    """All feasible sign vectors of an arrangement, each with a witness.

    Cells are relatively open, pairwise disjoint, and partition R^d.  The
    hyperplane list must already be deduplicated and canonically scaled.

    Cells are refined one plane at a time, children in sign order -1, 0, 1.
    A partial cell is convex and relatively open, so one feasibility call
    per (cell, plane) settles all three signs.  If its witness w has sign
    s != 0, probe -s: when that fails, the cell misses the plane; when it
    gives w', the segment from w to w' crosses the plane inside the cell.
    If w lies on the plane, probe +1: when that fails the cell lies in the
    plane; when it gives w', stepping from w away from w' stays in the cell
    for a step bounded by the cell's own strict constraints.
    """
    planes = [
        (tuple(Fraction(x) for x in nrm), Fraction(off)) for nrm, off in hyperplanes
    ]
    if len(set(planes)) != len(planes):
        raise ValueError("hyperplane list contains duplicates")
    if len(planes) > HYPERPLANE_CAP:
        raise HyperplaneBudgetError(
            f"{len(planes)} hyperplanes exceed the cap of {HYPERPLANE_CAP}"
        )
    cap = max(dimension, DIMENSION_CAP)
    rows = [_int_row(v, b) for v, b in planes]
    # per plane, the constraint for sign -1, 0, +1 (indexed by sign + 1)
    sign_cons = [
        ((a, b, "<"), (a, b, "="), (tuple(-x for x in a), -b, "<")) for a, b in rows
    ]

    def linear(k: int, x: Vec) -> Fraction:
        return sum(c * t for c, t in zip(rows[k][0], x))

    def value(k: int, x: Vec) -> Fraction:
        return linear(k, x) - rows[k][1]

    origin = tuple(Fraction(0) for _ in range(dimension))
    partial: list[tuple[tuple[int, ...], Vec]] = [((), origin)]
    for k in range(len(planes)):
        grown: list[tuple[tuple[int, ...], Vec]] = []
        for signs, w in partial:
            fw = value(k, w)
            s = (fw > 0) - (fw < 0)
            cons = [sign_cons[kk][sg + 1] for kk, sg in enumerate(signs)]
            cons.append(sign_cons[k][1 - s if s else 2])
            probe = feasible(cons, dimension, dimension_cap=cap)
            if probe is None:
                grown.append((signs + (s,), w))
            elif s:
                t = fw / (fw - value(k, probe))
                cross = tuple(x + t * (y - x) for x, y in zip(w, probe))
                lo, hi = (w, probe) if s < 0 else (probe, w)
                grown.append((signs + (-1,), lo))
                grown.append((signs + (0,), cross))
                grown.append((signs + (1,), hi))
            else:
                step = tuple(y - x for x, y in zip(w, probe))
                t = Fraction(1)
                for kk, sg in enumerate(signs):
                    if sg:
                        g, h = value(kk, w), linear(kk, step)
                        if g * h > 0:
                            t = min(t, g / (2 * h))
                back = tuple(x - t * y for x, y in zip(w, step))
                grown.append((signs + (-1,), back))
                grown.append((signs + (0,), w))
                grown.append((signs + (1,), probe))
        partial = grown
    cells = tuple(Cell(s, w) for s, w in partial)
    return CellComplex(dimension, tuple(planes), cells)


def is_face(c: tuple[int, ...], t: tuple[int, ...]) -> bool:
    """cell(c) lies in the closure of cell(t)."""
    for a, b in zip(c, t):
        if b == 0:
            if a != 0:
                return False
        elif a != 0 and a != b:
            return False
    return True


# ---------------------------------------------------------------------------
# one classification of the cells of a cover

# A region (or the ambient region) compiles to three bit masks over the
# canonical planes: the planes whose negative side it wants, the planes
# whose positive side it wants, and the planes it bounds strictly.


@dataclass(frozen=True)
class _Compiled:
    planes: tuple[tuple[Vec, Fraction], ...]
    regions: tuple[tuple[int, int, int], ...]
    ambient: tuple[int, int, int] | None  # None unless the ambient is a region


def _compile(cover: PolyhedralCover) -> _Compiled:
    if cover.has_balls():
        raise BallConstraintError(
            "cover carries ball constraints; exact cell enumeration is "
            "unavailable, use sample_code"
        )
    bounded = list(cover.regions)
    if isinstance(cover.ambient, ConvexRegion):
        bounded.append(cover.ambient)
    conds = [
        [(*canonical_hyperplane(h.normal, h.offset), h.strict) for h in r.halfspaces]
        for r in bounded
    ]
    planes = tuple(sorted({key for cs in conds for key, _, _ in cs}))
    index = {p: k for k, p in enumerate(planes)}
    masks = []
    for cs in conds:
        neg = pos = strict = 0
        for key, orient, st in cs:
            bit = 1 << index[key]
            # normal.x < offset  <=>  orient * (v.x - b) < 0
            if orient > 0:
                neg |= bit
            else:
                pos |= bit
            if st:
                strict |= bit
        masks.append((neg, pos, strict))
    ambient = masks.pop() if isinstance(cover.ambient, ConvexRegion) else None
    return _Compiled(planes, tuple(masks), ambient)


def arrangement_cells(cover: PolyhedralCover) -> CellComplex:
    """The cell complex of all hyperplanes appearing in the cover."""
    comp = _compile(cover)
    return enumerate_cells(comp.planes, cover.dimension)


@dataclass(frozen=True)
class _CellWords:
    """Three region words per cell of a cover's arrangement.

    exact: the regions containing the cell.  closure: the regions whose
    weakened system holds on it.  interior: the regions whose strict system
    holds on it.  Every boundary is a plane of the arrangement, so a whole
    cell lies inside or outside each of these sets.  The weakened system
    is the closure of a non-empty region, and the strict system is always
    its interior.
    """

    cells: tuple[Cell, ...]
    exact: tuple[int, ...]
    closure: tuple[int, ...]
    interior: tuple[int, ...]
    in_ambient: tuple[bool, ...]  # inside the ambient region, if there is one
    union: bool  # the ambient is the union of the regions

    def atlas(self, words: Sequence[int]) -> dict[int, list[int]]:
        """Cell indices per word, over the cells inside the ambient."""
        out: dict[int, list[int]] = {}
        for ix, w in enumerate(words):
            if self.in_ambient[ix] and (w or not self.union):
                out.setdefault(w, []).append(ix)
        return out

    def refuse_lower_dimensional(self, cover: PolyhedralCover) -> None:
        """Raise for the first region whose weakened system meets a cell
        while its strict system meets none: the weak system is feasible
        and the strict one is not."""
        reached = inner = 0
        for c, i in zip(self.closure, self.interior):
            reached |= c
            inner |= i
        lower = reached & ~inner
        if lower:
            i = (lower & -lower).bit_length() - 1
            strict = [(h.normal, h.offset, "<") for h in cover.regions[i].halfspaces]
            raise NonFullDimensionalRegionError(i, strict)


def _classify(cover: PolyhedralCover, cells: CellComplex | None = None) -> _CellWords:
    """Each cell's sign vector as negative, positive and zero plane masks,
    tested against every region's masks in one pass."""
    comp = _compile(cover)
    if cells is None:
        cells = enumerate_cells(comp.planes, cover.dimension)
    elif cells.hyperplanes != comp.planes:
        raise ValueError("supplied cells were built from a different arrangement")
    exact, closure, interior, in_ambient = [], [], [], []
    for cell in cells.cells:
        neg = pos = zero = 0
        for k, s in enumerate(cell.signs):
            if s < 0:
                neg |= 1 << k
            elif s > 0:
                pos |= 1 << k
            else:
                zero |= 1 << k
        e = c = i = 0
        for r, (want_neg, want_pos, strict) in enumerate(comp.regions):
            if want_neg & pos or want_pos & neg:
                continue
            c |= 1 << r
            if not zero & strict:
                e |= 1 << r
            if not zero & (want_neg | want_pos):
                i |= 1 << r
        exact.append(e)
        closure.append(c)
        interior.append(i)
        if comp.ambient is None:
            in_ambient.append(True)
        else:
            want_neg, want_pos, strict = comp.ambient
            in_ambient.append(not (want_neg & pos or want_pos & neg or zero & strict))
    return _CellWords(
        cells.cells,
        tuple(exact),
        tuple(closure),
        tuple(interior),
        tuple(in_ambient),
        cover.ambient == AMBIENT_UNION,
    )


# ---------------------------------------------------------------------------
# code of a cover


def code_of_cover(
    cover: PolyhedralCover, cells: CellComplex | None = None
) -> tuple[Code, dict[int, tuple[Cell, ...]]]:
    """The exact code of a polyhedral cover, plus the cells of each codeword.

    Every half-space boundary joins one arrangement, so membership of a
    whole cell in a region is read off the cell's sign vector.
    """
    words = _classify(cover, cells)
    atlas = {
        w: tuple(words.cells[ix] for ix in ixs)
        for w, ixs in words.atlas(words.exact).items()
    }
    return Code(cover.n, frozenset(atlas)), atlas


# ---------------------------------------------------------------------------
# non-degeneracy (top-dimensional atoms, boundary condition)


@dataclass(frozen=True)
class Offender:
    condition: str  # "i" or "ii"
    sigma: int
    cell: Cell


@dataclass(frozen=True)
class NondegeneracyReport:
    cond_i: bool
    cond_ii: bool
    offenders: tuple[Offender, ...]


def check_nondegeneracy(
    cover: PolyhedralCover, cells: CellComplex | None = None
) -> NondegeneracyReport:
    """Check both non-degeneracy conditions on the cell lattice.

    (i)  every cell of a non-empty atom lies in the closure of a
         full-dimensional cell of the same atom;
    (ii) every cell inside an intersection of region boundaries lies in the
         boundary of the intersection of those regions.

    Atoms are taken over the whole space regardless of the cover's ambient
    mode.  A lower-dimensional region is refused.
    """
    words = _classify(cover, cells)
    words.refuse_lower_dimensional(cover)
    all_cells = words.cells

    atoms: dict[int, list[int]] = {}
    for ix, w in enumerate(words.exact):
        atoms.setdefault(w, []).append(ix)

    offenders: list[Offender] = []

    # condition (i)
    for sigma, members in sorted(atoms.items(), key=lambda kv: word_key(kv[0])):
        fulls = [all_cells[ix].signs for ix in members if all_cells[ix].full_dim]
        for ix in members:
            if not any(is_face(all_cells[ix].signs, t) for t in fulls):
                offenders.append(Offender("i", sigma, all_cells[ix]))

    # condition (ii).  Every region is now empty or full-dimensional, so a
    # cell lies on the boundary of region i iff it has closure bit i and not
    # interior bit i.  A cell on the boundary of every region of sigma thus
    # has a closure word containing sigma and an interior word missing it.
    # When the intersection of sigma is non-empty, its closure and interior
    # are read from those same words, so the cell lies on its boundary; when
    # the intersection is empty, so is its boundary.
    on_boundary = [c & ~i for c, i in zip(words.closure, words.interior)]
    candidates: set[int] = set()
    for touched in on_boundary:
        candidates.update(_submasks(touched))
    for sigma in sorted(candidates - {0}, key=word_key):
        if any(w & sigma == sigma for w in words.exact):
            continue
        for ix, touched in enumerate(on_boundary):
            if touched & sigma == sigma:
                offenders.append(Offender("ii", sigma, all_cells[ix]))

    cond_i = not any(o.condition == "i" for o in offenders)
    cond_ii = not any(o.condition == "ii" for o in offenders)
    return NondegeneracyReport(cond_i, cond_ii, tuple(offenders))


@dataclass(frozen=True)
class InvarianceReport:
    code_equal_cl: bool | None
    code_equal_int: bool | None


def verify_closure_interior_invariance(
    cover: PolyhedralCover,
    cells: CellComplex | None = None,
) -> InvarianceReport:
    """Compare the cover's code with the code of its closure or interior.

    The cover must be all-open or all-closed, and every non-empty region
    full-dimensional.  The closure of an open cover weakens every
    condition and the interior of a closed cover makes every condition
    strict, so both codes are read from the same cells, through the same
    ambient.
    """
    rels: set[bool] = set()
    for r in cover.regions:
        rels |= r.all_relations()
    if rels == {True, False}:
        raise MixedRelationsError("cover mixes strict and weak regions")
    words = _classify(cover, cells)
    words.refuse_lower_dimensional(cover)
    base = words.atlas(words.exact).keys()
    if rels in (set(), {True}):  # open cover (or all-trivial regions)
        other = words.atlas(words.closure).keys()
        return InvarianceReport(code_equal_cl=base == other, code_equal_int=None)
    other = words.atlas(words.interior).keys()
    return InvarianceReport(code_equal_cl=None, code_equal_int=base == other)


# ---------------------------------------------------------------------------
# Monte Carlo sampling (the only route for ball-constrained covers)


@dataclass(frozen=True)
class SampleReport:
    code: Code
    counts: dict[int, int]
    budget: int
    seed: int
    box: tuple[Vec, Vec]

    def render(self) -> str:
        lines = [
            f"budget={self.budget} seed={self.seed}",
            "box="
            + " ".join(
                f"[{lo},{hi}]" for lo, hi in zip(self.box[0], self.box[1])
            ),
        ]
        for w in self.code.sorted_words():
            lines.append(f"{word_label(w, self.code.n)}: {self.counts[w]}")
        return "\n".join(lines) + "\n"


def derive_box(cover: PolyhedralCover) -> tuple[Vec, Vec]:
    """Bounding box of all ball constraints; the only automatic derivation."""
    balls = [r.ball for r in cover.regions if r.ball is not None]
    if isinstance(cover.ambient, ConvexRegion) and cover.ambient.ball is not None:
        balls.append(cover.ambient.ball)
    if not balls:
        raise ValueError("no sampling box derivable: cover has no ball constraints")
    lo = tuple(
        min(b.center[j] - b.radius for b in balls) for j in range(cover.dimension)
    )
    hi = tuple(
        max(b.center[j] + b.radius for b in balls) for j in range(cover.dimension)
    )
    return lo, hi


SAMPLE_BITS = 48


def _integer_tests(region: ConvexRegion, scale: int):
    """The region's constraints on integer points X standing for X / scale.

    A half-space becomes (A, C, strict) meaning A . X < C (<= unless
    strict); the ball becomes (K, P, R2, strict) meaning |K X - P|^2 < R2.
    """
    halfspaces = []
    for h in region.halfspaces:
        a, b = _int_row(h.normal, h.offset)
        halfspaces.append((a, b * scale, h.strict))
    ball = region.ball
    if ball is None:
        return tuple(halfspaces), None
    k = lcm(ball.radius.denominator, *(c.denominator for c in ball.center))
    centre = tuple(c.numerator * (k // c.denominator) * scale for c in ball.center)
    r = ball.radius.numerator * (k // ball.radius.denominator) * scale
    return tuple(halfspaces), (k, centre, r * r, ball.strict)


def _passes(tests, x: list[int]) -> bool:
    halfspaces, ball = tests
    if ball is not None:
        k, centre, r2, strict = ball
        d2 = sum((k * xi - ci) ** 2 for xi, ci in zip(x, centre))
        if not (d2 < r2 if strict else d2 <= r2):
            return False
    for a, c, strict in halfspaces:
        v = sum(ai * xi for ai, xi in zip(a, x))
        if not (v < c if strict else v <= c):
            return False
    return True


def _sampled_words(cover: PolyhedralCover, lo: Vec, hi: Vec, budget: int, seed: int):
    """Per sampled point, its codeword, or None when it lies outside the ambient.

    Coordinate j of a point is lo_j + (hi_j - lo_j) * r / 2^48 for a fresh
    r = getrandbits(48), held exactly as the integer X_j over Q * 2^48, Q
    the common denominator of the box.
    """
    q = lcm(*(x.denominator for x in lo + hi))
    scale = q << SAMPLE_BITS
    base = [x.numerator * (q // x.denominator) for x in lo]
    width = [x.numerator * (q // x.denominator) - b for x, b in zip(hi, base)]
    base = [b << SAMPLE_BITS for b in base]
    regions = [_integer_tests(r, scale) for r in cover.regions]
    ambient = None
    if isinstance(cover.ambient, ConvexRegion):
        ambient = _integer_tests(cover.ambient, scale)
    union = cover.ambient == AMBIENT_UNION
    draw = random.Random(seed).getrandbits
    for _ in range(budget):
        x = [b + w * draw(SAMPLE_BITS) for b, w in zip(base, width)]
        word = 0
        for i, tests in enumerate(regions):
            if _passes(tests, x):
                word |= 1 << i
        if (ambient is not None and not _passes(ambient, x)) or (union and word == 0):
            yield None
        else:
            yield word


def sample_code(
    cover: PolyhedralCover,
    budget: int,
    seed: int,
    box: tuple[Sequence, Sequence] | None = None,
) -> SampleReport:
    """Uniform rational sampling in a box; observed codewords with counts.

    Deterministic for a fixed seed.  The estimate never invents codewords:
    every sampled point is classified by exact integer arithmetic.
    """
    if box is None:
        lo, hi = derive_box(cover)
    else:
        lo = tuple(Fraction(x) for x in box[0])
        hi = tuple(Fraction(x) for x in box[1])
    if len(lo) != cover.dimension or len(hi) != cover.dimension:
        raise ValueError("box dimension mismatch")
    if any(l >= h for l, h in zip(lo, hi)):
        raise ValueError("zero-volume sampling box")
    counts: dict[int, int] = {}
    for word in _sampled_words(cover, lo, hi, budget, seed):
        if word is not None:
            counts[word] = counts.get(word, 0) + 1
    return SampleReport(
        Code(cover.n, frozenset(counts)), counts, budget, seed, (lo, hi)
    )


# ---------------------------------------------------------------------------
# cover text format

# Header "d=<int> n=<int> ambient=<whole|union|region>".  Each region opens
# with a SET line, followed by "H <num>/<den> ... : <num>/<den> <lt|le>"
# (normal coefficients, then offset and relation) and an optional
# "BALL cx cy ... r <lt|le>".  An ambient region comes last under AMBIENT.


class CoverParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _parse_frac(tok: str, ln: int) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise CoverParseError(ln, f"bad rational {tok!r}") from None


def cover_to_text(cover: PolyhedralCover) -> str:
    """The cover in the format `cover_from_text` reads.

    Regions may share half-space objects (the chamber cover's regions share
    the k simplex-facet sides), so each distinct object, keyed by its id
    within this call, is formatted once and its line reused.
    """
    lines = [
        f"d={cover.dimension} n={cover.n} ambient={cover.ambient_label()}"
    ]
    rendered: dict[int, str] = {}  # id of a half-space -> its H line

    def emit_region(r: ConvexRegion) -> None:
        for h in r.halfspaces:
            line = rendered.get(id(h))
            if line is None:
                rel = "lt" if h.strict else "le"
                line = rendered[id(h)] = (
                    "H "
                    + " ".join(_frac_str(c) for c in h.normal)
                    + " : "
                    + _frac_str(h.offset)
                    + f" {rel}"
                )
            lines.append(line)
        if r.ball is not None:
            rel = "lt" if r.ball.strict else "le"
            lines.append(
                "BALL "
                + " ".join(_frac_str(c) for c in r.ball.center)
                + f" {_frac_str(r.ball.radius)} {rel}"
            )

    for r in cover.regions:
        lines.append("SET")
        emit_region(r)
    if isinstance(cover.ambient, ConvexRegion):
        lines.append("AMBIENT")
        emit_region(cover.ambient)
    return "\n".join(lines) + "\n"


def cover_from_text(text: str) -> PolyhedralCover:
    d = n = None
    ambient_mode: str | None = None
    sections: list[list[tuple[int, str]]] = []
    ambient_section: list[tuple[int, str]] | None = None
    current: list[tuple[int, str]] | None = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if d is None:
            parts = dict(
                tok.split("=", 1) for tok in line.split() if "=" in tok
            )
            try:
                d = int(parts["d"])
                n = int(parts["n"])
                ambient_mode = parts["ambient"]
            except (KeyError, ValueError):
                raise CoverParseError(
                    ln, "expected header 'd=<int> n=<int> ambient=<mode>'"
                ) from None
            if ambient_mode not in (AMBIENT_WHOLE, AMBIENT_UNION, "region"):
                raise CoverParseError(ln, f"unknown ambient {ambient_mode!r}")
            if not 1 <= n <= MAX_NEURONS:
                raise CoverParseError(ln, f"n={n} outside 1..{MAX_NEURONS}")
            if d < 0:
                raise CoverParseError(ln, f"negative dimension d={d}")
            continue
        if line == "SET":
            if ambient_section is not None:
                raise CoverParseError(ln, "SET after AMBIENT")
            current = []
            sections.append(current)
            continue
        if line == "AMBIENT":
            ambient_section = []
            current = ambient_section
            continue
        if current is None:
            raise CoverParseError(ln, "constraint line before any SET")
        current.append((ln, line))
    if d is None:
        raise CoverParseError(1, "empty input, expected header")

    def build_region(entries: list[tuple[int, str]]) -> ConvexRegion:
        halfspaces = []
        ball = None
        for ln, line in entries:
            toks = line.split()
            if toks[0] == "H":
                if ":" not in toks:
                    raise CoverParseError(ln, "H line missing ':'")
                cut = toks.index(":")
                normal = tuple(_parse_frac(t, ln) for t in toks[1:cut])
                if len(normal) != d:
                    raise CoverParseError(ln, f"normal has {len(normal)} coords, want {d}")
                if len(toks) != cut + 3:
                    raise CoverParseError(ln, "H line needs offset and relation after ':'")
                offset = _parse_frac(toks[cut + 1], ln)
                rel = toks[cut + 2]
                if rel not in ("lt", "le"):
                    raise CoverParseError(ln, f"bad relation {rel!r}")
                try:
                    halfspaces.append(HalfSpace(normal, offset, rel == "lt"))
                except ValueError as exc:
                    raise CoverParseError(ln, str(exc)) from None
            elif toks[0] == "BALL":
                if ball is not None:
                    raise CoverParseError(ln, "second BALL in one set")
                if len(toks) != d + 3:
                    raise CoverParseError(ln, "BALL needs center, radius, relation")
                center = tuple(_parse_frac(t, ln) for t in toks[1 : d + 1])
                radius = _parse_frac(toks[d + 1], ln)
                rel = toks[d + 2]
                if rel not in ("lt", "le"):
                    raise CoverParseError(ln, f"bad relation {rel!r}")
                try:
                    ball = Ball(center, radius, rel == "lt")
                except ValueError as exc:
                    raise CoverParseError(ln, str(exc)) from None
            else:
                raise CoverParseError(ln, f"unknown directive {toks[0]!r}")
        return ConvexRegion(d, tuple(halfspaces), ball)

    if len(sections) != n:
        raise CoverParseError(1, f"header says n={n} but found {len(sections)} SETs")
    regions = tuple(build_region(sec) for sec in sections)
    ambient: str | ConvexRegion
    if ambient_mode == "region":
        if ambient_section is None:
            raise CoverParseError(1, "ambient=region but no AMBIENT section")
        ambient = build_region(ambient_section)
    else:
        if ambient_section is not None:
            raise CoverParseError(1, "AMBIENT section without ambient=region")
        ambient = ambient_mode
    return PolyhedralCover(d, regions, ambient)
