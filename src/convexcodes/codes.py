"""Combinatorial codes on a neuron set [n].

A codeword is a subset of [n] = {1, ..., n} stored as a bit mask (bit i-1
set iff neuron i fires), so set algebra is plain integer bit twiddling.
The empty codeword is the mask 0 and is distinct from a word being absent
from a code.  Everything here is an immutable value; all operations are
pure functions and safe to call from multiple threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

MAX_NEURONS = 64


# ---------------------------------------------------------------------------
# codeword helpers


def word_mask(neurons: Iterable[int], n: int | None = None) -> int:
    """Pack 1-based neuron indices into a bit mask."""
    m = 0
    for i in neurons:
        if i < 1 or i > MAX_NEURONS or (n is not None and i > n):
            raise ValueError(f"neuron index {i} out of range")
        m |= 1 << (i - 1)
    return m


def word_neurons(mask: int) -> tuple[int, ...]:
    """Unpack a bit mask into sorted 1-based neuron indices."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


_BYTE_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
_ALL_64 = (1 << 64) - 1


def word_key(mask: int) -> int:
    """Canonical sort key: cardinality first, then lexicographic on indices.

    One integer, (popcount << 64) | (2^64 - 1 - bitreverse64(mask)).  Of two
    words of one size, the lexicographically smaller index tuple holds the
    lowest neuron of their symmetric difference; neuron i is bit 64 - i of
    the reversed mask, so that word has the larger reversed mask and the
    smaller key.  Masks stay below 2^64 because n <= MAX_NEURONS.
    """
    reversed_ = int.from_bytes(mask.to_bytes(8, "little").translate(_BYTE_REVERSED), "big")
    return (mask.bit_count() << 64) | (_ALL_64 ^ reversed_)


_NEURON_TEXT = tuple(str(i) for i in range(MAX_NEURONS + 1))


def word_label(mask: int, n: int = 9) -> str:
    """Render a codeword; '0' denotes the empty word.

    Indices are concatenated for n <= 9 (e.g. '123') and comma separated
    otherwise.
    """
    if mask == 0:
        return "0"
    parts = []
    while mask:
        low = mask & -mask
        parts.append(_NEURON_TEXT[low.bit_length()])
        mask ^= low
    return ("" if n <= 9 else ",").join(parts)


def _submasks(mask: int) -> Iterator[int]:
    """All subsets of `mask`, the empty set included."""
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


# ---------------------------------------------------------------------------
# core value types


@dataclass(frozen=True)
class Code:
    """A duplicate-free set of codewords over neurons 1..n."""

    n: int
    words: frozenset[int]

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_NEURONS:
            raise ValueError(f"n must be in 1..{MAX_NEURONS}, got {self.n}")
        object.__setattr__(self, "words", frozenset(self.words))
        for w in self.words:
            if w < 0 or w >> self.n:
                raise ValueError(f"codeword {w:#x} uses neurons beyond n={self.n}")

    @classmethod
    def from_words(cls, n: int, words: Iterable[Iterable[int]]) -> "Code":
        return cls(n, frozenset(word_mask(w, n) for w in words))

    @classmethod
    def from_compact(cls, n: int, text: str) -> "Code":
        """Parse words written as digit strings, e.g. '23 14 123' ('0' = empty).

        Only usable for n <= 9.
        """
        if n > 9:
            raise ValueError("compact notation needs n <= 9")
        words = []
        for tok in text.split():
            if tok == "0":
                words.append(0)
            else:
                words.append(word_mask((int(ch) for ch in tok), n))
        return cls(n, frozenset(words))

    def sorted_words(self) -> list[int]:
        return sorted(self.words, key=word_key)

    def labels(self) -> list[str]:
        return [word_label(w, self.n) for w in self.sorted_words()]

    def __contains__(self, mask: int) -> bool:
        return mask in self.words

    def __iter__(self) -> Iterator[int]:
        return iter(self.sorted_words())

    def __len__(self) -> int:
        return len(self.words)


@dataclass(frozen=True)
class SimplicialComplex:
    """A simplicial complex on [n], stored by its inclusion-maximal faces."""

    n: int
    facets: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "facets", frozenset(self.facets))
        for f in self.facets:
            for g in self.facets:
                if f != g and f & g == f:
                    raise ValueError("facets must form an antichain")

    def has_face(self, mask: int) -> bool:
        return any(mask & f == mask for f in self.facets)

    def faces(self, budget: int | None = None) -> set[int]:
        """All faces, the empty face included (for a non-void complex)."""
        out: set[int] = set()
        for f in self.facets:
            for s in _submasks(f):
                out.add(s)
                if budget is not None and len(out) > budget:
                    raise FaceBudgetError(
                        f"complex exceeds face budget of {budget}"
                    )
        return out


class FaceBudgetError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class AbstractCover:
    """A cover of a finite point set: each neuron owns a subset of points.

    `ambient` is None for "all points"; otherwise an explicit subset that
    must contain every membership set.
    """

    n: int
    points: tuple[Hashable, ...]
    membership: Mapping[int, frozenset]
    ambient: frozenset | None = None

    def __post_init__(self) -> None:
        pts = set(self.points)
        if len(pts) != len(self.points):
            raise ValueError("duplicate point labels")
        for i, s in self.membership.items():
            if not 1 <= i <= self.n:
                raise ValueError(f"membership key {i} outside 1..{self.n}")
            if not s <= pts:
                raise ValueError(f"membership of {i} mentions unknown points")
            if self.ambient is not None and not s <= self.ambient:
                raise ValueError("ambient must contain every membership set")
        if self.ambient is not None and not self.ambient <= pts:
            raise ValueError("ambient mentions unknown points")

    def member_sets(self) -> list[frozenset]:
        return [self.membership.get(i, frozenset()) for i in range(1, self.n + 1)]


# ---------------------------------------------------------------------------
# operations


def maximal_codewords(code: Code) -> frozenset[int]:
    """The inclusion-maximal codewords of a code.

    Words are scanned by descending size, so a word is non-maximal iff it
    lies inside one of the maxima already found.
    """
    maxima: list[int] = []
    for w in sorted(code.words, key=int.bit_count, reverse=True):
        if not any(w & m == w for m in maxima):
            maxima.append(w)
    return frozenset(maxima)


def simplicial_complex(code: Code) -> SimplicialComplex:
    """The smallest simplicial complex containing the code."""
    if not code.words:
        raise ValueError("code has no words")
    return SimplicialComplex(code.n, maximal_codewords(code))


def link(code: Code, sigma: int) -> Code:
    """The link of a code at sigma: {tau : tau | sigma in C, tau & sigma = 0}."""
    return Code(
        code.n,
        frozenset(w & ~sigma for w in code.words if w & sigma == sigma),
    )


def simplicial_violators(code: Code) -> frozenset[int]:
    """Faces of the code's complex that are missing from the code itself."""
    K = simplicial_complex(code)
    return frozenset(f for f in K.faces() if f not in code.words)


def restrict(code: Code, sigma: int) -> Code:
    """Intersect every codeword with sigma; the neuron set stays [n]."""
    return Code(code.n, frozenset(w & sigma for w in code.words))


def covers(sigma: int, code: Code) -> bool:
    """True iff the non-empty set sigma meets every codeword of the code."""
    if sigma == 0:
        raise ValueError("covering subset must be non-empty")
    return all(w & sigma for w in code.words)


def closed_sets(words: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Every intersection w of a non-empty subfamily of `words`, once each
    in `word_key` order, as (w, family) with bit a of family set iff
    words[a] contains w.  These are the closed sets of cl(X), the meet of
    the words that hold X (Ganter's NextClosure).  The walk starts at the
    meet of all words; any other closed Y covers a closed X and is cl(X | b)
    for each b in Y - X, whose family is X's cut to the holders of b.  A
    family fixes its set, so each is closed once.  Sets only grow, so a
    popcount level is complete when it is sorted and yielded."""
    if not words:
        return
    holders: dict[int, int] = {}  # neuron bit -> the indices of its words
    bottom = -1
    for a, w in enumerate(words):
        bottom &= w
        while w:
            b = w & -w
            holders[b] = holders.get(b, 0) | 1 << a
            w ^= b
    neurons = list(holders.items())
    levels: list[dict[int, int]] = [{} for _ in range(len(neurons) + 1)]
    levels[bottom.bit_count()][bottom] = (1 << len(words)) - 1
    seen: set[int] = set()
    for level in levels:
        for x in sorted(level, key=word_key):
            family = level[x]
            yield x, family
            if not family & (family - 1):
                continue  # x is the one word that holds it, so no closed set lies above
            cut = [(b, held) for b, h in neurons if not b & x and (held := h & family)]
            for _, sub in cut:
                if sub not in seen:
                    seen.add(sub)
                    meet = x
                    for c, held in cut:
                        if held & sub == sub:
                            meet |= c
                    levels[meet.bit_count()][meet] = sub


def intersection_completion(code: Code) -> Code:
    """All intersections of non-empty subcodes."""
    return Code(code.n, frozenset(w for w, _ in closed_sets(tuple(code.words))))


@dataclass(frozen=True)
class CompletenessReport:
    intersection_complete: bool
    max_intersection_complete: bool


def classify_completeness(code: Code) -> CompletenessReport:
    """Check C = completion(C) and completion(M(C)) <= C, up to a missing word."""
    walks = closed_sets(tuple(code.words)), closed_sets(tuple(maximal_codewords(code)))
    return CompletenessReport(*(all(w in code.words for w, _ in walk) for walk in walks))


def abstract_code(cover: AbstractCover) -> Code:
    """The code of a finite cover: one codeword per ambient point.

    Neuron bits are scattered from the membership sets, which lie inside
    the ambient; any ambient point they miss carries the empty word.
    """
    word_of: dict[Hashable, int] = {}
    for i, members in cover.membership.items():
        bit = 1 << (i - 1)
        for p in members:
            word_of[p] = word_of.get(p, 0) | bit
    words = set(word_of.values())
    ambient_size = len(cover.points if cover.ambient is None else cover.ambient)
    if ambient_size > len(word_of):
        words.add(0)
    return Code(cover.n, frozenset(words))


def finite_realization(code: Code) -> AbstractCover:
    """A one-point-per-codeword cover whose code is the given code."""
    points = tuple(code.sorted_words())
    membership = {
        i: frozenset(w for w in points if w & (1 << (i - 1)))
        for i in range(1, code.n + 1)
    }
    return AbstractCover(code.n, points, membership, None)


# ---------------------------------------------------------------------------
# text format

# One codeword per line as space-separated 1-based indices; the single
# token "0" denotes the empty word; '#' starts a comment; header "n=<int>".


class CodeParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def code_to_text(code: Code) -> str:
    lines = [f"n={code.n}"]
    for w in code.sorted_words():
        if w == 0:
            lines.append("0")
        else:
            lines.append(" ".join(str(i) for i in word_neurons(w)))
    return "\n".join(lines) + "\n"


def code_from_text(text: str) -> Code:
    n: int | None = None
    words: set[int] = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            if not line.startswith("n="):
                raise CodeParseError(ln, "expected header 'n=<int>'")
            try:
                n = int(line[2:])
            except ValueError:
                raise CodeParseError(ln, f"bad neuron count {line[2:]!r}") from None
            if not 1 <= n <= MAX_NEURONS:
                raise CodeParseError(ln, f"n={n} outside 1..{MAX_NEURONS}")
            continue
        if line == "0":
            words.add(0)
            continue
        try:
            idx = [int(tok) for tok in line.split()]
        except ValueError:
            raise CodeParseError(ln, f"bad codeword line {line!r}") from None
        if any(i < 1 or i > n for i in idx):
            raise CodeParseError(ln, f"neuron index outside 1..{n} in {line!r}")
        words.add(word_mask(idx, n))
    if n is None:
        raise CodeParseError(1, "empty input, expected header 'n=<int>'")
    return Code(n, frozenset(words))
