"""Finite words and eventually periodic points of the full shift.

Points of the one-sided shift space on d symbols are infinite sequences;
everything this toolkit ever needs to name (orbit atoms, interval
endpoints, turning points) is eventually periodic, so that is the only
infinite-point representation provided.  Normal form is unique — the
period is primitive and the preperiod is as short as possible — which
makes equality, hashing and orbit-hit detection purely syntactic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .errors import InvalidInputError

Word = tuple[int, ...]


def check_word(symbols: Word, alphabet_size: int) -> None:
    if alphabet_size < 2:
        raise InvalidInputError(f"alphabet size must be >= 2, got {alphabet_size}")
    for s in symbols:
        if not 0 <= s < alphabet_size:
            raise InvalidInputError(f"symbol {s} out of range for alphabet of size {alphabet_size}")


def word_to_string(w: Word) -> str:
    """Render a word as a digit string (alphabets up to 10 symbols)."""
    if any(s > 9 for s in w):
        raise InvalidInputError("word serialization only supports alphabets of size <= 10")
    return "".join(str(s) for s in w)


def word_from_string(text: str, alphabet_size: int) -> Word:
    if not all(c.isdigit() for c in text):
        raise InvalidInputError(f"bad word literal {text!r}: digits only")
    w = tuple(int(c) for c in text)
    check_word(w, alphabet_size)
    return w


def all_words(alphabet_size: int, length: int) -> list[Word]:
    """All words of the given length in lexicographic order."""
    return [tuple(p) for p in itertools.product(range(alphabet_size), repeat=length)]


def word_index(w: Word, alphabet_size: int) -> int:
    """Position of w in the lexicographic listing of words of its length."""
    i = 0
    for s in w:
        i = i * alphabet_size + s
    return i


def word_at_index(i: int, alphabet_size: int, length: int) -> Word:
    out = []
    for _ in range(length):
        i, r = divmod(i, alphabet_size)
        out.append(r)
    out.reverse()
    return tuple(out)


def _primitive_root(period: Word) -> Word:
    """Shortest word whose repetition gives the argument."""
    n = len(period)
    for p in range(1, n + 1):
        if n % p == 0 and period[:p] * (n // p) == period:
            return period[:p]
    return period  # unreachable


@dataclass(frozen=True)
class EventuallyPeriodicPoint:
    """A point pre·(period)^infinity, kept in normal form.

    Normalization shortens the period to its primitive root and then
    absorbs trailing preperiod symbols into the cycle for as long as the
    last preperiod symbol equals the last period symbol (rotating the
    period right each time).  Two points are equal as sequences iff
    their normal forms are identical tuples, so dataclass equality is
    the right equality.
    """

    preperiod: Word
    period: Word
    alphabet_size: int = field(default=2)

    def __post_init__(self) -> None:
        if len(self.period) == 0:
            raise InvalidInputError("period must be nonempty")
        check_word(self.preperiod, self.alphabet_size)
        check_word(self.period, self.alphabet_size)
        pre = tuple(self.preperiod)
        per = _primitive_root(tuple(self.period))
        while pre and pre[-1] == per[-1]:
            pre = pre[:-1]
            per = per[-1:] + per[:-1]
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    # -- basic queries ------------------------------------------------

    def symbol(self, i: int) -> int:
        """The i-th symbol (0-based) of the sequence."""
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def prefix(self, n: int) -> Word:
        return tuple(self.symbol(i) for i in range(n))

    def transient_length(self) -> int:
        return len(self.preperiod)

    def period_length(self) -> int:
        return len(self.period)

    def is_periodic(self) -> bool:
        return not self.preperiod

    def __str__(self) -> str:
        return word_to_string(self.preperiod) + "(" + word_to_string(self.period) + ")"

    # -- construction from text ---------------------------------------

    @staticmethod
    def parse(text: str, alphabet_size: int) -> "EventuallyPeriodicPoint":
        """Parse the "pre(period)" serialization, e.g. "110(01)"."""
        text = text.strip()
        if text.count("(") != 1 or not text.endswith(")"):
            raise InvalidInputError(f"bad point literal {text!r}: expected pre(period)")
        pre_txt, per_txt = text[:-1].split("(")
        return EventuallyPeriodicPoint(
            word_from_string(pre_txt, alphabet_size),
            word_from_string(per_txt, alphabet_size),
            alphabet_size,
        )


def periodic_point(period: Word, alphabet_size: int) -> EventuallyPeriodicPoint:
    return EventuallyPeriodicPoint((), tuple(period), alphabet_size)


def apply_shift(p: EventuallyPeriodicPoint) -> EventuallyPeriodicPoint:
    """Drop the first symbol."""
    if p.preperiod:
        return EventuallyPeriodicPoint(p.preperiod[1:], p.period, p.alphabet_size)
    return EventuallyPeriodicPoint((), p.period[1:] + p.period[:1], p.alphabet_size)


def prepend(symbol: int, p: EventuallyPeriodicPoint) -> EventuallyPeriodicPoint:
    """The inverse branch of the shift that writes `symbol` in front."""
    if not 0 <= symbol < p.alphabet_size:
        raise InvalidInputError(f"symbol {symbol} out of range for alphabet of size {p.alphabet_size}")
    return EventuallyPeriodicPoint((symbol,) + p.preperiod, p.period, p.alphabet_size)


def prepend_word(w: Word, p: EventuallyPeriodicPoint) -> EventuallyPeriodicPoint:
    for symbol in reversed(w):
        p = prepend(symbol, p)
    return p


def first_disagreement(a: EventuallyPeriodicPoint, b: EventuallyPeriodicPoint) -> int | None:
    """Index of the first differing symbol, or None when the points are
    equal.  Checking up to preperiods plus one common period suffices:
    past that bound both sequences repeat with the same period."""
    if a.alphabet_size != b.alphabet_size:
        raise InvalidInputError("points live over different alphabets")
    bound = len(a.preperiod) + len(b.preperiod) + lcm(len(a.period), len(b.period))
    for i in range(bound):
        if a.symbol(i) != b.symbol(i):
            return i
    return None


def lex_compare(a: EventuallyPeriodicPoint, b: EventuallyPeriodicPoint) -> int:
    """-1, 0 or +1; the first disagreeing symbol decides."""
    i = first_disagreement(a, b)
    if i is None:
        return 0
    return -1 if a.symbol(i) < b.symbol(i) else 1


def distance(a: EventuallyPeriodicPoint, b: EventuallyPeriodicPoint, lam: Fraction) -> Fraction:
    """The metric lambda^(i+1) where i is the 0-based index of the first
    disagreement (so agreeing on exactly the first n symbols means
    distance lambda^(n+1)).  Exact, since lam is rational."""
    i = first_disagreement(a, b)
    if i is None:
        return Fraction(0)
    return Fraction(lam) ** (i + 1)


@dataclass(frozen=True)
class Cut:
    """A gap between two adjacent cylinders of the working depth: the
    supremum of the left one (tail (d-1)^inf) and the infimum of the
    right one (tail 0^inf).  A cut that degenerates to an end of the
    whole space carries equal representatives and at_boundary=True."""

    left_rep: EventuallyPeriodicPoint
    right_rep: EventuallyPeriodicPoint
    at_boundary: bool = False

    def __post_init__(self):
        if self.left_rep.alphabet_size != self.right_rep.alphabet_size:
            raise InvalidInputError("cut representatives over different alphabets")
        cmp = lex_compare(self.left_rep, self.right_rep)
        if self.at_boundary:
            if cmp != 0:
                raise InvalidInputError(
                    "boundary cut must repeat one representative")
        elif cmp >= 0:
            raise InvalidInputError(
                "cut needs left_rep strictly below right_rep")

    def __str__(self) -> str:
        if self.at_boundary:
            return f"boundary at {self.left_rep}"
        return f"({self.left_rep} | {self.right_rep})"


def cut_between_nodes(left_word: Word, right_word: Word, alphabet_size: int) -> Cut:
    """The cut separating the cylinder of left_word (from above) from
    the cylinder of right_word (from below)."""
    d = alphabet_size
    return Cut(
        EventuallyPeriodicPoint(tuple(left_word), (d - 1,), d),
        EventuallyPeriodicPoint(tuple(right_word), (0,), d))
