"""Seeded benchmark corpus, built without the library's algorithms.

Every potential is a plain table of exact rationals over the binary
words of one depth, in lexicographic order, written as a potential
document.  Planted potentials carry their maximizing mean and orbit word
by construction, so the answer checker knows them without asking the
library.  The named members (canonical_a2, constant, the distance
family and the de Bruijn Hamiltonian potential) are rebuilt here from
their definitions; the self-tests compare them with the library's own
constructors.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

Word = tuple[int, ...]

PLANT_MARGIN = Fraction(1, 16)
DEFAULT_BETAS = (1, 2, 4, 8, 16, 32, 64)


@dataclass(frozen=True)
class Potential:
    """One corpus entry.  mean and word are known only for inputs whose
    maximizing orbit is unique by construction."""

    name: str
    depth: int
    values: tuple[Fraction, ...]
    mean: Fraction | None = None
    word: Word | None = None

    @property
    def nodes(self) -> int:
        return 2 ** (self.depth - 1)


@dataclass(frozen=True)
class Job:
    command: str              # analyze | verify | scan | suite
    target: str               # potential name, or a suite label
    args: tuple[str, ...] = ()


def words(depth: int) -> list[Word]:
    return [tuple(w) for w in itertools.product((0, 1), repeat=depth)]


def _rank(w: Word) -> int:
    i = 0
    for s in w:
        i = 2 * i + s
    return i


def cyclic_windows(word: Word, length: int) -> list[Word]:
    p = len(word)
    return [tuple(word[(i + j) % p] for j in range(length)) for i in range(p)]


def _literal(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def document(pot: Potential) -> str:
    lines = ["alphabet_size: 2", f"depth: {pot.depth}", "values:"]
    for w, v in zip(words(pot.depth), pot.values):
        lines.append(f"  {''.join(map(str, w))}: {_literal(v)}")
    return "\n".join(lines) + "\n"


# -- planted-orbit potentials ----------------------------------------------

def planted(rng: random.Random, name: str, depth: int, period: int) -> Potential:
    """Random rationals on every window, then the k-windows of one
    random word (with distinct cyclic (k-1)-windows, hence a simple
    cycle of the de Bruijn graph) raised to the table maximum plus
    PLANT_MARGIN.  Any other cycle uses an edge at most the old maximum,
    so that word spells the unique maximizing orbit and its windows'
    common value is the maximizing mean."""
    if period > 2 ** (depth - 1):
        raise ValueError(f"period {period} exceeds the {2 ** (depth - 1)} nodes of depth {depth}")
    values = [Fraction(rng.randrange(-16, 17), rng.choice((1, 2, 4, 8)))
              for _ in range(2 ** depth)]
    while True:
        word = tuple(rng.randrange(2) for _ in range(period))
        if len(set(cyclic_windows(word, depth - 1))) == period:
            break
    top = max(values) + PLANT_MARGIN
    for w in cyclic_windows(word, depth):
        values[_rank(w)] = top
    return Potential(name, depth, tuple(values), top, word)


# -- named members -----------------------------------------------------------

def canonical_a2() -> Potential:
    return Potential("canonical_a2", 2, tuple(map(Fraction, (-1, 0, 0, -1))),
                     Fraction(0), (0, 1))


def constant(depth: int) -> Potential:
    """Identically zero: every cycle is maximizing."""
    return Potential(f"constant_d{depth}", depth, (Fraction(0),) * 2 ** depth)


def de_bruijn_sequence(order: int) -> Word:
    """Binary de Bruijn sequence of the given order (Lyndon-word
    concatenation), so its cyclic order-windows are all distinct."""
    a = [0] * (order + 1)
    seq: list[int] = []

    def gen(t: int, p: int) -> None:
        if t > order:
            if order % p == 0:
                seq.extend(a[1:p + 1])
            return
        a[t] = a[t - p]
        gen(t + 1, p)
        for j in range(a[t - p] + 1, 2):
            a[t] = j
            gen(t + 1, t)

    gen(1, 1)
    return tuple(seq)


@functools.lru_cache(maxsize=None)
def hamiltonian(depth: int) -> Potential:
    """0 on the windows of a de Bruijn Hamiltonian cycle, -1 elsewhere:
    its unique maximizing orbit visits every node."""
    cycle = de_bruijn_sequence(depth - 1)
    values = [Fraction(-1)] * 2 ** depth
    for w in cyclic_windows(cycle, depth):
        values[_rank(w)] = Fraction(0)
    return Potential(f"hamiltonian_d{depth}", depth, tuple(values), Fraction(0), cycle)


def _first_disagreement(u: Word, t: Word) -> int | None:
    """First index where the periodic points u^inf and t^inf differ."""
    for i in range(len(u) * len(t)):
        if u[i % len(u)] != t[i % len(t)]:
            return i
    return None


@functools.lru_cache(maxsize=None)
def leplaideur(n: int, lam: Fraction, depth: int) -> Potential:
    """Minus the distance lam^(i+1) from the periodic point of each
    depth-k word to the nearest of the targets: the period-2 orbit and
    the orbit of the periodic point spelled (01)^n 1 01.

    Every value is <= 0, and a window is 0 only when its periodic point
    is a target.  At even depth 2n+6 the odd period 2n+3 divides no
    window length, so the zero windows are exactly 0101... and 1010...:
    the period-2 orbit is the unique maximizer, with mean 0."""
    if depth % 2 or (depth % (2 * n + 3) == 0):
        raise ValueError("the planted (01) orbit is known only at even depths "
                         "that the long period does not divide")
    b = (0, 1) * n + (1, 0, 1)
    targets = [b[i:] + b[:i] for i in range(len(b))] + [(0, 1), (1, 0)]
    values = []
    for u in words(depth):
        nearest = Fraction(0)
        for t in targets:
            i = _first_disagreement(u, t)
            dist = Fraction(0) if i is None else Fraction(lam) ** (i + 1)
            nearest = dist if t is targets[0] else min(nearest, dist)
        values.append(-nearest)
    return Potential(f"leplaideur_n{n}_d{depth}", depth, tuple(values), Fraction(0), (0, 1))


# -- workloads ----------------------------------------------------------------

def _rng(seed: int, workload: str, label: str) -> random.Random:
    return random.Random(f"perfbench:{seed}:{workload}:{label}")


# (depth, orbit period) of each planted input.  Job time follows the
# period more than the values (an 8-atom transport search alone takes
# about 1 s), so every seed gets the same periods and only the values
# and words follow the seed.
EXACT_SLOTS = ((7, 3), (8, 7), (9, 11))


def exact_deep(seed: int) -> tuple[list[Potential], list[Job]]:
    pots = []
    for k, period in EXACT_SLOTS:
        rng = _rng(seed, "exact-deep", f"p{k}")
        pots.append(planted(rng, f"planted_d{k}", k, period))
    pots += [leplaideur(n, Fraction(1, 2), 2 * n + 6) for n in (1, 2, 3)]
    pots += [hamiltonian(8), hamiltonian(11), canonical_a2(), constant(6)]
    jobs = [Job(cmd, p.name) for p in pots for cmd in ("analyze", "verify")]
    return pots, jobs


# (depth, period) of each planted scan input.  Scan time varies by input
# (the spectral gap sets the power-iteration count) and most with the
# orbit period (a planted fixed point at depth 8 can double it), so the
# periods are fixed per slot and only the values follow the seed.  One
# slot per depth keeps a pass, run twice with the yardstick, near 40 s.
THERMO_SLOTS = ((6, 1), (7, 4), (8, 6))


def thermo_scan(seed: int) -> tuple[list[Potential], list[Job]]:
    pots = []
    for i, (k, period) in enumerate(THERMO_SLOTS):
        rng = _rng(seed, "thermo-scan", f"p{i}")
        pots.append(planted(rng, f"planted_d{k}_{i}", k, period))
    pots += [leplaideur(2, Fraction(1, 2), 10), hamiltonian(8), constant(6)]
    return pots, [Job("scan", p.name) for p in pots]


SMALL_DEPTH2 = 12          # fixed depth-2 inputs, whose full artifacts are pinned
SMALL_PER_DEPTH = 29       # seeded planted inputs at each of depths 3, 4 and 5
SUITES = (("suite_d3", ("--seed", "1", "--samples", "50", "--depth", "3")),
          ("suite_d4", ("--seed", "2", "--samples", "50", "--depth", "4")))


def small_batch(seed: int) -> tuple[list[Potential], list[Job]]:
    """Depth-2 inputs come from a fixed stream, so that analyze's full
    artifacts can be compared with references pinned at the seed commit;
    the values of depths 3-5 follow the run seed and are checked by
    exact properties.  Their periods cycle through 1..10 (1..4 at depth
    3, 1..8 at depth 4) by slot."""
    pots = [canonical_a2()]
    for i in range(SMALL_DEPTH2):
        rng = _rng(0, "small-batch", f"d2:{i}")
        pots.append(planted(rng, f"fixed_d2_{i}", 2, rng.randint(1, 2)))
    for k in (3, 4, 5):
        for i in range(SMALL_PER_DEPTH):
            rng = _rng(seed, "small-batch", f"d{k}:{i}")
            period = 1 + i % min(10, 2 ** (k - 1))       # fixed per slot, as in EXACT_SLOTS
            pots.append(planted(rng, f"planted_d{k}_{i}", k, period))
    jobs = [Job(cmd, p.name) for p in pots for cmd in ("analyze", "verify")]
    jobs += [Job("suite", label, args) for label, args in SUITES]
    return pots, jobs


WORKLOADS = {"exact-deep": exact_deep, "thermo-scan": thermo_scan,
             "small-batch": small_batch}


def build(workload: str, seed: int) -> tuple[list[Potential], list[Job]]:
    return WORKLOADS[workload](seed)


def digest(pots: list[Potential], jobs: list[Job]) -> str:
    h = hashlib.sha256()
    for p in pots:
        h.update(p.name.encode() + b"\0" + document(p).encode())
    for j in jobs:
        h.update(repr(j).encode())
    return h.hexdigest()
