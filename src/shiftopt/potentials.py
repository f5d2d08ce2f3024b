"""Locally constant potentials and the Hölder families they approximate.

A depth-k potential is a complete table of exact rationals over all d^k
words; its value at a point depends only on the first k symbols.  Hölder
potentials enter the toolkit only through such projections — the
canonical representative of a depth-k cylinder [u] is the periodic point
u^∞, and a distance family -d(., targets) is projected by evaluating at
those representatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvalidInputError, PotentialParseError
from .words import (
    EventuallyPeriodicPoint,
    Word,
    all_words,
    distance,
    periodic_point,
    word_from_string,
    word_index,
    word_to_string,
)


@dataclass(frozen=True)
class HolderFamilySpec:
    """How a potential table was produced (metadata for error bounds).

    kind is one of "distance-to-set", "explicit-table", "random".
    Distance families carry the target points and the metric parameter
    lambda; alpha is the Hölder exponent the family is filed under.
    """

    kind: str
    lam: Fraction = Fraction(1, 2)
    alpha: Fraction = Fraction(1)
    targets: tuple[EventuallyPeriodicPoint, ...] = ()
    seed: int | None = None
    value_range: tuple[Fraction, Fraction] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("distance-to-set", "explicit-table", "random"):
            raise InvalidInputError(f"unknown family kind {self.kind!r}")
        if not 0 < self.lam < 1:
            raise InvalidInputError("metric parameter lambda must lie in (0,1)")
        if self.kind == "distance-to-set" and not self.targets:
            raise InvalidInputError("distance-to-set family needs at least one target")


@dataclass(frozen=True)
class LocallyConstantPotential:
    """Complete value table over the d^k cylinders of depth k.

    values are indexed by the lexicographic rank of the word (its base-d
    numeral), so `values[word_index(u, d)]` is the value on [u].
    """

    alphabet_size: int
    depth: int
    values: tuple[Fraction, ...]
    family: HolderFamilySpec | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise InvalidInputError(f"depth must be >= 1, got {self.depth}")
        if self.alphabet_size < 2:
            raise InvalidInputError(f"alphabet size must be >= 2, got {self.alphabet_size}")
        expected = self.alphabet_size ** self.depth
        if len(self.values) != expected:
            raise InvalidInputError(
                f"table has {len(self.values)} entries, needs {expected}")
        if not all(isinstance(v, Fraction) for v in self.values):
            object.__setattr__(self, "values",
                               tuple(Fraction(v) for v in self.values))

    def value(self, w: Word) -> Fraction:
        if len(w) < self.depth:
            raise InvalidInputError(
                f"word of length {len(w)} cannot determine a depth-{self.depth} value")
        return self.values[word_index(w[:self.depth], self.alphabet_size)]

    def value_at(self, p: EventuallyPeriodicPoint) -> Fraction:
        return self.value(p.prefix(self.depth))

    def as_dict(self) -> dict[Word, Fraction]:
        return {w: self.values[i]
                for i, w in enumerate(all_words(self.alphabet_size, self.depth))}

    def words(self) -> list[Word]:
        return all_words(self.alphabet_size, self.depth)

    # -- pointwise arithmetic (same alphabet; depths may differ, the
    #    shallower table is lifted) --------------------------------------

    def _binary(self, other: "LocallyConstantPotential", op) -> "LocallyConstantPotential":
        if self.alphabet_size != other.alphabet_size:
            raise InvalidInputError("potentials live over different alphabets")
        k = max(self.depth, other.depth)
        a, b = lift(self, k), lift(other, k)
        return LocallyConstantPotential(
            self.alphabet_size, k,
            tuple(op(x, y) for x, y in zip(a.values, b.values)))

    def __add__(self, other: "LocallyConstantPotential") -> "LocallyConstantPotential":
        return self._binary(other, lambda x, y: x + y)

    def __sub__(self, other: "LocallyConstantPotential") -> "LocallyConstantPotential":
        return self._binary(other, lambda x, y: x - y)

    def add_constant(self, c: Fraction) -> "LocallyConstantPotential":
        c = Fraction(c)
        return LocallyConstantPotential(
            self.alphabet_size, self.depth,
            tuple(v + c for v in self.values))

    def scale(self, c: Fraction) -> "LocallyConstantPotential":
        c = Fraction(c)
        return LocallyConstantPotential(
            self.alphabet_size, self.depth,
            tuple(v * c for v in self.values))

    def sup_norm(self) -> Fraction:
        return max(abs(v) for v in self.values)


def from_dict(alphabet_size: int, depth: int, table: dict[Word, Fraction],
              family: HolderFamilySpec | None = None) -> LocallyConstantPotential:
    vals: list[Fraction | None] = [None] * alphabet_size ** depth
    for w, v in table.items():
        if len(w) != depth:
            raise InvalidInputError(f"word {w} has wrong length for depth {depth}")
        vals[word_index(w, alphabet_size)] = Fraction(v)
    if any(v is None for v in vals):
        raise InvalidInputError("table is incomplete")
    return LocallyConstantPotential(alphabet_size, depth, tuple(vals), family)  # type: ignore[arg-type]


def constant(alphabet_size: int, depth: int, c: Fraction = Fraction(0)) -> LocallyConstantPotential:
    return LocallyConstantPotential(
        alphabet_size, depth, (Fraction(c),) * alphabet_size ** depth)


def lift(pot: LocallyConstantPotential, depth: int) -> LocallyConstantPotential:
    """View a depth-j table as a depth-k table (k >= j): the value on a
    longer word is the value on its j-prefix."""
    if depth < pot.depth:
        raise InvalidInputError(f"cannot lower depth {pot.depth} to {depth}")
    if depth == pot.depth:
        return pot
    d = pot.alphabet_size
    reps = d ** (depth - pot.depth)
    vals = tuple(v for v in pot.values for _ in range(reps))
    return LocallyConstantPotential(d, depth, vals, pot.family)


def coboundary(transfer: LocallyConstantPotential) -> LocallyConstantPotential:
    """The potential u∘shift − u of a depth-m table u, itself locally
    constant at depth m+1.  Every such potential integrates to zero
    against every invariant measure."""
    d = transfer.alphabet_size
    k = transfer.depth + 1
    vals = tuple(
        transfer.value(w[1:]) - transfer.value(w[:-1])
        for w in all_words(d, k))
    return LocallyConstantPotential(d, k, vals)


def oscillation(pot: LocallyConstantPotential, agree: int) -> Fraction:
    """Largest |value difference| over pairs of words that agree on their
    first `agree` symbols (and differ at position agree)."""
    if not 0 <= agree < pot.depth:
        raise InvalidInputError(f"agreement length must be in [0, {pot.depth})")
    d = pot.alphabet_size
    best = Fraction(0)
    for prefix_rank in range(d ** agree):
        block = d ** (pot.depth - agree)
        segment = pot.values[prefix_rank * block:(prefix_rank + 1) * block]
        sub = d ** (pot.depth - agree - 1)
        groups = [segment[a * sub:(a + 1) * sub] for a in range(d)]
        lo = min(min(grp) for grp in groups)
        hi = max(max(grp) for grp in groups)
        best = max(best, hi - lo)
    return best


def holder_seminorm(pot: LocallyConstantPotential, lam: Fraction,
                    alpha: int = 1) -> Fraction:
    """Hölder seminorm of the locally constant function at the metric
    lambda^N: max over disagreement depths j of oscillation(j) / lam^((j+1)·alpha).
    Integer alpha keeps the result rational."""
    lam = Fraction(lam)
    if not 0 < lam < 1:
        raise InvalidInputError("lambda must lie in (0,1)")
    if alpha < 1 or int(alpha) != alpha:
        raise InvalidInputError("only integer Hölder exponents stay rational here")
    return max(oscillation(pot, j) / lam ** ((j + 1) * alpha)
               for j in range(pot.depth))


# -- Hölder families ------------------------------------------------------

def cylinder_representative(u: Word, alphabet_size: int) -> EventuallyPeriodicPoint:
    """The canonical point of [u]: u repeated periodically."""
    if not u:
        raise InvalidInputError("empty word has no representative")
    return periodic_point(u, alphabet_size)


def project_distance_family(spec: HolderFamilySpec, depth: int) -> LocallyConstantPotential:
    """Depth-k table of -d(., targets): the value on [u] is minus the
    metric distance from u^∞ to the nearest target point."""
    if spec.kind != "distance-to-set":
        raise InvalidInputError(f"cannot project family of kind {spec.kind!r}")
    d = spec.targets[0].alphabet_size
    vals = []
    for u in all_words(d, depth):
        rep = cylinder_representative(u, d)
        vals.append(-min(distance(rep, t, spec.lam) for t in spec.targets))
    return LocallyConstantPotential(d, depth, tuple(vals), spec)


def leplaideur_member(n: int, lam: Fraction, depth: int) -> LocallyConstantPotential:
    """Member n of the family of distance potentials whose targets are
    the period-2 orbit {(01)^∞, (10)^∞} together with the orbit of the
    (2n+3)-periodic point spelled (01)^n 1 01.

    For n = 1 the period word is 01101.  Both target orbits are zeros
    of the full potential, so it has two maximizing orbits, and which
    one the depth-k table keeps depends on the parity of k.  At even
    depths the period-2 orbit is typically the table's unique maximizer
    (mean 0), with a dual margin that decays as n grows — the standard
    stress test for dual goodness.  At odd depths it is not: the table
    of n = 1 is maximized by 011 at k = 3 and by 01011 at k = 5 and 7,
    and that of n = 2 by 0101011 at k = 7.
    """
    if n < 1:
        raise InvalidInputError("family index n must be >= 1")
    if depth < 1:
        raise InvalidInputError("depth must be >= 1")
    b = (0, 1) * n + (1, 0, 1)
    z = periodic_point(b, 2)
    orbit = []
    for _ in range(len(b)):
        orbit.append(z)
        z = EventuallyPeriodicPoint((), z.period[1:] + z.period[:1], 2)
    targets = tuple(orbit) + (periodic_point((0, 1), 2), periodic_point((1, 0), 2))
    spec = HolderFamilySpec("distance-to-set", Fraction(lam), Fraction(1), targets)
    return project_distance_family(spec, depth)


def projection_error_bound(spec: HolderFamilySpec, depth: int) -> Fraction:
    """Upper bound on sup|A − A_k| for the depth-k projection A_k.

    Distance families are 1-Hölder with seminorm at most 1, giving
    lambda^(k·alpha); explicit and random tables are already locally
    constant, so the bound is 0.  A fractional exponent k·alpha is
    rounded down, which only loosens the bound (lambda < 1).
    """
    if spec.kind != "distance-to-set":
        return Fraction(0)
    exponent = Fraction(depth) * spec.alpha
    return Fraction(spec.lam) ** int(exponent)


# -- file format -----------------------------------------------------------
#
# alphabet_size: 2
# depth: 2
# values:
#   00: -1
#   01: 0
#   10: 0
#   11: -1
# family:                (optional)
#   kind: distance-to-set
#   lambda: 1/2
#   alpha: 1
#   targets: (01), (10)
#
# Values accept integer, p/q, and decimal literals; all are read exactly.

def _parse_rational(text: str, where: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise PotentialParseError(f"{where}: {text.strip()!r} is not an exact rational") from exc


def loads_potential(document: str) -> LocallyConstantPotential:
    """Parse a potential document (see the format sketch above).

    Raises PotentialParseError on missing cylinders, duplicate keys,
    or literals that are not exact rationals.
    """
    top: dict[str, str] = {}
    value_lines: dict[str, str] = {}
    family_lines: dict[str, str] = {}
    section: dict[str, str] | None = None
    for lineno, raw in enumerate(document.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        indented = line[0] in " \t"
        key, sep, rest = line.strip().partition(":")
        if not sep:
            raise PotentialParseError(f"line {lineno}: expected 'key: value', got {raw!r}")
        key, rest = key.strip(), rest.strip()
        if not indented:
            if key == "values":
                section = value_lines
            elif key == "family":
                section = family_lines
            else:
                section = None
                if key in top:
                    raise PotentialParseError(f"line {lineno}: duplicate field {key!r}")
                top[key] = rest
        else:
            if section is None:
                raise PotentialParseError(f"line {lineno}: stray indented line {raw!r}")
            if key in section:
                raise PotentialParseError(f"line {lineno}: duplicate key {key!r}")
            section[key] = rest

    for required in ("alphabet_size", "depth"):
        if required not in top:
            raise PotentialParseError(f"missing field {required!r}")
    try:
        d = int(top["alphabet_size"])
        k = int(top["depth"])
    except ValueError as exc:
        raise PotentialParseError("alphabet_size and depth must be integers") from exc
    if d < 2 or d > 10:
        raise PotentialParseError(f"alphabet_size must be in [2, 10], got {d}")
    if k < 1:
        raise PotentialParseError(f"depth must be >= 1, got {k}")

    expected = d ** k
    vals: list[Fraction | None] = [None] * expected
    for word_txt, lit in value_lines.items():
        try:
            w = word_from_string(word_txt, d)
        except InvalidInputError as exc:
            raise PotentialParseError(f"bad cylinder key {word_txt!r}") from exc
        if len(w) != k:
            raise PotentialParseError(f"cylinder key {word_txt!r} has length {len(w)}, expected {k}")
        vals[word_index(w, d)] = _parse_rational(lit, f"value of {word_txt!r}")
    missing = expected - sum(v is not None for v in vals)
    if missing:
        raise PotentialParseError(f"table incomplete: {missing} of {expected} cylinders missing")

    family = None
    if family_lines:
        kind = family_lines.get("kind", "explicit-table")
        lam = _parse_rational(family_lines["lambda"], "family lambda") if "lambda" in family_lines else Fraction(1, 2)
        alpha = _parse_rational(family_lines["alpha"], "family alpha") if "alpha" in family_lines else Fraction(1)
        targets: tuple[EventuallyPeriodicPoint, ...] = ()
        if "targets" in family_lines:
            try:
                targets = tuple(EventuallyPeriodicPoint.parse(t, d)
                                for t in family_lines["targets"].split(",") if t.strip())
            except InvalidInputError as exc:
                raise PotentialParseError(f"bad family targets: {exc}") from exc
        try:
            family = HolderFamilySpec(kind, lam, alpha, targets)
        except InvalidInputError as exc:
            raise PotentialParseError(str(exc)) from exc

    return LocallyConstantPotential(d, k, tuple(vals), family)  # type: ignore[arg-type]


def load_potential(path) -> LocallyConstantPotential:
    """Read and parse a potential file; see loads_potential."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads_potential(fh.read())


def _rational_literal(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def dumps_potential(pot: LocallyConstantPotential) -> str:
    """Serialize to the document format; rationals round-trip bit-exactly."""
    lines = [f"alphabet_size: {pot.alphabet_size}", f"depth: {pot.depth}", "values:"]
    for w in all_words(pot.alphabet_size, pot.depth):
        lines.append(f"  {word_to_string(w)}: {_rational_literal(pot.value(w))}")
    fam = pot.family
    if fam is not None:
        lines.append("family:")
        lines.append(f"  kind: {fam.kind}")
        lines.append(f"  lambda: {_rational_literal(fam.lam)}")
        lines.append(f"  alpha: {_rational_literal(fam.alpha)}")
        if fam.targets:
            lines.append("  targets: " + ", ".join(str(t) for t in fam.targets))
    return "\n".join(lines) + "\n"


def save_potential(pot: LocallyConstantPotential, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_potential(pot))


def canonical_a2() -> LocallyConstantPotential:
    """The running example: depth-2 table -1,0,0,-1 whose maximizing
    orbit is the period-2 cycle."""
    return from_dict(2, 2, {
        (0, 0): Fraction(-1), (0, 1): Fraction(0),
        (1, 0): Fraction(0), (1, 1): Fraction(-1)})
