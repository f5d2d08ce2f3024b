"""Sampling experiments around the generic picture: after a small
explicit perturbation, a random potential should have a unique
maximizing orbit on both sides, Aubry set equal to the orbit support,
strictly positive error off the optimal edges, and good boundary
behaviour.  None of this is proved here — the suite draws samples,
applies the perturbation device, and counts.

Also home to two regularity inequalities that hold exactly at every
depth: the 1-Lipschitz dependence of the maximizing mean on the
potential, and the geometric bound on the subaction's modulus of
continuity in terms of the potential's.
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass
from fractions import Fraction

from .duality import build_duality_report, dual_potential, goodness_on_graph, involution_kernel
from .errors import InvalidInputError, PreconditionError
from .graph import build_de_bruijn
from .maxplus import (aubry_set, calibrated_subaction, cycle_word,
                      error_function, max_mean_cycle)
from .potentials import LocallyConstantPotential, holder_seminorm


def _cycle_sort_key(g, cycle: tuple[int, ...]):
    """Lexicographic key for a simple cycle: the smallest rotation of
    its spelled word, compared as the periodic stream it generates."""
    word = cycle_word(g, cycle)
    p = len(word)
    best = min(tuple(word[(s + t) % p] for t in range(p)) for s in range(p))
    # repeat to a common horizon so streams of different periods compare
    horizon = 2 * g.n_nodes + 2
    stream = tuple(best[t % p] for t in range(horizon))
    return (stream, p)


def perturb_to_unique(a: LocallyConstantPotential,
                      eps: Fraction) -> LocallyConstantPotential:
    """Subtract eps from every cylinder off the lexicographically
    smallest maximizing cycle.  For eps > 0 that cycle becomes the
    strict unique maximizer (any other cycle keeps at least one
    penalized edge); eps = 0 returns the potential unchanged."""
    eps = Fraction(eps)
    if eps < 0:
        raise InvalidInputError("perturbation size must be >= 0")
    if eps == 0:
        return a
    g = build_de_bruijn(a.alphabet_size, a.depth, a)
    cs = max_mean_cycle(g)
    chosen = min(cs.orbits, key=lambda c: _cycle_sort_key(g, c))
    keep = frozenset(chosen)
    vals = tuple(v if e in keep else v - eps
                 for e, v in enumerate(a.values))
    return LocallyConstantPotential(a.alphabet_size, a.depth, vals)


@dataclass(frozen=True)
class GenericSampleRow:
    index: int
    unique: bool
    unique_dual: bool
    aubry_equals_support: bool | None
    aubry_equals_support_dual: bool | None
    positive_off_aubry: bool | None
    good: bool | None
    good_dual: bool | None


_FLAGS = ("unique", "unique_dual", "aubry_equals_support",
          "aubry_equals_support_dual", "positive_off_aubry",
          "good", "good_dual")


@dataclass(frozen=True)
class GenericSuiteReport:
    depth: int
    alphabet_size: int
    seed: int
    eps: Fraction
    perturbed: bool
    rows: tuple[GenericSampleRow, ...]

    def counts(self) -> dict[str, int]:
        out = {}
        for flag in _FLAGS:
            out[flag] = sum(1 for r in self.rows if getattr(r, flag) is True)
        return out

    def csv(self) -> str:
        buf = io.StringIO()
        buf.write("index," + ",".join(_FLAGS) + "\n")
        for r in self.rows:
            cells = []
            for flag in _FLAGS:
                v = getattr(r, flag)
                cells.append("" if v is None else str(int(v)))
            buf.write(f"{r.index}," + ",".join(cells) + "\n")
        buf.write("\n")
        buf.write("summary,flag,satisfied,total\n")
        total = len(self.rows)
        for flag, c in self.counts().items():
            buf.write(f"summary,{flag},{c},{total}\n")
        return buf.getvalue()

    def summary(self) -> str:
        total = len(self.rows)
        mode = "perturbed" if self.perturbed else "raw"
        lines = [f"{total} {mode} samples at depth {self.depth}, "
                 f"alphabet {self.alphabet_size}, seed {self.seed}"]
        for flag, c in self.counts().items():
            lines.append(f"  {flag}: {c}/{total}")
        return "\n".join(lines)


def _side_flags(pot: LocallyConstantPotential) -> tuple[bool, bool, bool]:
    """(unique, aubry == orbit support, R > 0 off critical edges whose
    target lies in the Aubry set) for one potential."""
    g = build_de_bruijn(pot.alphabet_size, pot.depth, pot)
    cs = max_mean_cycle(g)
    aubry = aubry_set(g, cs)
    support = frozenset(g.source(e) for orbit in cs.orbits for e in orbit)
    v = calibrated_subaction(g, cs)
    r = error_function(g, cs, v)
    off_ok = all(r.values[e] > 0
                 for e in range(g.n_edges)
                 if e not in cs.critical_edges and g.target(e) in aubry)
    return cs.unique_maximizer, aubry == support, off_ok


def sample_generic_suite(seed: int, count: int, depth: int,
                         alphabet_size: int = 2,
                         eps: Fraction = Fraction(1, 16),
                         perturb: bool = True) -> GenericSuiteReport:
    """Draw `count` random rational potentials (sub-seeded from `seed`,
    order-independent), optionally perturb each toward uniqueness, and
    record the generic flags per sample."""
    if count < 0:
        raise InvalidInputError("count must be >= 0")
    rows = []
    for i in range(count):
        rng = random.Random(f"{seed}:{i}")
        n = alphabet_size ** depth
        vals = tuple(Fraction(rng.randrange(-16, 17),
                              rng.choice((1, 2, 4, 8))) for _ in range(n))
        a = LocallyConstantPotential(alphabet_size, depth, vals)
        if perturb:
            a = perturb_to_unique(a, eps)
        unique, aubry_eq, off_ok = _side_flags(a)
        a_star = dual_potential(a, involution_kernel(a))
        unique_dual, aubry_eq_dual, _ = _side_flags(a_star)

        good = good_dual = None
        if unique and unique_dual:
            try:
                rep = build_duality_report(a)
                good = goodness_on_graph(rep.dual_graph, rep.dual_critical,
                                         rep.r_star).good
                rep_star = build_duality_report(a_star)
                good_dual = goodness_on_graph(rep_star.dual_graph,
                                              rep_star.dual_critical,
                                              rep_star.r_star).good
            except PreconditionError:
                pass
        rows.append(GenericSampleRow(
            index=i, unique=unique, unique_dual=unique_dual,
            aubry_equals_support=aubry_eq if unique else None,
            aubry_equals_support_dual=aubry_eq_dual if unique_dual else None,
            positive_off_aubry=off_ok if unique else None,
            good=good, good_dual=good_dual))
    return GenericSuiteReport(depth=depth, alphabet_size=alphabet_size,
                              seed=seed, eps=Fraction(eps), perturbed=perturb,
                              rows=tuple(rows))


def lipschitz_mean_gap(a: LocallyConstantPotential,
                       b: LocallyConstantPotential) -> tuple[Fraction, Fraction]:
    """(|m(A) - m(B)|, ||A - B||_inf).  The first never exceeds the
    second: means of the same cycle differ by at most the sup norm."""
    ga = build_de_bruijn(a.alphabet_size, a.depth, a)
    gb = build_de_bruijn(b.alphabet_size, b.depth, b)
    ma = max_mean_cycle(ga).mean
    mb = max_mean_cycle(gb).mean
    return abs(ma - mb), (a - b).sup_norm()


def subaction_regularity_gap(a: LocallyConstantPotential,
                             ratio: Fraction) -> tuple[Fraction, Fraction]:
    """(seminorm of V, (t/(1-t)) * seminorm of A) at the metric scale
    t = ratio in (0,1).  The subaction inherits the potential's modulus
    of continuity with the geometric factor; depth-1 potentials have a
    constant V, seminorm 0."""
    t = Fraction(ratio)
    if not 0 < t < 1:
        raise InvalidInputError("metric ratio must lie in (0,1)")
    g = build_de_bruijn(a.alphabet_size, a.depth, a)
    cs = max_mean_cycle(g)
    v = calibrated_subaction(g, cs)
    bound = t / (1 - t) * holder_seminorm(a, t)
    if a.depth == 1:
        return Fraction(0), bound
    v_pot = LocallyConstantPotential(a.alphabet_size, a.depth - 1, v.values)
    return holder_seminorm(v_pot, t), bound
