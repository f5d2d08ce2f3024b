"""Kantorovich transport between the two maximizing orbit measures
under cost -W: exact plans on the finite atom grid, dual feasibility of
the subaction pair, complementary slackness against the b-table, and
the permutation (graph) property of the optimal support.

One solver, with no arithmetic in its search.  J* vanishes on the
w-atoms, so every coupling costs at least the dual value -∫V dμ - ∫V*
dμ* - γ, with equality exactly when its support lies in {b = 0}: the
optimal permutations are the perfect matchings of the atom zero graph,
and the solver returns the lexicographically first.  Its cost is read
from the kernel table, so `cost == dual_value` certifies it.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from fractions import Fraction

from .duality import DualityReport
from .errors import InvariantViolation, PreconditionError
from .maxplus import cycle_word
from .words import EventuallyPeriodicPoint, apply_shift, word_index


@dataclass(frozen=True)
class OrbitMeasure:
    """Uniform measure on the p distinct shifts of one periodic point."""

    atoms: tuple[EventuallyPeriodicPoint, ...]

    @property
    def weight(self) -> Fraction:
        return Fraction(1, len(self.atoms))

    def node_indices(self, depth: int) -> tuple[int, ...]:
        return tuple(word_index(a.prefix(depth - 1), a.alphabet_size)
                     for a in self.atoms)


def _orbit_measure_from_cycle(g, cycle: tuple[int, ...]) -> OrbitMeasure:
    word = cycle_word(g, cycle)
    d = g.alphabet_size
    point = EventuallyPeriodicPoint((), word, d)
    atoms = [point]
    for _ in range(len(word) - 1):
        atoms.append(apply_shift(atoms[-1]))
    if len(set(atoms)) != len(atoms):
        raise InvariantViolation("simple cycle spelled a non-primitive word")
    atoms.sort(key=lambda p: p.prefix(2 * len(word) + 2))
    return OrbitMeasure(tuple(atoms))


def maximizing_orbit_measures(report: DualityReport,
                              ) -> tuple[OrbitMeasure, OrbitMeasure]:
    """The maximizing orbit measures of the potential (x side) and its
    dual (w side), as atom lists.  Needs both maximizers unique, which
    the duality report already guarantees."""
    cs, dcs = report.critical, report.dual_critical
    if not (cs.unique_maximizer and dcs.unique_maximizer):
        raise PreconditionError("orbit measures need unique maximizers")
    mu_x = _orbit_measure_from_cycle(report.graph, cs.orbits[0])
    mu_w = _orbit_measure_from_cycle(report.dual_graph, dcs.orbits[0])
    if len(mu_x.atoms) != len(mu_w.atoms):
        raise InvariantViolation(
            "maximizing orbits of A and A* have different periods")
    return mu_x, mu_w


@dataclass
class TransportPlan:
    """An exact coupling of the two orbit measures.  matrix[i][j] is
    the mass sent from x-atom i to w-atom j; cost is Σ plan·(-W)."""

    atoms_x: tuple[EventuallyPeriodicPoint, ...]
    atoms_w: tuple[EventuallyPeriodicPoint, ...]
    matrix: tuple[tuple[Fraction, ...], ...]
    cost: Fraction
    permutation: tuple[int, ...]           # x-atom i -> w-atom σ(i)

    @property
    def lp_only(self) -> bool:
        """Always False (no plan skips the exact search); the tracer reads it."""
        return False

    def support(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j)
                     for i, row in enumerate(self.matrix)
                     for j, v in enumerate(row) if v != 0)


def _augment(row: int, zeros: list[list[int]], owner: list[int | None],
             seen: set[int]) -> bool:
    """Kuhn's step: an alternating path from `row` to a column without
    owner, avoiding the columns in `seen` and adding those it visits;
    `owner` is rewritten along the path on success only."""
    for j in zeros[row]:
        if j not in seen:
            seen.add(j)
            if owner[j] is None or _augment(owner[j], zeros, owner, seen):
                owner[j] = row
                return True
    return False


def _first_perfect_matching(zeros: list[list[int]], x_atoms, w_atoms,
                            ) -> tuple[int, ...]:
    """The lexicographically first perfect matching σ of the graph that
    links row i to the ascending columns zeros[i], or InvariantViolation
    naming a Hall witness: x-atoms whose links fall among fewer w-atoms."""
    p = len(zeros)
    owner: list[int | None] = [None] * p
    for i in range(p):
        seen: set[int] = set()
        if not _augment(i, zeros, owner, seen):
            rows = sorted({i} | {owner[j] for j in seen})
            raise InvariantViolation(
                "no perfect matching on the zeros of b: x-atoms "
                + ", ".join(str(x_atoms[r]) for r in rows) + " reach only w-atoms "
                + (", ".join(str(w_atoms[j]) for j in sorted(seen)) or "(none)"))
    # row i keeps the smallest column that still admits a perfect
    # matching with the rows before it held in place
    fixed: set[int] = set()
    for i in range(p):
        col = owner.index(i)
        for j in zeros[i]:
            if j >= col:
                break
            if j not in fixed:
                held = owner[j]
                owner[j], owner[col] = i, None
                if _augment(held, zeros, owner, fixed | {j}):
                    col = j
                    break
                owner[j], owner[col] = held, i
        fixed.add(col)
    return tuple(owner.index(i) for i in range(p))


def solve_transport(report: DualityReport) -> TransportPlan:
    """Minimize Σ -W(w,x) over couplings of the report's two maximizing
    orbit measures: the first perfect matching of the zero graph that
    links x-atom x to the w-atoms in report.optimal_w_per_x[x]."""
    mu_x, mu_w = maximizing_orbit_measures(report)
    k = report.potential.depth
    x_nodes, w_nodes = mu_x.node_indices(k), mu_w.node_indices(k)
    zeros = [[j for j, wn in enumerate(w_nodes) if wn in report.optimal_w_per_x[xn]]
             for xn in x_nodes]
    perm = _first_perfect_matching(zeros, mu_x.atoms, mu_w.atoms)
    p = len(perm)
    matrix = tuple(tuple(Fraction(1, p) if perm[i] == j else Fraction(0)
                         for j in range(p)) for i in range(p))
    cost = Fraction(sum(-report.kernel.value(w_nodes[perm[i]], x_nodes[i])
                        for i in range(p)), p)
    return TransportPlan(mu_x.atoms, mu_w.atoms, matrix, cost, perm)


@dataclass(frozen=True)
class SlacknessReport:
    ok: bool
    # (x-atom index, w-atom index, b value, "feasibility"|"slackness"),
    # or (None, w-atom index, J* value, "deviation")
    violations: tuple[tuple[int | None, int, Fraction, str], ...]

    def __bool__(self) -> bool:
        return self.ok


def slackness_check(plan: TransportPlan, report: DualityReport) -> SlacknessReport:
    """Dual feasibility and complementary slackness of (-V, -V*) for
    the plan: b(x,w) = V(x) + V*(w) + J*(w) - W(w,x) + γ must be >= 0
    at every atom pair and exactly 0 on the plan's support, and J* must
    vanish on the w-atoms ("deviation"), since b contains J* and the
    bound cost >= dual_value does not."""
    k = report.potential.depth
    x_nodes = OrbitMeasure(plan.atoms_x).node_indices(k)
    w_nodes = OrbitMeasure(plan.atoms_w).node_indices(k)
    bad = []
    support = set(plan.support())
    for i, xn in enumerate(x_nodes):
        for j, wn in enumerate(w_nodes):
            b = Fraction(int(report.b_ints[xn, wn]), report.b_denom)
            if b < 0:
                bad.append((i, j, b, "feasibility"))
            if (i, j) in support and b != 0:
                bad.append((i, j, b, "slackness"))
    for j, wn in enumerate(w_nodes):
        if report.j_star[wn] != 0:
            bad.append((None, j, report.j_star[wn], "deviation"))
    return SlacknessReport(not bad, tuple(bad))


def graph_property_check(plan: TransportPlan) -> bool:
    """True iff every x-atom is coupled to exactly one w-atom, and no
    two x-atoms to the same one."""
    rows = [[j for j, v in enumerate(row) if v != 0] for row in plan.matrix]
    return (all(len(r) == 1 for r in rows)
            and len({r[0] for r in rows}) == len(rows))


def dual_value(plan: TransportPlan, report: DualityReport) -> Fraction:
    """-∫V dμ - ∫V* dμ* - γ: a lower bound on every feasible plan's
    cost when J* vanishes on the w-atoms (see slackness_check),
    attained exactly at the optimum."""
    k = report.potential.depth
    x_nodes = OrbitMeasure(plan.atoms_x).node_indices(k)
    w_nodes = OrbitMeasure(plan.atoms_w).node_indices(k)
    p = len(x_nodes)
    total = -sum(report.v.values[u] for u in x_nodes) * Fraction(1, p)
    total -= sum(report.v_star.values[u] for u in w_nodes) * Fraction(1, p)
    return total - report.gamma


def plan_csv(plan: TransportPlan) -> str:
    out = io.StringIO()
    out.write("x\\w," + ",".join(str(a) for a in plan.atoms_w) + "\n")
    for i, row in enumerate(plan.matrix):
        out.write(str(plan.atoms_x[i]) + ","
                  + ",".join(str(v) for v in row) + "\n")
    return out.getvalue()
