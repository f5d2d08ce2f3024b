"""Kantorovich transport between the two maximizing orbit measures
under cost -W: exact plans on the finite atom grid, dual feasibility of
the subaction pair, complementary slackness against the b-table, and
the permutation (graph) property of the optimal support.

Two independent solvers: exhaustive permutation search (the optimum is
attained at a permutation because the marginals are uniform) and an
exact rational transportation simplex.  They must agree on the optimal
cost; the simplex is the oracle, the permutation search the workhorse.
"""

from __future__ import annotations

import io
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .duality import DualityReport, KernelTable
from .errors import InvariantViolation, PreconditionError
from .maxplus import cycle_word
from .words import EventuallyPeriodicPoint, apply_shift

_EXHAUSTIVE_ATOMS = 8
_SIMPLEX_CAP = 100_000


@dataclass(frozen=True)
class OrbitMeasure:
    """Uniform measure on the p distinct shifts of one periodic point."""

    atoms: tuple[EventuallyPeriodicPoint, ...]

    @property
    def weight(self) -> Fraction:
        return Fraction(1, len(self.atoms))

    def node_indices(self, depth: int) -> tuple[int, ...]:
        d = self.atoms[0].alphabet_size
        out = []
        for a in self.atoms:
            idx = 0
            for s in a.prefix(depth - 1):
                idx = idx * d + s
            out.append(idx)
        return tuple(out)


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
    permutation: tuple[int, ...] | None    # x-atom i -> w-atom σ(i), if support is one
    lp_only: bool                          # p > 8: permutation search skipped

    def support(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j)
                     for i, row in enumerate(self.matrix)
                     for j, v in enumerate(row) if v != 0)


def _atom_cost_table(mu_x: OrbitMeasure, mu_w: OrbitMeasure,
                     w: KernelTable) -> list[list[Fraction]]:
    k = w.depth
    x_nodes = mu_x.node_indices(k)
    w_nodes = mu_w.node_indices(k)
    return [[-w.value(w_nodes[j], x_nodes[i])
             for j in range(len(w_nodes))] for i in range(len(x_nodes))]


def _best_permutation(cost: list[list[Fraction]]) -> tuple[Fraction, tuple[int, ...]]:
    p = len(cost)
    best = None
    best_perm = None
    for perm in itertools.permutations(range(p)):
        total = sum(cost[i][perm[i]] for i in range(p))
        if best is None or total < best:
            best, best_perm = total, perm
    return Fraction(best, p), best_perm


def _transport_simplex(cost: list[list[Fraction]], mass: Fraction,
                       ) -> tuple[Fraction, list[list[Fraction]]]:
    """Exact transportation simplex for uniform marginals `mass` per
    atom: northwest-corner start, tree potentials, Bland entering rule.
    Returns (total cost, plan matrix)."""
    p = len(cost)
    plan = [[Fraction(0)] * p for _ in range(p)]
    basis: set[tuple[int, int]] = set()
    # northwest corner: uniform marginals fill the diagonal; pad the
    # basis to a spanning tree with zero cells just below it
    supply = [mass] * p
    demand = [mass] * p
    i = j = 0
    while i < p and j < p:
        move = min(supply[i], demand[j])
        plan[i][j] = move
        basis.add((i, j))
        supply[i] -= move
        demand[j] -= move
        if supply[i] == 0 and i + 1 < p:
            i += 1
        elif demand[j] == 0:
            j += 1
        else:
            i += 1
    for r in range(p - 1):          # degenerate padding cells
        if (r + 1, r) not in basis and len(basis) < 2 * p - 1:
            basis.add((r + 1, r))
    while len(basis) < 2 * p - 1:
        for r in range(p):
            for c in range(p):
                if (r, c) not in basis:
                    basis.add((r, c))
                    break
            else:
                continue
            break

    for _ in range(_SIMPLEX_CAP):
        # potentials from the basis tree: u_i + v_j = c_ij
        u: list[Fraction | None] = [None] * p
        v: list[Fraction | None] = [None] * p
        u[0] = Fraction(0)
        pending = set(basis)
        changed = True
        while pending and changed:
            changed = False
            for (bi, bj) in sorted(pending):
                if u[bi] is not None and v[bj] is None:
                    v[bj] = cost[bi][bj] - u[bi]
                elif v[bj] is not None and u[bi] is None:
                    u[bi] = cost[bi][bj] - v[bj]
                elif u[bi] is not None and v[bj] is not None:
                    pass
                else:
                    continue
                pending.discard((bi, bj))
                changed = True
        if any(x is None for x in u) or any(x is None for x in v):
            raise InvariantViolation("degenerate basis lost tree connectivity")

        entering = None
        for r in range(p):
            for c in range(p):
                if (r, c) not in basis and cost[r][c] - u[r] - v[c] < 0:
                    entering = (r, c)
                    break
            if entering:
                break
        if entering is None:
            total = sum(plan[r][c] * cost[r][c] for r in range(p) for c in range(p))
            return total, plan

        # unique cycle: path from entering's column back to its row
        # through the basis tree, alternating col/row moves
        adj_row: dict[int, list[int]] = {r: [] for r in range(p)}
        adj_col: dict[int, list[int]] = {c: [] for c in range(p)}
        for (bi, bj) in basis:
            adj_row[bi].append(bj)
            adj_col[bj].append(bi)
        start_r, start_c = entering
        # DFS over alternating tree from row start_r to column start_c
        path = None
        stack = [(("r", start_r), [("r", start_r)])]
        seen = {("r", start_r)}
        while stack:
            (kind, idx), trail = stack.pop()
            if kind == "r":
                for c in adj_row[idx]:
                    node = ("c", c)
                    if node in seen:
                        continue
                    nt = trail + [node]
                    if c == start_c:
                        path = nt
                        stack.clear()
                        break
                    seen.add(node)
                    stack.append((node, nt))
            else:
                for r in adj_col[idx]:
                    node = ("r", r)
                    if node not in seen:
                        seen.add(node)
                        stack.append((node, trail + [node]))
        if path is None:
            raise InvariantViolation("no pivot cycle through basis tree")
        cells = [entering]
        for a, b in zip(path, path[1:]):
            if a[0] == "r":
                cells.append((a[1], b[1]))
            else:
                cells.append((b[1], a[1]))
        # cells alternate +,-,+,- starting with entering at +
        minus = cells[1::2]
        theta = min(plan[r][c] for (r, c) in minus)
        leave = min((rc for rc in minus if plan[rc[0]][rc[1]] == theta))
        sign = 1
        for (r, c) in cells:
            plan[r][c] += theta if sign > 0 else -theta
            sign = -sign
        basis.discard(leave)
        basis.add(entering)
    raise InvariantViolation("transportation simplex exceeded its pivot cap")


def solve_transport(mu_x: OrbitMeasure, mu_w: OrbitMeasure,
                    w: KernelTable) -> TransportPlan:
    """Minimize Σ -W(w,x) over couplings of the two orbit measures.

    Up to 8 atoms: exhaustive permutation search, cross-checked against
    the exact LP — their optimal costs must coincide (the uniform
    transportation polytope has permutation vertices).  Above 8 atoms
    the permutation search is skipped and the plan is LP-only, flagged.
    """
    p = len(mu_x.atoms)
    if len(mu_w.atoms) != p:
        raise PreconditionError("atom counts differ; not a square problem")
    cost = _atom_cost_table(mu_x, mu_w, w)
    mass = Fraction(1, p)

    lp_cost, lp_plan = _transport_simplex(cost, mass)
    for r in range(p):
        if sum(lp_plan[r]) != mass or sum(row[r] for row in lp_plan) != mass:
            raise InvariantViolation("LP plan lost its marginals")

    if p <= _EXHAUSTIVE_ATOMS:
        perm_cost, perm = _best_permutation(cost)
        if perm_cost != lp_cost:
            raise InvariantViolation(
                f"permutation optimum {perm_cost} != LP optimum {lp_cost}")
        matrix = tuple(tuple(mass if perm[i] == j else Fraction(0)
                             for j in range(p)) for i in range(p))
        return TransportPlan(mu_x.atoms, mu_w.atoms, matrix, perm_cost,
                             perm, lp_only=False)

    matrix = tuple(tuple(row) for row in lp_plan)
    perm = _plan_permutation(matrix)
    return TransportPlan(mu_x.atoms, mu_w.atoms, matrix, lp_cost,
                         perm, lp_only=True)


def _plan_permutation(matrix) -> tuple[int, ...] | None:
    perm = []
    for row in matrix:
        nz = [j for j, x in enumerate(row) if x != 0]
        if len(nz) != 1:
            return None
        perm.append(nz[0])
    return tuple(perm) if len(set(perm)) == len(perm) else None


@dataclass(frozen=True)
class SlacknessReport:
    ok: bool
    # (x-atom index, w-atom index, b value, "feasibility"|"slackness")
    violations: tuple[tuple[int, int, Fraction, str], ...]

    def __bool__(self) -> bool:
        return self.ok


def slackness_check(plan: TransportPlan, report: DualityReport) -> SlacknessReport:
    """Dual feasibility and complementary slackness of (-V, -V*) for
    the plan: b(x,w) = V(x) + V*(w) + J*(w) - W(w,x) + γ must be >= 0
    at every atom pair and exactly 0 on the plan's support."""
    k = report.potential.depth
    x_nodes = OrbitMeasure(plan.atoms_x).node_indices(k)
    w_nodes = OrbitMeasure(plan.atoms_w).node_indices(k)
    bad = []
    support = set(plan.support())
    for i, xn in enumerate(x_nodes):
        for j, wn in enumerate(w_nodes):
            b = report.b_table[xn][wn]
            if b < 0:
                bad.append((i, j, b, "feasibility"))
            if (i, j) in support and b != 0:
                bad.append((i, j, b, "slackness"))
    return SlacknessReport(not bad, tuple(bad))


def graph_property_check(plan: TransportPlan) -> bool:
    """True iff every x-atom is coupled to exactly one w-atom."""
    return _plan_permutation(plan.matrix) is not None


def dual_value(plan: TransportPlan, report: DualityReport) -> Fraction:
    """-∫V dμ - ∫V* dμ* - γ: a lower bound on every feasible plan's
    cost, attained exactly at the optimum."""
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
