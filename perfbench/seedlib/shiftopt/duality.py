"""Involution-kernel duality: W, the dual potential, the fundamental
relations, and the b-function with its constant γ.

The kernel W(w, x) couples a backward (w) and a forward (x) copy of the
shift.  For a depth-k potential the coupling sum telescopes after k-1
terms, so W is a finite table over pairs of length-(k-1) prefixes — but
that table is quadratic in the node count, so it is materialized one
x-column at a time; building the dual potential only ever touches d+1
columns.

The deviation function on w-cylinders is represented by its infimum
J* = min-cost-to-critical on the dual graph: the supremum over infinite
w in the duality relation V(x) = max_w [W(w,x) - V*(w) - I*(w)] is then
a finite maximum over (w-node, cheapest continuation).  All identities
(FR, FR1, b >= 0 with row zeros, backward invariance) are checked in
exact arithmetic; FR1 is checked in its orbit-refined form, with the
per-edge deviation J*(e) = R*(e) + J*(target(e)).
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidInputError, InvariantViolation, PreconditionError
from .graph import DeBruijnGraph, build_de_bruijn
from .maxplus import (
    CriticalStructure,
    ErrorFunction,
    Subaction,
    calibrated_subaction,
    error_function,
    is_coboundary,
    max_mean_cycle,
    min_cost_to_critical,
)
from .potentials import LocallyConstantPotential
from .words import EventuallyPeriodicPoint, Word, periodic_point, word_to_string

_EXHAUSTIVE_PAIR_LIMIT = 1 << 16   # full identity sweeps below this many pairs
_REPORT_NODE_LIMIT = 256           # b-tables are quadratic in the node count


def default_base_point(alphabet_size: int) -> EventuallyPeriodicPoint:
    return periodic_point((0,), alphabet_size)


class KernelTable:
    """W(w, x) over pairs of length-(k-1) prefixes, computed lazily.

    Entry formula: W(w, x) = sum over n = 0..k-2 of
    A(w_n ... w_0 x) - A(w_n ... w_0 x̄); later terms vanish because both
    arguments then share a full depth-k window.
    """

    def __init__(self, potential: LocallyConstantPotential,
                 base_point: EventuallyPeriodicPoint):
        if base_point.alphabet_size != potential.alphabet_size:
            raise InvalidInputError("base point and potential alphabets differ")
        self.potential = potential
        self.base_point = base_point
        self.alphabet_size = potential.alphabet_size
        self.depth = potential.depth
        self.n_prefixes = self.alphabet_size ** (self.depth - 1)
        self._base_prefix = base_point.prefix(self.depth - 1)
        self._columns: dict[int, tuple[Fraction, ...]] = {}

    def _prefix_word(self, idx: int) -> Word:
        from .words import word_at_index
        return word_at_index(idx, self.alphabet_size, self.depth - 1)

    def _entry(self, w_word: Word, x_word: Word) -> Fraction:
        a = self.potential
        k = self.depth
        total = Fraction(0)
        for n in range(k - 1):
            head = w_word[n::-1]           # (w_n, ..., w_0)
            tail_len = k - 1 - n
            total += a.value(head + x_word[:tail_len]) \
                - a.value(head + self._base_prefix[:tail_len])
        return total

    def column(self, x_idx: int) -> tuple[Fraction, ...]:
        """All w-node values against one x-node, cached."""
        col = self._columns.get(x_idx)
        if col is None:
            x_word = self._prefix_word(x_idx)
            col = tuple(self._entry(self._prefix_word(p), x_word)
                        for p in range(self.n_prefixes))
            self._columns[x_idx] = col
        return col

    def value(self, w_idx: int, x_idx: int) -> Fraction:
        return self.column(x_idx)[w_idx]

    def value_words(self, w_word: Word, x_word: Word) -> Fraction:
        return self._entry(tuple(w_word), tuple(x_word))

    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """Full table, rows = w-nodes, columns = x-nodes.  Quadratic;
        meant for desk-scale depths."""
        if self.n_prefixes > _REPORT_NODE_LIMIT:
            raise PreconditionError(
                f"full kernel table wants <= {_REPORT_NODE_LIMIT} prefixes, "
                f"got {self.n_prefixes}")
        cols = [self.column(x) for x in range(self.n_prefixes)]
        return tuple(tuple(cols[x][w] for x in range(self.n_prefixes))
                     for w in range(self.n_prefixes))

    def perturbed(self, w_idx: int, x_idx: int, delta: Fraction) -> "KernelTable":
        """Copy with a single entry shifted — a negative control for the
        identity checkers."""
        twin = KernelTable(self.potential, self.base_point)

        original_column = KernelTable.column

        def column(x: int, _twin=twin):  # noqa: ANN001
            col = original_column(_twin, x)
            if x == x_idx:
                bumped = list(col)
                bumped[w_idx] = bumped[w_idx] + delta
                return tuple(bumped)
            return col

        twin.column = column  # type: ignore[method-assign]
        return twin


def involution_kernel(a: LocallyConstantPotential,
                      base_point: EventuallyPeriodicPoint | None = None) -> KernelTable:
    """The coupling kernel of a depth-k potential against a base point
    (default 0^∞).  For k = 1 the sum is empty and W ≡ 0."""
    if base_point is None:
        base_point = default_base_point(a.alphabet_size)
    return KernelTable(a, base_point)


def dual_potential(a: LocallyConstantPotential, w: KernelTable,
                   verify: str = "auto") -> LocallyConstantPotential:
    """The dual A*(w0..w(k-1)) = A(w0 x̄) + W(σw, w0 x̄) - W(w, x̄).

    The defining identity A*(e) = A(e0·u) + W(target(e), node(e0·u))
    - W(source(e), u) must hold for every x-node u, not just the base
    prefix; it is re-verified exhaustively when the pair count is small
    (always at desk scale) and on all edges against a fixed column
    sample otherwise.  verify is one of "auto", "full", "none".
    """
    if w.potential is not a and w.potential != a:
        raise InvalidInputError("kernel was built from a different potential")
    d, k = a.alphabet_size, a.depth
    g = build_de_bruijn(d, k, a)
    xbar = w.base_point.prefix(k)          # k symbols of the base point
    xbar_node = xbar[:k - 1]
    vals = []
    for e in range(g.n_edges):
        ew = g.edge_word(e)
        tau_word = (ew[0],) + xbar[:k - 1]          # depth-k window of τ_w x̄
        vals.append(a.value(tau_word)
                    + w.value_words(ew[1:], tau_word[:k - 1])
                    - w.value_words(ew[:k - 1], xbar_node))
    dual = LocallyConstantPotential(d, k, tuple(vals))

    if verify != "none":
        n_pairs = g.n_edges * g.n_nodes
        if verify == "full" or n_pairs <= _EXHAUSTIVE_PAIR_LIMIT:
            x_nodes = range(g.n_nodes)
        else:
            probe = {g.node_index(((sym,) + xbar_node)[:k - 1]) for sym in range(d)}
            probe.add(g.node_index(xbar_node))
            probe.add(g.n_nodes // 2)
            x_nodes = sorted(probe)
        for u in x_nodes:
            uw = g.node_word(u)
            wcol = w.column(u)
            for e in range(g.n_edges):
                ew = g.edge_word(e)
                shifted = (ew[0],) + uw
                lhs = dual.values[e]
                rhs = a.value(shifted) \
                    + w.value_words(ew[1:], shifted[:k - 1]) \
                    - wcol[e // d]
                if lhs != rhs:
                    raise InvariantViolation(
                        f"dual identity fails at edge {word_to_string(ew)}, "
                        f"x-node {word_to_string(uw)}: {lhs} != {rhs}")
    return dual


# ---------------------------------------------------------------------------
# the analysis hub

@dataclass
class DualityReport:
    """Everything the duality layer established for one potential.

    b_table is indexed [x-node][w-node] and is >= 0 with at least one
    zero per x-row; gamma is the measured constant by which
    max_w [W - V* - J*] exceeds V.  degenerate marks depth-1 inputs,
    whose b-table is identically zero.
    """

    potential: LocallyConstantPotential
    base_point: EventuallyPeriodicPoint
    graph: DeBruijnGraph
    critical: CriticalStructure
    v: Subaction
    r: ErrorFunction
    kernel: KernelTable
    dual: LocallyConstantPotential
    dual_graph: DeBruijnGraph
    dual_critical: CriticalStructure
    v_star: Subaction
    r_star: ErrorFunction
    j_star: tuple[Fraction, ...]
    gamma: Fraction
    b_table: tuple[tuple[Fraction, ...], ...]
    optimal_w_per_x: tuple[frozenset[int], ...]
    degenerate: bool

    # -- orbit-refined quantities used by FR1 and the twist layer ------

    def j_star_edge(self, e: int) -> Fraction:
        """Deviation of the cheapest continuation that starts with the
        dual edge e: R*(e) + J*(target(e))."""
        return self.r_star.values[e] + self.j_star[self.dual_graph.target(e)]

    def b_edge(self, x_node: int, e: int) -> Fraction:
        """b refined to a dual edge: V(x) + V*(source(e)) + J*(e)
        - W(source(e), x) + gamma.  Its minimum over the out-edges of a
        w-node is b_table[x][w-node]."""
        src = self.dual_graph.source(e)
        return (self.v.values[x_node] + self.v_star.values[src]
                + self.j_star_edge(e) - self.kernel.value(src, x_node)
                + self.gamma)


def build_duality_report(a: LocallyConstantPotential,
                         base_point: EventuallyPeriodicPoint | None = None,
                         ) -> DualityReport:
    """Full duality pipeline: kernel, dual, both maxplus analyses, the
    measured γ, and the b-table with its per-row optimal w-nodes.

    Requires a unique maximizing orbit (the duality relation with J*
    needs a single critical class on the dual side); refuses otherwise.
    """
    g = build_de_bruijn(a.alphabet_size, a.depth, a)
    if g.n_nodes > _REPORT_NODE_LIMIT:
        raise PreconditionError(
            f"duality report is quadratic in nodes; {g.n_nodes} exceeds "
            f"{_REPORT_NODE_LIMIT}")
    cs = max_mean_cycle(g)
    if not cs.unique_maximizer:
        raise PreconditionError(
            "duality report needs a unique maximizing orbit; "
            "perturb the potential first")
    v = calibrated_subaction(g, cs)
    r = error_function(g, cs, v)

    kernel = involution_kernel(a, base_point)
    dual = dual_potential(a, kernel)
    dg = build_de_bruijn(a.alphabet_size, a.depth, dual)
    dcs = max_mean_cycle(dg)
    if dcs.mean != cs.mean:
        raise InvariantViolation(
            f"m(A) = {cs.mean} but m(A*) = {dcs.mean}; they must agree exactly")
    if not dcs.unique_maximizer:
        raise PreconditionError(
            "dual potential lost uniqueness of the maximizing orbit")
    v_star = calibrated_subaction(dg, dcs)
    r_star = error_function(dg, dcs, v_star)
    j_star = min_cost_to_critical(dg, r_star, dcs)

    n = g.n_nodes
    gamma: Fraction | None = None
    b_rows = []
    optimal = []
    for x in range(n):
        wcol = kernel.column(x)
        dvals = [wcol[p] - v_star.values[p] - j_star[p] for p in range(n)]
        dx = max(dvals)
        diff = dx - v.values[x]
        if gamma is None:
            gamma = diff
        elif diff != gamma:
            raise InvariantViolation(
                f"max_w[W - V* - J*] - V is not constant: {gamma} vs {diff} "
                f"at x-node {word_to_string(g.node_word(x))}")
        row = tuple(dx - val for val in dvals)   # = V+V*+J*-W+γ, row-min 0
        zeros = frozenset(p for p, bv in enumerate(row) if bv == 0)
        if not zeros:
            raise InvariantViolation("b-row without a zero")
        if any(bv < 0 for bv in row):
            raise InvariantViolation("negative b-value")
        b_rows.append(row)
        optimal.append(zeros)
    assert gamma is not None

    return DualityReport(
        potential=a, base_point=kernel.base_point, graph=g, critical=cs,
        v=v, r=r, kernel=kernel, dual=dual, dual_graph=dg, dual_critical=dcs,
        v_star=v_star, r_star=r_star, j_star=j_star, gamma=gamma,
        b_table=tuple(b_rows), optimal_w_per_x=tuple(optimal),
        degenerate=(a.depth == 1))


# ---------------------------------------------------------------------------
# identity checks

@dataclass(frozen=True)
class FRViolation:
    identity: str            # "FR" or "FR1"
    x_word: Word
    w_edge_word: Word
    lhs: Fraction
    rhs: Fraction


@dataclass(frozen=True)
class FRCheckResult:
    ok: bool
    violation: FRViolation | None = None
    pairs_checked: int = 0


def fundamental_relation_check(a: LocallyConstantPotential,
                               a_star: LocallyConstantPotential,
                               kernel: KernelTable,
                               v: Subaction,
                               v_star: Subaction,
                               r: ErrorFunction) -> FRCheckResult:
    """Exhaustive check of the fundamental relation and its b-form.

    For every pair (x-node u, dual edge e) with first symbol e0:

      FR:   R(e0·u) = [V*(src e) + V(u) - W(src e, u)]
                      - [V*(tgt e) + V(node(e0·u)) - W(tgt e, node(e0·u))]
                      + R*(e)

      FR1:  b(u, e) - b(node(e0·u), tgt e) = R(e0·u)

    with b in its orbit-refined form (J* per edge).  Returns ok or the
    first violating triple; a violation signals inconsistent
    normalization between the two sides.
    """
    d, k = a.alphabet_size, a.depth
    g = build_de_bruijn(d, k, a)
    if g.n_nodes * g.n_edges > _EXHAUSTIVE_PAIR_LIMIT * d:
        raise PreconditionError("fundamental relation sweep is desk-scale only")
    dg = build_de_bruijn(d, k, a_star)
    dcs = max_mean_cycle(dg)
    r_star = error_function(dg, dcs, v_star)
    j_star = min_cost_to_critical(dg, r_star, dcs)

    # measure gamma the same way the report does (any x-node gives it)
    col0 = kernel.column(0)
    gamma = max(col0[p] - v_star.values[p] - j_star[p]
                for p in range(g.n_nodes)) - v.values[0]

    def b_edge(x_node: int, e: int) -> Fraction:
        src = e // d
        return (v.values[x_node] + v_star.values[src]
                + r_star.values[e] + j_star[e % g.n_nodes]
                - kernel.value(src, x_node) + gamma)

    def b_node(x_node: int, p: int) -> Fraction:
        return min(b_edge(x_node, e) for e in dg.out_edges(p))

    checked = 0
    for u in range(g.n_nodes):
        uw = g.node_word(u)
        wcol = kernel.column(u)
        for e in range(dg.n_edges):
            ew = dg.edge_word(e)
            shifted = (ew[0],) + uw              # depth-k window of τ_w x
            tau_node = g.node_index(shifted[:k - 1])
            r_here = r.values[g.edge_index(shifted)]
            src, tgt = e // d, e % g.n_nodes
            lhs = r_here
            rhs = (v_star.values[src] + v.values[u] - wcol[src]) \
                - (v_star.values[tgt] + v.values[tau_node]
                   - kernel.value(tgt, tau_node)) \
                + r_star.values[e]
            checked += 1
            if lhs != rhs:
                return FRCheckResult(False, FRViolation("FR", uw, ew, lhs, rhs), checked)
            fr1_lhs = b_edge(u, e) - b_node(tau_node, tgt)
            if fr1_lhs != r_here:
                return FRCheckResult(False, FRViolation("FR1", uw, ew, fr1_lhs, r_here), checked)
    return FRCheckResult(True, None, checked)


# ---------------------------------------------------------------------------
# goodness

@dataclass(frozen=True)
class GoodnessReport:
    good: bool
    margin: Fraction | None            # min R* over the boundary edges
    witness: Word | None               # a boundary edge with R* = 0, if any
    boundary_edges: tuple[int, ...]    # edges into the dual critical cycle


def goodness_on_graph(dg: DeBruijnGraph, dcs: CriticalStructure,
                      r_star: ErrorFunction) -> GoodnessReport:
    """Goodness of a (dual) potential given its analyzed graph: every
    non-critical edge whose target lies on the maximizing cycle must
    carry strictly positive R*."""
    if not dcs.unique_maximizer:
        raise PreconditionError("goodness needs a unique maximizing orbit")
    boundary = tuple(
        e for v in sorted(dcs.critical_nodes) for e in dg.in_edges(v)
        if e not in dcs.critical_edges)
    margin = min((r_star.values[e] for e in boundary), default=None)
    witness = None
    for e in boundary:
        if r_star.values[e] == 0:
            witness = dg.edge_word(e)
            break
    return GoodnessReport(witness is None, margin, witness, boundary)


def goodness_check(a: LocallyConstantPotential,
                   base_point: EventuallyPeriodicPoint | None = None) -> GoodnessReport:
    """Whether the dual of `a` is good: the edges entering the dual
    maximizing cycle from outside all have R* > 0.  The reported margin
    (the smallest such R*) is the quantity that decays along the
    distance-family sequence."""
    kernel = involution_kernel(a, base_point)
    dual = dual_potential(a, kernel, verify="none")
    dg = build_de_bruijn(a.alphabet_size, a.depth, dual)
    dcs = max_mean_cycle(dg)
    if not dcs.unique_maximizer:
        raise PreconditionError(
            "goodness needs a unique maximizing orbit on the dual side")
    v_star = calibrated_subaction(dg, dcs)
    r_star = error_function(dg, dcs, v_star)
    return goodness_on_graph(dg, dcs, r_star)


def dual_roundtrip_check(a: LocallyConstantPotential,
                         base_x: EventuallyPeriodicPoint | None = None,
                         base_w: EventuallyPeriodicPoint | None = None) -> bool:
    """Apply the dualization twice (bases x̄ then ω̄) and confirm the
    result differs from the original by a coboundary — every simple
    cycle of the difference sums to zero."""
    first = dual_potential(a, involution_kernel(a, base_x), verify="none")
    second = dual_potential(first, involution_kernel(first, base_w), verify="none")
    return is_coboundary(second - a).is_coboundary


def backward_invariance_check(report: DualityReport,
                              ) -> tuple[bool, tuple[Word, Word] | None]:
    """Zeros of the b-table flow backward: whenever b(x, w) = 0 some
    dual edge e out of w refines it to b_edge(x, e) = 0, and following
    that edge — prepend its first symbol to x, step w to the target —
    lands on another zero with the traversed primal edge exactly
    optimal (R = 0).  Returns (ok, first offending (x-word, w-word))."""
    g, dg = report.graph, report.dual_graph
    d, k = g.alphabet_size, g.depth
    for u in range(g.n_nodes):
        uw = g.node_word(u)
        for w_node in sorted(report.optimal_w_per_x[u]):
            hit = False
            for e in dg.out_edges(w_node):
                if report.b_edge(u, e) != 0:
                    continue
                shifted = (dg.edge_word(e)[0],) + uw
                tau_node = g.node_index(shifted[:k - 1]) if k > 1 else 0
                tgt = e % g.n_nodes
                if (report.b_table[tau_node][tgt] == 0
                        and report.r.values[g.edge_index(shifted)] == 0):
                    hit = True
                    break
            if not hit:
                return False, (uw, g.node_word(w_node))
    return True, None


# ---------------------------------------------------------------------------
# CSV export

def kernel_csv(kernel: KernelTable) -> str:
    """Kernel matrix as CSV: rows = w-prefixes, columns = x-prefixes."""
    from .words import word_at_index
    n = kernel.n_prefixes
    d, k = kernel.alphabet_size, kernel.depth
    labels = [word_to_string(word_at_index(i, d, k - 1)) or "-" for i in range(n)]
    out = io.StringIO()
    out.write("w\\x," + ",".join(labels) + "\n")
    cols = [kernel.column(x) for x in range(n)]
    for p in range(n):
        out.write(labels[p] + "," + ",".join(str(cols[x][p]) for x in range(n)) + "\n")
    return out.getvalue()


def b_table_csv(report: DualityReport) -> str:
    """b-table as CSV: rows = x-nodes, columns = w-nodes."""
    g = report.graph
    labels = [word_to_string(g.node_word(i)) or "-" for i in range(g.n_nodes)]
    out = io.StringIO()
    out.write("x\\w," + ",".join(labels) + "\n")
    for x in range(g.n_nodes):
        out.write(labels[x] + ","
                  + ",".join(str(v) for v in report.b_table[x]) + "\n")
    return out.getvalue()
