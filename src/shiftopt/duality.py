"""Involution-kernel duality: W, the dual potential, the fundamental
relations, and the b-function with its constant γ.

The kernel W(w, x) couples a backward (w) and a forward (x) copy of the
shift.  For a depth-k potential the coupling sum telescopes after k-1
terms, so W is a finite table over pairs of length-(k-1) prefixes.  It
is held as one n×n integer array over one denominator (rows w-nodes,
columns x-nodes), built by index arithmetic on the base-d numerals of
the windows each term reads.  The dual potential, its defining
identity, the b-table and the FR/FR1 sweep are array expressions over
that table and the max-plus layer's rational vectors, all brought to a
common denominator.  The arrays are int64 when a magnitude bound proves
that no sum can overflow (the rule of the max-plus layer) and Python
integers otherwise; both are exact, and every identity is checked on
every pair at every size.

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
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import InvalidInputError, InvariantViolation, PreconditionError
from .graph import DeBruijnGraph, build_de_bruijn
from .maxplus import (
    CriticalStructure,
    ErrorFunction,
    Subaction,
    _scaled_weights,
    _vector_safe,
    calibrated_subaction,
    error_function,
    is_coboundary,
    max_mean_cycle,
    min_cost_to_critical,
)
from .potentials import LocallyConstantPotential
from .words import (EventuallyPeriodicPoint, Word, periodic_point, word_at_index,
                    word_index, word_to_string)

_REPORT_NODE_LIMIT = 256           # b-tables are quadratic in the node count


def default_base_point(alphabet_size: int) -> EventuallyPeriodicPoint:
    return periodic_point((0,), alphabet_size)


def _int_dtype(bounds: Iterable[int], terms: int):
    """int64 when a sum of `terms` entries bounded by max(bounds) cannot
    overflow (the max-plus layer's rule), Python integers otherwise."""
    return np.int64 if _vector_safe(list(bounds), terms) else object


def _fraction_rows(table: np.ndarray, denom: int) -> tuple[tuple[Fraction, ...], ...]:
    """Rows of table / denom as Fractions; equal entries share one."""
    rows = table.tolist()
    memo = {v: Fraction(v, denom) for v in set().union(*rows)}
    return tuple(tuple(map(memo.__getitem__, row)) for row in rows)


class KernelTable:
    """W(w, x) = table[w, x] / denom over pairs of length-(k-1)
    prefixes: rows are w-nodes, columns x-nodes, entries int64 or
    Python integers.

    Entry formula: W(w, x) = sum over n = 0..k-2 of
    A(w_n ... w_0 x) - A(w_n ... w_0 x̄); later terms vanish because both
    arguments then share a full depth-k window.
    """

    def __init__(self, potential: LocallyConstantPotential,
                 base_point: EventuallyPeriodicPoint,
                 table: np.ndarray, denom: int):
        self.potential = potential
        self.base_point = base_point
        self.alphabet_size = potential.alphabet_size
        self.depth = potential.depth
        self.n_prefixes = table.shape[0]
        self.table = table
        self.denom = denom

    def value(self, w_idx: int, x_idx: int) -> Fraction:
        return Fraction(int(self.table[w_idx, x_idx]), self.denom)

    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """Full table as Fractions, rows = w-nodes, columns = x-nodes.
        Quadratic; meant for desk-scale depths."""
        if self.n_prefixes > _REPORT_NODE_LIMIT:
            raise PreconditionError(
                f"full kernel table wants <= {_REPORT_NODE_LIMIT} prefixes, "
                f"got {self.n_prefixes}")
        return _fraction_rows(self.table, self.denom)

    def perturbed(self, w_idx: int, x_idx: int, delta: Fraction) -> "KernelTable":
        """Copy with a single entry shifted — a negative control for the
        identity checkers."""
        denom, table, (bump,) = _common_denominator(self, [(Fraction(delta),)], 1)
        table[w_idx, x_idx] += bump[0]
        return KernelTable(self.potential, self.base_point, table, denom)


def _common_denominator(kernel: KernelTable, tables: Sequence[Sequence[Fraction]],
                        terms: int) -> tuple[int, np.ndarray, list[np.ndarray]]:
    """The kernel and the rational `tables` over one denominator D:
    (D, kernel array, one array per table), integers of one dtype that
    keeps any sum of `terms` entries exact.  The kernel array is a copy."""
    denom = lcm(kernel.denom, *{v.denominator for t in tables for v in t})
    factor = denom // kernel.denom
    ints = [[v.numerator * (denom // v.denominator) for v in t] for t in tables]
    dtype = _int_dtype([int(np.abs(kernel.table).max()) * factor, factor]
                       + [max(map(abs, t), default=0) for t in ints], terms)
    return (denom, kernel.table.astype(dtype) * factor,
            [np.array(t, dtype=dtype) for t in ints])


def involution_kernel(a: LocallyConstantPotential,
                      base_point: EventuallyPeriodicPoint | None = None) -> KernelTable:
    """The coupling kernel of a depth-k potential against a base point
    (default 0^∞).  For k = 1 the sum is empty and W ≡ 0.

    Term n of the sum reads the window (w_n ... w_0, x_0 ... x_{k-2-n}),
    whose numeral is rev_n(w)·d^(k-1-n) + x // d^n with rev_n(w) the
    numeral of (w_n ... w_0); the base-point column is subtracted from
    every column."""
    if base_point is None:
        base_point = default_base_point(a.alphabet_size)
    if base_point.alphabet_size != a.alphabet_size:
        raise InvalidInputError("base point and potential alphabets differ")
    d, k = a.alphabet_size, a.depth
    ints, denom = _scaled_weights(a.values)
    values = np.array(ints, dtype=_int_dtype(map(abs, ints), 2 * (k - 1)))
    nodes = np.arange(d ** (k - 1))
    base = word_index(base_point.prefix(k - 1), d)
    table = np.zeros((nodes.size, nodes.size), dtype=values.dtype)
    rev = np.zeros_like(nodes)
    for t in range(k - 1):
        rev += nodes // d ** (k - 2 - t) % d * d ** t
        windows = (rev * d ** (k - 1 - t))[:, None] + nodes // d ** t
        table += values[windows] - values[windows[:, base]][:, None]
    return KernelTable(a, base_point, table, denom)


def dual_potential(a: LocallyConstantPotential, w: KernelTable,
                   verify: str = "auto") -> LocallyConstantPotential:
    """The dual A*(w0..w(k-1)) = A(w0 x̄) + W(σw, w0 x̄) - W(w, x̄).

    The defining identity A*(e) = A(e0·u) + W(target(e), node(e0·u))
    - W(source(e), u) must hold for every x-node u, not just the base
    prefix; unless verify is "none" it is re-checked on every
    (edge, x-node) pair ("auto" and "full" both do so).
    """
    if w.potential is not a and w.potential != a:
        raise InvalidInputError("kernel was built from a different potential")
    d, k = a.alphabet_size, a.depth
    n = w.n_prefixes
    denom, table, (values,) = _common_denominator(w, [a.values], 3)
    edges = np.arange(d ** k)
    first, src, tgt = edges // n, edges // d, edges % n

    def rhs(u: np.ndarray) -> np.ndarray:
        """A(e0·u) + W(target(e), node(e0·u)) - W(source(e), u), [e, u]."""
        shifted = first[:, None] * n + u        # the depth-k window e0·u
        return (values[shifted] + table[tgt[:, None], shifted // d]
                - table[src[:, None], u])

    dual_ints = rhs(np.array([word_index(w.base_point.prefix(k - 1), d)]))[:, 0]
    dual = LocallyConstantPotential(
        d, k, tuple(Fraction(v, denom) for v in dual_ints.tolist()))

    if verify != "none":
        full = rhs(np.arange(n))
        bad = np.flatnonzero((full != dual_ints[:, None]).T)   # x-node major
        if bad.size:
            u, e = divmod(int(bad[0]), edges.size)
            raise InvariantViolation(
                f"dual identity fails at edge {word_to_string(word_at_index(e, d, k))}, "
                f"x-node {word_to_string(word_at_index(u, d, k - 1))}: "
                f"{dual.values[e]} != {Fraction(int(full[e, u]), denom)}")
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
                         critical: CriticalStructure | None = None,
                         ) -> DualityReport:
    """Full duality pipeline: kernel, dual, both maxplus analyses, the
    measured γ, and the b-table with its per-row optimal w-nodes.

    Requires a unique maximizing orbit (the duality relation with J*
    needs a single critical class on the dual side); refuses otherwise.
    A caller that already holds the critical structure of `a` passes it
    as `critical`, saving a second maximum-cycle-mean run.
    """
    g = build_de_bruijn(a.alphabet_size, a.depth, a)
    if g.n_nodes > _REPORT_NODE_LIMIT:
        raise PreconditionError(
            f"duality report is quadratic in nodes; {g.n_nodes} exceeds "
            f"{_REPORT_NODE_LIMIT}")
    cs = max_mean_cycle(g) if critical is None else critical
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

    denom, table, (vv, vs, js) = _common_denominator(
        kernel, [v.values, v_star.values, j_star], 6)
    dvals = table.T - vs - js                   # [x, w]: W(w, x) - V*(w) - J*(w)
    dx = dvals.max(axis=1)
    diff = dx - vv
    gamma = Fraction(int(diff[0]), denom)
    off = np.flatnonzero(diff != diff[0])
    if off.size:
        x = int(off[0])
        raise InvariantViolation(
            f"max_w[W - V* - J*] - V is not constant: {gamma} vs "
            f"{Fraction(int(diff[x]), denom)} at x-node {word_to_string(g.node_word(x))}")
    b = dx[:, None] - dvals                     # = V+V*+J*-W+γ, row-min 0
    zero = b == 0
    if not zero.any(axis=1).all():
        raise InvariantViolation("b-row without a zero")
    if (b < 0).any():
        raise InvariantViolation("negative b-value")

    return DualityReport(
        potential=a, base_point=kernel.base_point, graph=g, critical=cs,
        v=v, r=r, kernel=kernel, dual=dual, dual_graph=dg, dual_critical=dcs,
        v_star=v_star, r_star=r_star, j_star=j_star, gamma=gamma,
        b_table=_fraction_rows(b, denom),
        optimal_w_per_x=tuple(frozenset(np.flatnonzero(row).tolist())
                              for row in zero),
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

    with b in its orbit-refined form (J* per edge).  Pairs are taken
    x-node major, dual edges inner; returns ok or the first violating
    triple (FR before FR1 on the same pair) with the pairs checked up to
    it.  A violation signals inconsistent normalization between the two
    sides.
    """
    d, k = a.alphabet_size, a.depth
    g = build_de_bruijn(d, k, a)
    if g.n_nodes > _REPORT_NODE_LIMIT:
        raise PreconditionError(
            f"fundamental relation sweep is quadratic in nodes; {g.n_nodes} "
            f"exceeds {_REPORT_NODE_LIMIT}")
    dg = build_de_bruijn(d, k, a_star)
    dcs = max_mean_cycle(dg)
    r_star = error_function(dg, dcs, v_star)
    j_star = min_cost_to_critical(dg, r_star, dcs)

    denom, table, (vv, vs, rr, rs, js) = _common_denominator(
        kernel, [v.values, v_star.values, r.values, r_star.values, j_star], 24)
    n, n_dual = g.n_nodes, dg.n_edges
    edges = np.arange(n_dual)
    src, tgt = edges // d, edges % n
    u = np.arange(n)[:, None]
    shifted = edges // n * n + u                # [u, e]: the primal edge e0·u
    tau = shifted // d                          # node(e0·u)
    r_here = rr[shifted]

    fr_rhs = (vs[src] + vv[u] - table[src, u]) \
        - (vs[tgt] + vv[tau] - table[tgt, tau]) + rs
    # measure gamma the same way the report does (any x-node gives it)
    gamma = (table[:, 0] - vs - js).max() - vv[0]
    b_edge = vv[u] + vs[src] + rs + js[tgt] - table[src, u] + gamma
    b_node = b_edge.reshape(n, n, d).min(axis=2)
    fr1_lhs = b_edge - b_node[tau, tgt]

    fr_bad = r_here != fr_rhs
    bad = np.flatnonzero(fr_bad | (fr1_lhs != r_here))
    if not bad.size:
        return FRCheckResult(True, None, n * n_dual)
    x, e = divmod(int(bad[0]), n_dual)
    lhs, rhs = (r_here, fr_rhs) if fr_bad[x, e] else (fr1_lhs, r_here)
    return FRCheckResult(False, FRViolation(
        "FR" if fr_bad[x, e] else "FR1", g.node_word(x), dg.edge_word(e),
        Fraction(int(lhs[x, e]), denom), Fraction(int(rhs[x, e]), denom)),
        int(bad[0]) + 1)


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
    d, k = kernel.alphabet_size, kernel.depth
    labels = [word_to_string(word_at_index(i, d, k - 1)) or "-"
              for i in range(kernel.n_prefixes)]
    out = io.StringIO()
    out.write("w\\x," + ",".join(labels) + "\n")
    for label, row in zip(labels, kernel.table.tolist()):
        out.write(label + "," + ",".join(str(Fraction(v, kernel.denom)) for v in row)
                  + "\n")
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
