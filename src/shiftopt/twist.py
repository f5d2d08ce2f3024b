"""Twist combinatorics on the binary shift: certifying the strict twist
inequality for a kernel, the optimal-pair map x ↦ {w : b(x,w) = 0} with
each w rendered as an honest eventually periodic point, the turning
cut computed by two independent routes, the decomposition of x-space
into intervals of constant optimal set, and the orbit-of-the-turning-
point characterization of where that set changes.

Only d = 2 is supported where order matters — the twist inequality and
everything downstream of it lean on the lexicographic line.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key

import numpy as np

from .duality import DualityReport, KernelTable, goodness_on_graph
from .errors import (
    InvariantViolation,
    PreconditionError,
    UnsupportedInputError,
)
from .maxplus import cycle_word
from .words import (
    Cut,
    EventuallyPeriodicPoint,
    Word,
    apply_shift,
    cut_between_nodes,
    lex_compare,
    word_at_index,
)

_TIE_LIMIT = 4096      # optimal w points kept per x-node before refusing


@dataclass(frozen=True)
class TwistCertificate:
    holds: bool
    checked_pairs: int
    # ((a, b), (a', b')) as node words, with the two sums, when violated
    witness: tuple[tuple[Word, Word], tuple[Word, Word], Fraction, Fraction] | None


def certify_twist(w: KernelTable) -> TwistCertificate:
    """Exhaustively check W(a,b) + W(a',b') < W(a,b') + W(a',b) over all
    pairs of distinct w-cylinders a < a' and distinct x-cylinders
    b < b'.  Strictness is required; the first failure (in the order
    a, a', b, b') is returned as a witness.  Binary alphabet only."""
    if w.alphabet_size != 2:
        raise UnsupportedInputError(
            "twist certification is developed for the binary shift only")
    n = w.n_prefixes
    if n < 2:
        # depth 1: no distinct cylinder pair exists, so no strict twist
        # inequality can be certified — degenerate failure
        return TwistCertificate(False, 0, None)
    t = w.table
    upper = np.triu(np.ones((n, n), dtype=bool), 1)        # [b, b'] with b < b'
    checked = 0
    for a in range(n):
        for a2 in range(a + 1, n):
            lhs = t[a][:, None] + t[a2][None, :]            # W(a,b) + W(a',b')
            rhs = t[a][None, :] + t[a2][:, None]            # W(a,b') + W(a',b)
            fails = np.flatnonzero(upper & ~(lhs < rhs))
            if fails.size:
                first = int(fails[0])
                checked += int(np.count_nonzero(upper.ravel()[:first + 1]))
                b, b2 = divmod(first, n)
                k1 = w.depth - 1
                return TwistCertificate(False, checked, (
                    (word_at_index(a, 2, k1), word_at_index(b, 2, k1)),
                    (word_at_index(a2, 2, k1), word_at_index(b2, 2, k1)),
                    Fraction(int(lhs[b, b2]), w.denom),
                    Fraction(int(rhs[b, b2]), w.denom)))
            checked += n * (n - 1) // 2
    return TwistCertificate(True, checked, None)


@dataclass(frozen=True)
class OptimalW:
    """One optimal w for some x: its node, the J*-minimizing connector
    edge path to the dual maximizing cycle, the cycle word it lands on,
    and the full point those pieces spell."""

    w_node: int
    connector_edges: tuple[int, ...]
    cycle: Word
    point: EventuallyPeriodicPoint


@dataclass
class OptimalPairMap:
    report: DualityReport
    per_x: tuple[tuple[OptimalW, ...], ...]   # sorted lexicographically by point
    dual_values: tuple[Fraction, ...]         # max_w [W - V* - J*] per x-node
    good: bool                                # countability certificate
    degenerate: bool


def _expand_w_node(report: DualityReport, p: int) -> list[OptimalW]:
    """All renderings of w-node p as an eventually periodic point whose
    deviation is exactly J*(p): every cheapest connector path to the
    dual critical cycle, continued along that cycle forever."""
    dg = report.dual_graph
    dcs = report.dual_critical
    d = dg.alphabet_size
    cycle_edges = dcs.orbits[0]
    cycle_nodes = [dg.source(e) for e in cycle_edges]
    spelled = cycle_word(dg, cycle_edges)

    results: list[OptimalW] = []

    def cycle_point(stream: tuple[int, ...], entry_node: int,
                    path: tuple[int, ...]) -> None:
        # the entry node's word occupies the last k-1 spelled symbols
        # and is re-spelled by the rotated period, so the preperiod is
        # only the part of the stream before the entry node appears
        at = cycle_nodes.index(entry_node)
        period = spelled[at:] + spelled[:at]
        results.append(OptimalW(
            p, path, period,
            EventuallyPeriodicPoint(stream[:len(path)], period, d)))

    def walk(node: int, syms: tuple[int, ...], path: tuple[int, ...]) -> None:
        if len(results) > _TIE_LIMIT:
            raise PreconditionError(
                f"more than {_TIE_LIMIT} tied optimal points at one node")
        if node in dcs.critical_nodes:
            cycle_point(syms, node, path)
            return
        remaining = report.j_star[node]
        for e in dg.out_edges(node):
            if report.r_star.values[e] + report.j_star[dg.target(e)] == remaining:
                walk(dg.target(e), syms + (e % d,), path + (e,))

    # the point starts by spelling p's own word; each further edge
    # appends its last symbol
    walk(p, dg.node_word(p), ())
    return results


def optimal_pair_map(report: DualityReport) -> OptimalPairMap:
    """For every x-node, the set {w : b(x, w-node) = 0} with each
    w-node expanded along all of its cheapest continuations onto the
    dual maximizing cycle.  Also records whether the dual is good —
    without goodness the countability of the optimal set is not
    guaranteed, and the map is only node-resolution data."""
    if not report.dual_critical.unique_maximizer:
        raise PreconditionError("optimal-pair map needs a unique dual orbit")
    expansions: dict[int, list[OptimalW]] = {}
    per_x = []
    for x in range(report.graph.n_nodes):
        bucket: list[OptimalW] = []
        for p in sorted(report.optimal_w_per_x[x]):
            if p not in expansions:
                expansions[p] = _expand_w_node(report, p)
            bucket.extend(expansions[p])
        bucket.sort(key=cmp_to_key(lambda s, t: lex_compare(s.point, t.point)))
        per_x.append(tuple(bucket))
    dual_vals = tuple(report.v.values[x] + report.gamma
                      for x in range(report.graph.n_nodes))
    good = goodness_on_graph(report.dual_graph, report.dual_critical,
                             report.r_star).good
    return OptimalPairMap(report, tuple(per_x), dual_vals, good,
                          report.degenerate)


def twist_monotone(pmap: OptimalPairMap) -> bool:
    """Under a twist kernel the optimal sets must march downward: for
    x < x' every optimal point of x' is lexicographically at most every
    optimal point of x.  Checked on adjacent node pairs (transitive)."""
    for x in range(len(pmap.per_x) - 1):
        lo_here = pmap.per_x[x][0]
        hi_next = pmap.per_x[x + 1][-1]
        if lex_compare(hi_next.point, lo_here.point) > 0:
            return False
    return True


def turning_cut(pmap: OptimalPairMap,
                certificate: TwistCertificate | None = None) -> Cut:
    """The cut below which optimal w's start with 1 and above which
    they start with 0.

    Two independent routes must agree: the last x-node whose optimal
    set contains a 1-starting point, and the first x-node whose
    edge 1·x carries strictly positive calibration error R.  If the
    1-starting region is not an initial segment, or the routes
    disagree, that's an inconsistency in the toolkit, not the input.
    """
    report = pmap.report
    g = report.graph
    d = g.alphabet_size
    if d != 2:
        raise UnsupportedInputError("turning cut is binary-shift only")
    if certificate is None:
        certificate = certify_twist(report.kernel)
    if not certificate.holds:
        raise PreconditionError(
            "turning cut needs a certified twist kernel")

    one_starting = [any(ow.point.symbol(0) == 1 for ow in bucket)
                    for bucket in pmap.per_x]
    # route 1: last x-node with a 1-starting optimal w
    q1 = -1
    for x, flag in enumerate(one_starting):
        if flag:
            q1 = x
    if q1 >= 0 and not all(one_starting[:q1 + 1]):
        raise InvariantViolation(
            "1-starting optimal region is not an initial segment")

    # route 2: first x-node with R(edge 1·x) > 0
    q2 = g.n_nodes
    for x in range(g.n_nodes):
        if report.r.values[g.edge_prepend(1, x)] > 0:
            q2 = x
            break
    if q2 != q1 + 1:
        raise InvariantViolation(
            f"turning-cut routes disagree: optimal-set route cuts after "
            f"node {q1}, calibration route before node {q2}")

    if q1 < 0:  # every optimal w starts with 0: cut at the left end
        end = EventuallyPeriodicPoint((), (0,), d)
        return Cut(end, end, at_boundary=True)
    if q1 == g.n_nodes - 1:  # every optimal w starts with 1: right end
        end = EventuallyPeriodicPoint((), (d - 1,), d)
        return Cut(end, end, at_boundary=True)
    return cut_between_nodes(g.node_word(q1), g.node_word(q1 + 1), d)


@dataclass(frozen=True)
class IntervalRun:
    first_node: int
    last_node: int
    left_end: EventuallyPeriodicPoint     # inf of the first cylinder
    right_end: EventuallyPeriodicPoint    # sup of the last cylinder
    optimal_points: tuple[OptimalW, ...]


@dataclass
class IntervalDecomposition:
    runs: tuple[IntervalRun, ...]
    turning_cut: Cut
    pmap: OptimalPairMap


def interval_decomposition(pmap: OptimalPairMap,
                           certificate: TwistCertificate | None = None,
                           ) -> IntervalDecomposition:
    """Maximal runs of consecutive x-nodes sharing one optimal set,
    with eventually periodic endpoints, plus the turning cut.  Each
    individual optimal point must occupy consecutive x-nodes
    (order-convexity of B(w)); anything else is a twist violation."""
    report = pmap.report
    g = report.graph
    d = g.alphabet_size
    cut = turning_cut(pmap, certificate)

    keys = [tuple(ow.point for ow in bucket) for bucket in pmap.per_x]
    runs = []
    start = 0
    for x in range(1, g.n_nodes + 1):
        if x == g.n_nodes or keys[x] != keys[start]:
            runs.append(IntervalRun(
                first_node=start, last_node=x - 1,
                left_end=EventuallyPeriodicPoint(g.node_word(start), (0,), d),
                right_end=EventuallyPeriodicPoint(g.node_word(x - 1), (d - 1,), d),
                optimal_points=pmap.per_x[start]))
            start = x

    seen_at: dict[EventuallyPeriodicPoint, list[int]] = {}
    for x, key in enumerate(keys):
        for pt in key:
            seen_at.setdefault(pt, []).append(x)
    for pt, xs in seen_at.items():
        if xs != list(range(xs[0], xs[-1] + 1)):
            raise InvariantViolation(
                f"B({pt}) is not order-convex: nodes {xs}")
    return IntervalDecomposition(tuple(runs), cut, pmap)


def decomposition_text(dec: IntervalDecomposition) -> str:
    out = io.StringIO()
    out.write(f"turning cut: {dec.turning_cut}\n")
    out.write(f"{len(dec.runs)} interval(s)\n")
    for run in dec.runs:
        pts = ", ".join(str(ow.point) for ow in run.optimal_points)
        out.write(f"  [{run.left_end} .. {run.right_end}]  "
                  f"({run.last_node - run.first_node + 1} node(s))  "
                  f"optimal w: {pts}\n")
    return out.getvalue()


def _orbit_hits_cut(rep: EventuallyPeriodicPoint, lo: EventuallyPeriodicPoint,
                    hi: EventuallyPeriodicPoint) -> int | None:
    """Smallest n with lo <= T^n(rep) <= hi, searching the whole
    (finite) forward orbit; None if it never lands."""
    point = rep
    bound = rep.transient_length() + rep.period_length()
    for n in range(bound + 1):
        if lex_compare(lo, point) <= 0 and lex_compare(point, hi) <= 0:
            return n
        point = apply_shift(point)
    return None


def change_characterization_check(dec: IntervalDecomposition, cut: Cut) -> bool:
    """Every boundary between adjacent intervals must be visited by the
    forward orbit of the turning cut: some shift iterate of one of the
    cut's representatives lands in the closed gap between the two
    intervals' facing endpoints."""
    for left_run, right_run in zip(dec.runs, dec.runs[1:]):
        lo, hi = left_run.right_end, right_run.left_end
        hit = _orbit_hits_cut(cut.left_rep, lo, hi)
        if hit is None:
            hit = _orbit_hits_cut(cut.right_rep, lo, hi)
        if hit is None:
            return False
    return True


@dataclass(frozen=True)
class FinitenessReport:
    distinct_count: int
    distinct_points: tuple[EventuallyPeriodicPoint, ...]
    orbit_atom_multiplicities: tuple[int, ...]
    graph_property: bool       # at most one orbit atom with several optimal w
    good: bool
    degenerate: bool

    def text(self) -> str:
        lines = [f"distinct optimal w points: {self.distinct_count}"]
        mults = ", ".join(str(m) for m in self.orbit_atom_multiplicities)
        lines.append(f"optimal w per maximizing-orbit atom: {mults}")
        lines.append(f"graph property on the orbit: "
                     f"{'holds' if self.graph_property else 'fails'}")
        lines.append(f"dual goodness: {'yes' if self.good else 'no'}")
        if self.degenerate:
            lines.append("depth-1 input: every pairing is optimal")
        return "\n".join(lines)


def finiteness_report(pmap: OptimalPairMap) -> FinitenessReport:
    """How many distinct optimal w points appear across all x-nodes,
    and whether the restriction to the maximizing orbit is single-valued
    up to at most one atom."""
    distinct: dict[EventuallyPeriodicPoint, None] = {}
    for bucket in pmap.per_x:
        for ow in bucket:
            distinct.setdefault(ow.point)
    atoms = sorted(pmap.report.critical.critical_nodes)
    mults = tuple(len({ow.point for ow in pmap.per_x[x]}) for x in atoms)
    graph_ok = sum(1 for m in mults if m > 1) <= 1
    return FinitenessReport(
        distinct_count=len(distinct),
        distinct_points=tuple(distinct),
        orbit_atom_multiplicities=mults,
        graph_property=graph_ok,
        good=pmap.good,
        degenerate=pmap.degenerate)
