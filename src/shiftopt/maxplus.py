"""Exact ergodic-optimization core on the de Bruijn graph.

Everything here is max-plus linear algebra over exact rationals: the
maximizing value is a maximum cycle mean, calibrated subactions are
longest-path potentials after normalizing the weights, and the action
potentials (Mañé, Peierls, min-cost-to-critical) are longest or
shortest path tables.  Weights are scaled to a common denominator and
handled as integers; when the scaled magnitudes are small enough that
no intermediate can overflow, the loops run vectorized on int64,
otherwise on numpy object arrays of Python integers (Karp's tables and
the error function) or plain Python integers (the relaxations) — every
path is exact.

The certified route to the critical structure:

  1. Karp's recurrence gives the maximum cycle mean m and, by
     backtracking the optimal length-n walk, one cycle attaining it
     (every cycle on that walk has mean exactly m).
  2. Longest-path relaxation from that cycle's nodes yields a
     calibrated subaction V1 (the cycle carries zero normalized weight,
     so calibration is tight around it and propagates everywhere).
  3. An edge lies on a zero-mean cycle iff it is tight for V1 and both
     endpoints sit in the same strongly connected component of the
     tight subgraph.  Those are the critical edges.

A unique maximizing orbit is read off the critical successors; listing
every maximizing orbit is exponential in general and happens only in
critical_orbits, on request.  Tests cross-check step 3 and
critical_orbits against brute-force enumeration of all simple cycles on
every sample small enough to enumerate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import InvalidInputError, InvariantViolation, PreconditionError
from .graph import DeBruijnGraph, build_de_bruijn
from .potentials import LocallyConstantPotential
from .words import Word

_NEG = -(1 << 62)          # "no walk" sentinel in the int64 paths
_THRESH = _NEG // 2
_SAFE = 1 << 60            # vectorize only when (rounds+2)*max|w| stays below


def _scaled_weights(values, extra_denominator: int = 1) -> tuple[list[int], int]:
    """Common-denominator view of a rational table: (ints, D) with
    table[i] == ints[i] / D exactly."""
    denom = lcm(extra_denominator, *{v.denominator for v in values})
    return [v.numerator * (denom // v.denominator) for v in values], denom


def _fractions(ints, denom: int) -> tuple[Fraction, ...]:
    """ints / denom as Fractions; equal entries share one."""
    ints = list(ints)
    memo = {x: Fraction(x, denom) for x in set(ints)}
    return tuple(map(memo.__getitem__, ints))


def _normalized_int_weights(g: DeBruijnGraph, mean: Fraction) -> tuple[list[int], int]:
    """Integer view of (weight - mean): all cycle sums become <= 0."""
    scaled, denom = _scaled_weights(g.weights, mean.denominator)
    shift = mean.numerator * (denom // mean.denominator)
    return [w - shift for w in scaled], denom


def _vector_safe(weights: list[int], rounds: int) -> bool:
    mx = max((abs(w) for w in weights), default=0) + 1
    return (rounds + 2) * mx < _SAFE


def _int_dtype(bounds, terms: int):
    """int64 when a sum of `terms` entries bounded by max |bounds| cannot
    overflow, Python integers (object arrays) otherwise."""
    return np.int64 if _vector_safe(list(bounds), terms) else object


# ---------------------------------------------------------------------------
# result types

@dataclass(frozen=True)
class CriticalStructure:
    """Maximizing value and the subgraph attaining it.

    classes partitions the critical nodes into strongly connected
    components of the critical subgraph.  orbits holds the maximizing
    orbit as a tuple of edge indices rotated to start at its smallest
    edge when it is unique, and is empty otherwise (critical_orbits
    lists every maximizing orbit on request).  cycle is the cycle of
    mean m_A that Karp's recurrence found, in walk order.
    """

    mean: Fraction
    critical_edges: frozenset[int]
    critical_nodes: frozenset[int]
    classes: tuple[frozenset[int], ...]
    orbits: tuple[tuple[int, ...], ...]
    unique_maximizer: bool
    cycle: tuple[int, ...]


@dataclass(frozen=True)
class Subaction:
    """Calibrated subaction: node values with value(anchor) = 0."""

    values: tuple[Fraction, ...]
    anchor: int = 0

    def value(self, node: int) -> Fraction:
        return self.values[node]


@dataclass(frozen=True)
class ErrorFunction:
    """Edge table R = V(target) - V(source) - weight + m, all >= 0.

    R vanishes precisely on the edges an optimal trajectory may use;
    summing R along an orbit measures its deviation from maximizing.
    """

    values: tuple[Fraction, ...]

    def value(self, edge: int) -> Fraction:
        return self.values[edge]

    def as_potential(self, g: DeBruijnGraph) -> LocallyConstantPotential:
        return LocallyConstantPotential(g.alphabet_size, g.depth, self.values)


@dataclass(frozen=True)
class CoboundaryReport:
    is_coboundary: bool
    witness_cycle: tuple[int, ...] | None = None
    witness_sum: Fraction | None = None
    transfer: tuple[Fraction, ...] | None = None  # node table u with z = u∘shift - u


# ---------------------------------------------------------------------------
# Karp's algorithm with certificate extraction

def _min_ratio(num: np.ndarray, den: np.ndarray, live: np.ndarray):
    """Exact column-wise minimum of num / den over the live rows (den >
    0 and broadcastable to num; every column holds a live row), as
    (num, den) per column.  A tournament of the first half of the rows
    against the second, by cross-multiplication, so products never
    exceed |num| * max(den); with an odd count the middle row meets
    itself and stays."""
    while len(num) > 1:
        h = (len(num) + 1) // 2
        a, b = slice(0, h), slice(len(num) - h, None)
        take = live[b] & ~(live[a] & (num[b] * den[a] >= num[a] * den[b]))
        num, den = np.where(take, num[b], num[a]), np.where(take, den[b], den[a])
        live = live[a] | live[b]
    return num[0], den[0]


def _karp(g: DeBruijnGraph, weights: list[int]) -> tuple[Fraction, list[int]]:
    """Maximum cycle mean of integer edge weights, plus one attaining
    cycle as a list of edge indices (in walk order).

    rows[l, v] is the best weight of a length-l walk 0 -> v where
    reach[l, v] says such a walk exists, and choice[l, v] the first
    symbol of the edge into v that realizes it (the first maximal one).
    The tables are int64 when no walk weight can overflow and Python
    integers otherwise; m = max over v of min over l of
    (rows[n, v] - rows[l, v]) / (n - l) is then taken exactly, in int64
    only when the cross-multiplied ratios provably fit too."""
    n, d = g.n_nodes, g.alphabet_size
    dtype = _int_dtype(weights, n)
    w = np.array(weights, dtype=dtype).reshape(d, n)     # [a, v]: edge a·v
    src = np.arange(d * n).reshape(d, n) // d
    rows = np.zeros((n + 1, n), dtype=dtype)
    reach = np.zeros((n + 1, n), dtype=bool)
    reach[0, 0] = True
    choice = np.zeros((n + 1, n), dtype=np.min_scalar_type(d - 1))
    for ell in range(1, n + 1):
        cand = rows[ell - 1][src] + w
        live = reach[ell - 1][src]
        best, have, pick = cand[0], live[0], choice[ell]
        for a in range(1, d):
            take = live[a] & ~(have & (cand[a] <= best))
            best = np.where(take, cand[a], best)
            pick[take] = a
            have = have | live[a]
        rows[ell] = best
        reach[ell] = have

    # |rows| <= n max|w|, so each cross product stays below 2 n^2 max|w|
    rows = rows.astype(_int_dtype(weights, 2 * n * n), copy=False)
    lengths = (n - np.arange(n)).astype(rows.dtype)[:, None]
    num, den = _min_ratio(rows[n] - rows[:n], lengths, reach[:n])
    # the maximum over v is minus the minimum of the negated ratios
    top_num, top_den = _min_ratio(-num[:, None], den[:, None],
                                  np.ones((n, 1), dtype=bool))
    best_num, best_den = -top_num[0], top_den[0]
    best_v = int(np.flatnonzero(num * best_den == best_num * den)[0])

    # Backtrack the optimal length-n walk to best_v; its first repeated
    # node closes a cycle, and every cycle on this walk has mean m.
    path_edges: list[int] = []
    v = best_v
    for ell in range(n, 0, -1):
        e = int(choice[ell, v]) * n + v
        path_edges.append(e)
        v = e // d
    path_edges.reverse()  # walk: node 0 -> ... -> best_v
    seen = {0: 0}
    cycle: list[int] | None = None
    for i, e in enumerate(path_edges):
        t = e % n
        if t in seen:
            cycle = path_edges[seen[t]:i + 1]
            break
        seen[t] = i + 1
    if cycle is None:
        raise InvariantViolation("length-n walk contains no repeated node")
    return Fraction(int(best_num), int(best_den)), cycle


# ---------------------------------------------------------------------------
# relaxation loops

def _longest_path_from(g: DeBruijnGraph, weights: list[int],
                       sources: set[int]) -> list[int]:
    """Longest-walk weights from a source set under integer weights with
    no positive cycle; sources start at 0.  Settles within n rounds."""
    n, d = g.n_nodes, g.alphabet_size
    if _vector_safe(weights, n):
        w = np.asarray(weights, dtype=np.int64)
        val = np.full(n, _NEG, dtype=np.int64)
        val[sorted(sources)] = 0
        for _ in range(n + 1):
            cand = (np.repeat(val, d) + w).reshape(d, n).max(axis=0)
            cand = np.where(cand > _THRESH, cand, _NEG)
            new = np.maximum(val, cand)
            if np.array_equal(new, val):
                break
            val = new
        else:
            raise InvariantViolation("longest-path relaxation failed to settle")
        out = val.tolist()
        if any(x <= _THRESH for x in out):
            raise InvariantViolation("some node unreachable from the source set")
        return out
    vals: list[int | None] = [0 if v in sources else None for v in range(n)]
    for _ in range(n + 1):
        changed = False
        for e in range(g.n_edges):
            s = vals[e // d]
            if s is None:
                continue
            cand = s + weights[e]
            t = e % n
            if vals[t] is None or cand > vals[t]:
                vals[t] = cand
                changed = True
        if not changed:
            break
    else:
        raise InvariantViolation("longest-path relaxation failed to settle")
    if any(x is None for x in vals):
        raise InvariantViolation("some node unreachable from the source set")
    return vals  # type: ignore[return-value]


def _min_cost_forward(g: DeBruijnGraph, costs: list[int],
                      targets: set[int]) -> list[int]:
    """Cheapest forward-path cost from every node into the target set,
    nonnegative integer edge costs; targets cost 0."""
    n, d = g.n_nodes, g.alphabet_size
    if min(costs, default=0) < 0:
        raise InvalidInputError("edge costs must be nonnegative")
    pos = 1 << 62
    if _vector_safe(costs, n):
        w = np.asarray(costs, dtype=np.int64)
        tgt_idx = np.arange(g.n_edges, dtype=np.int64) % n
        val = np.full(n, pos, dtype=np.int64)
        val[sorted(targets)] = 0
        for _ in range(n + 1):
            cand = (w + val[tgt_idx]).reshape(n, d).min(axis=1)
            new = np.minimum(val, cand)
            if np.array_equal(new, val):
                break
            val = new
        else:
            raise InvariantViolation("shortest-path relaxation failed to settle")
        out = val.tolist()
        if any(x >= pos // 2 for x in out):
            raise InvariantViolation("target set unreachable from some node")
        return out
    vals: list[int | None] = [0 if v in targets else None for v in range(n)]
    for _ in range(n + 1):
        changed = False
        for e in range(g.n_edges):
            t = vals[e % n]
            if t is None:
                continue
            cand = t + costs[e]
            s = e // d
            if vals[s] is None or cand < vals[s]:
                vals[s] = cand
                changed = True
        if not changed:
            break
    else:
        raise InvariantViolation("shortest-path relaxation failed to settle")
    if any(x is None for x in vals):
        raise InvariantViolation("target set unreachable from some node")
    return vals  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# strongly connected components (iterative Tarjan)

def _tarjan_scc(n: int, adjacency: list[list[int]]) -> list[int]:
    """Component ids for a directed graph given as target lists."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    comp = [-1] * n
    stack: list[int] = []
    counter = 0
    n_comps = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, ei = work[-1]
            if ei == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while ei < len(adjacency[v]):
                t = adjacency[v][ei]
                ei += 1
                if index[t] == -1:
                    work[-1] = (v, ei)
                    work.append((t, 0))
                    advanced = True
                    break
                if on_stack[t]:
                    low[v] = min(low[v], index[t])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                while True:
                    u = stack.pop()
                    on_stack[u] = False
                    comp[u] = n_comps
                    if u == v:
                        break
                n_comps += 1
    return comp


# ---------------------------------------------------------------------------
# the public operations

def max_mean_cycle(g: DeBruijnGraph) -> CriticalStructure:
    """Maximizing value m and the full critical structure, exact.

    m is the maximum over all cycles of (weight sum)/(length).  The
    uniqueness flag is true iff there is exactly one critical class and
    it consists of a single simple cycle; that cycle is then read off
    the critical successors.  No other orbit is enumerated.
    """
    if g.n_nodes < 1:
        raise InvalidInputError("empty graph")
    scaled, denom = _scaled_weights(g.weights)
    mean_scaled, cycle = _karp(g, scaled)
    mean = mean_scaled / denom

    norm, _ = _normalized_int_weights(g, mean)
    cycle_nodes = {g.source(e) for e in cycle}
    v1 = _longest_path_from(g, norm, cycle_nodes)

    n, d = g.n_nodes, g.alphabet_size
    tight_adj: list[list[int]] = [[] for _ in range(n)]
    tight_edges = []
    for e in range(g.n_edges):
        if v1[e % n] - v1[e // d] - norm[e] == 0:
            tight_adj[e // d].append(e % n)
            tight_edges.append(e)
    comp = _tarjan_scc(n, tight_adj)
    critical_edges = frozenset(
        e for e in tight_edges if comp[e // d] == comp[e % n])
    critical_nodes = frozenset(e // d for e in critical_edges) | frozenset(
        e % n for e in critical_edges)

    by_comp: dict[int, set[int]] = {}
    for v in critical_nodes:
        by_comp.setdefault(comp[v], set()).add(v)
    classes = tuple(frozenset(c) for c in sorted(by_comp.values(), key=min))

    successor: dict[int, int] = {}
    unique = len(classes) == 1
    for e in critical_edges:
        unique = unique and e // d not in successor
        successor[e // d] = e

    orbits: tuple[tuple[int, ...], ...] = ()
    if unique:
        start = min(critical_nodes)
        orbit = [successor[start]]
        while orbit[-1] % n != start:
            orbit.append(successor[orbit[-1] % n])
        i = orbit.index(min(orbit))
        orbits = (tuple(orbit[i:] + orbit[:i]),)
    return CriticalStructure(mean, critical_edges, critical_nodes,
                             classes, orbits, unique, tuple(cycle))


def critical_orbits(g: DeBruijnGraph, cs: CriticalStructure,
                    limit: int = 10000) -> tuple[tuple[int, ...], ...]:
    """Every maximizing orbit: the node-simple cycles of the critical
    subgraph, each rotated to start at its smallest edge index, sorted
    by (length, edges).  Refuses with PreconditionError once more than
    `limit` are found; their number can grow exponentially in the
    node count."""
    if cs.unique_maximizer:
        return cs.orbits
    out: dict[int, list[int]] = {}
    for e in sorted(cs.critical_edges):
        out.setdefault(g.source(e), []).append(e)
    found: set[tuple[int, ...]] = set()
    for start in sorted(out):
        # cycles whose smallest node is `start`, by an explicit-stack DFS
        path: list[int] = []
        on_path = {start}
        stack = [iter(out[start])]
        while stack:
            e = next(stack[-1], None)
            if e is None:
                stack.pop()
                if path:
                    on_path.remove(g.target(path.pop()))
                continue
            t = g.target(e)
            if t == start:
                cyc = tuple(path) + (e,)
                i = cyc.index(min(cyc))
                found.add(cyc[i:] + cyc[:i])
                if len(found) > limit:
                    raise PreconditionError(
                        f"more than {limit} maximizing orbits; "
                        "raise the limit to enumerate them all")
            elif t > start and t not in on_path:
                on_path.add(t)
                path.append(e)
                stack.append(iter(out.get(t, ())))
    return tuple(sorted(found, key=lambda c: (len(c), c)))


def cycle_word(g: DeBruijnGraph, cycle: tuple[int, ...]) -> Word:
    """Period word of the periodic point tracing the given cycle: start
    at the cycle's first node and read len(cycle) symbols."""
    start = g.source(cycle[0])
    stream = list(g.node_word(start))
    for e in cycle:
        stream.append(g.edge_word(e)[-1])
    return tuple(stream[:len(cycle)])


def calibrated_subaction(g: DeBruijnGraph, cs: CriticalStructure) -> Subaction:
    """Longest-path subaction V(x) = max over critical nodes u of the
    best normalized-weight path u -> x, shifted so that V = 0 at the
    lexicographically smallest node.  Calibration
    V(target) = max over incoming e of [V(source) + w(e) - m]
    holds exactly at every node."""
    norm, denom = _normalized_int_weights(g, cs.mean)
    raw = _longest_path_from(g, norm, set(cs.critical_nodes))
    anchor = 0
    base = raw[anchor]
    return Subaction(_fractions((x - base for x in raw), denom), anchor)


def error_function(g: DeBruijnGraph, cs: CriticalStructure, v: Subaction) -> ErrorFunction:
    """R(edge) = V(target) - V(source) - weight + m, checked nonnegative
    with a zero among each node's incoming edges."""
    n, d = g.n_nodes, g.alphabet_size
    ints, denom = _scaled_weights(v.values + g.weights + (cs.mean,))
    dtype = _int_dtype(ints, 4)
    vv = np.array(ints[:n], dtype=dtype)
    edges = np.arange(g.n_edges)
    r = vv[edges % n] - vv[edges // d] - np.array(ints[n:-1], dtype=dtype) + ints[-1]
    neg = np.flatnonzero(r < 0)
    if neg.size:
        e = int(neg[0])
        raise InvariantViolation(
            f"calibration violated at edge {g.edge_word(e)}: "
            f"R = {Fraction(int(r[e]), denom)}")
    untight = np.flatnonzero(~(r == 0).reshape(d, n).any(axis=0))
    if untight.size:
        raise InvariantViolation(
            f"node {g.node_word(int(untight[0]))} has no tight incoming edge")
    return ErrorFunction(_fractions(r.tolist(), denom))


def analyze(pot: LocallyConstantPotential):
    """One-stop pipeline for a potential: returns (graph, critical
    structure, calibrated subaction, error function)."""
    g = build_de_bruijn(pot.alphabet_size, pot.depth, pot)
    cs = max_mean_cycle(g)
    v = calibrated_subaction(g, cs)
    r = error_function(g, cs, v)
    return g, cs, v, r


# ---------------------------------------------------------------------------
# action potentials

@dataclass(frozen=True)
class PairTable:
    """Node-pair table of exact rationals (Mañé potential, Peierls
    barrier): values[u][v] is the entry for source u, target v."""

    values: tuple[tuple[Fraction, ...], ...]

    def value(self, u: int, v: int) -> Fraction:
        return self.values[u][v]


_PAIR_TABLE_LIMIT = 256


def mane_potential(g: DeBruijnGraph, cs: CriticalStructure) -> PairTable:
    """S(u, v) = best normalized weight of a path u -> v with at least
    one edge.  All cycles are nonpositive after normalization, so the
    supremum over walks is attained on simple paths and S(u, u) <= 0."""
    n = g.n_nodes
    if n > _PAIR_TABLE_LIMIT:
        raise PreconditionError(
            f"all-pairs table wants <= {_PAIR_TABLE_LIMIT} nodes, got {n}")
    norm, denom = _normalized_int_weights(g, cs.mean)
    s: list[list[int | None]] = [[None] * n for _ in range(n)]
    for e in range(g.n_edges):
        u, v, w = g.source(e), g.target(e), norm[e]
        if s[u][v] is None or w > s[u][v]:
            s[u][v] = w
    for mid in range(n):
        srow = s[mid]
        for u in range(n):
            via = s[u][mid]
            if via is None:
                continue
            row = s[u]
            for v in range(n):
                leg = srow[v]
                if leg is None:
                    continue
                cand = via + leg
                if row[v] is None or cand > row[v]:
                    row[v] = cand
    for u in range(n):
        if s[u][u] is not None and s[u][u] > 0:
            raise InvariantViolation("positive normalized cycle: cycle mean exceeds m")
    return PairTable(tuple(
        tuple(Fraction(x, denom) if x is not None else None for x in row)  # type: ignore[misc]
        for row in s))


def aubry_set(g: DeBruijnGraph, cs: CriticalStructure,
              mane: PairTable | None = None) -> frozenset[int]:
    """Nodes u with S(u, u) = 0, computed from the Mañé table and
    verified against the critical node set (they must agree)."""
    if mane is None:
        mane = mane_potential(g, cs)
    nodes = frozenset(u for u in range(g.n_nodes) if mane.value(u, u) == 0)
    if nodes != cs.critical_nodes:
        raise InvariantViolation(
            "Aubry set from the Mañé potential disagrees with the critical nodes")
    return nodes


def peierls_barrier(g: DeBruijnGraph, cs: CriticalStructure,
                    mane: PairTable | None = None) -> PairTable:
    """h(u, v) = max over critical nodes c of S0(u, c) + S0(c, v), the
    legs allowed to have length zero at c.  Equals S(u, .) whenever u
    is itself critical."""
    if mane is None:
        mane = mane_potential(g, cs)
    n = g.n_nodes
    crit = sorted(cs.critical_nodes)
    if not crit:
        raise InvariantViolation("critical node set is empty")
    zero = Fraction(0)
    rows = []
    for u in range(n):
        row = []
        for v in range(n):
            best = None
            for c in crit:
                leg_in = zero if u == c else mane.value(u, c)
                leg_out = zero if c == v else mane.value(c, v)
                if leg_in is None or leg_out is None:
                    continue
                cand = leg_in + leg_out
                if best is None or cand > best:
                    best = cand
            row.append(best)
        rows.append(tuple(row))
    return PairTable(tuple(rows))


def min_cost_to_critical(g: DeBruijnGraph, r: ErrorFunction,
                         cs: CriticalStructure) -> tuple[Fraction, ...]:
    """J(u) = cheapest forward route from u into the critical set with
    edge costs R; zero on critical nodes.  Satisfies the one-step
    principle J(u) = min over out-edges e of [R(e) + J(target(e))]."""
    scaled, denom = _scaled_weights(r.values)
    j = _min_cost_forward(g, scaled, set(cs.critical_nodes))
    return tuple(Fraction(x, denom) for x in j)


def deviation_at_point(g: DeBruijnGraph, r: ErrorFunction, p) -> Fraction | None:
    """Sum of R over the sliding depth-k windows of p's orbit; None
    stands for +infinity (the terminal cycle meets a positive-R edge,
    so the series diverges)."""
    if p.alphabet_size != g.alphabet_size:
        raise InvalidInputError("point and graph alphabets differ")
    k = g.depth

    def window(i: int) -> int:
        return g.edge_index(tuple(p.symbol(i + t) for t in range(k)))

    pre_len = len(p.preperiod)
    # windows at i >= pre_len repeat with the point's period
    for i in range(pre_len, pre_len + len(p.period)):
        if r.values[window(i)] != 0:
            return None
    return sum((r.values[window(i)] for i in range(pre_len)), Fraction(0))


def deviation_witness(g: DeBruijnGraph, r: ErrorFunction, cs: CriticalStructure,
                      j_table: tuple[Fraction, ...], node: int):
    """An eventually periodic point in the cylinder of `node` whose
    orbit deviation equals J(node): follow a cheapest-R route into the
    critical set, then trace a maximizing orbit forever."""
    from .words import EventuallyPeriodicPoint
    d = g.alphabet_size
    appended: list[int] = []
    v = node
    guard = 0
    while v not in cs.critical_nodes:
        for e in g.out_edges(v):
            if r.values[e] + j_table[g.target(e)] == j_table[v]:
                appended.append(g.edge_word(e)[-1])
                v = g.target(e)
                break
        else:
            raise InvariantViolation("one-step principle fails along the witness route")
        guard += 1
        if guard > g.n_nodes:
            raise InvariantViolation("witness route does not reach the critical set")
    cyc = None
    for orbit in critical_orbits(g, cs):
        for i, e in enumerate(orbit):
            if g.source(e) == v:
                cyc = orbit[i:] + orbit[:i]
                break
        if cyc:
            break
    if cyc is None:
        raise InvariantViolation("no maximizing orbit passes through the critical node")
    period = tuple(g.edge_word(e)[-1] for e in cyc)
    pre = g.node_word(node) + tuple(appended)
    return EventuallyPeriodicPoint(pre, period, d)


def is_coboundary(z: LocallyConstantPotential) -> CoboundaryReport:
    """Whether z integrates to zero against every invariant measure,
    i.e. every cycle of its graph has weight sum zero.  Runs both
    extreme cycle means: max mean = min mean = 0 forces all cycle sums
    to vanish, and the calibrated subaction is then an exact transfer
    function u with z = u∘shift - u."""
    g = build_de_bruijn(z.alphabet_size, z.depth, z)
    top = max_mean_cycle(g)
    if top.mean != 0:
        cyc = top.cycle
        return CoboundaryReport(False, cyc, sum(g.weights[e] for e in cyc))
    bottom = max_mean_cycle(build_de_bruijn(z.alphabet_size, z.depth,
                                            z.scale(Fraction(-1))))
    if bottom.mean != 0:
        cyc = bottom.cycle
        return CoboundaryReport(False, cyc, sum(g.weights[e] for e in cyc))
    v = calibrated_subaction(g, top)
    # with every cycle sum zero, R >= 0 and all cycle R-sums are 0, so
    # R = 0 edge-by-edge: z(e) = V(target) - V(source) exactly
    r = error_function(g, top, v)
    if any(x != 0 for x in r.values):
        raise InvariantViolation("zero cycle means but nonzero calibration residue")
    return CoboundaryReport(True, None, None, v.values)
