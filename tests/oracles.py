"""Brute-force reference implementations the real modules are tested
against.  Everything here works on raw word tuples — no graph indices,
no shared arithmetic with the library — and enumerates instead of
optimizing, so a bug in the package can't hide in its own oracle.
Sized for small tables (at most a few dozen nodes)."""

from __future__ import annotations

import itertools
from fractions import Fraction

Word = tuple[int, ...]


def brute_simple_cycles(d: int, k: int,
                        value_of: dict[Word, Fraction],
                        ) -> list[tuple[Fraction, tuple[Word, ...]]]:
    """Every node-simple cycle of the depth-k window graph, as (mean,
    edge words).  Nodes are the (k-1)-words; an edge is a k-word read
    as source-prefix plus appended symbol."""
    if d ** (k - 1) > 64:
        raise ValueError("brute cycle enumeration is for at most 64 nodes")
    nodes = sorted(itertools.product(range(d), repeat=k - 1))
    cycles: list[tuple[Fraction, tuple[Word, ...]]] = []

    for start in nodes:
        # only cycles whose smallest node is `start`
        path: list[Word] = []
        visited = {start}

        def walk(u: Word) -> None:
            for a in range(d):
                edge = u + (a,)
                t = edge[1:]
                if t < start:
                    continue
                if t == start:
                    cyc = tuple(path) + (edge,)
                    mean = sum(value_of[e] for e in cyc) / len(cyc)
                    cycles.append((mean, cyc))
                elif t not in visited:
                    visited.add(t)
                    path.append(edge)
                    walk(t)
                    path.pop()
                    visited.remove(t)

        walk(start)
    return cycles


def brute_max_mean(d: int, k: int,
                   value_of: dict[Word, Fraction]) -> Fraction:
    return max(mean for mean, _ in brute_simple_cycles(d, k, value_of))


def brute_argmax_cycles(d: int, k: int,
                        value_of: dict[Word, Fraction],
                        ) -> list[tuple[Word, ...]]:
    cycles = brute_simple_cycles(d, k, value_of)
    m = max(mean for mean, _ in cycles)
    return [cyc for mean, cyc in cycles if mean == m]


def brute_critical_edge_words(d: int, k: int,
                              value_of: dict[Word, Fraction]) -> frozenset[Word]:
    return frozenset(e for cyc in brute_argmax_cycles(d, k, value_of) for e in cyc)


def brute_critical_node_words(d: int, k: int,
                              value_of: dict[Word, Fraction]) -> frozenset[Word]:
    return frozenset(e[:-1] for cyc in brute_argmax_cycles(d, k, value_of)
                     for e in cyc)


def brute_best_permutation_cost(cost: list[list[Fraction]]) -> Fraction:
    """Minimal coupling cost over permutations, as the plain average —
    the reference value for uniform-marginal transport."""
    p = len(cost)
    best = min(sum(cost[i][perm[i]] for i in range(p))
               for perm in itertools.permutations(range(p)))
    return Fraction(best, p)


def orbit_average(word: Word, value_of: dict[Word, Fraction]) -> Fraction:
    """Mean of a depth-k table along the periodic orbit spelled by
    `word` (windows wrap around)."""
    k = len(next(iter(value_of)))
    p = len(word)
    total = sum(value_of[tuple(word[(i + t) % p] for t in range(k))]
                for i in range(p))
    return Fraction(total, p)


def brute_kernel(d: int, k: int, value_of: dict[Word, Fraction],
                 base: Word) -> dict[tuple[Word, Word], Fraction]:
    """The involution kernel entry by entry: for all (k-1)-words w, x,
    W(w, x) = sum over n = 0..k-2 of A(w_n ... w_0 x) - A(w_n ... w_0 x̄),
    where `base` holds the first k-1 symbols of the base point x̄."""
    nodes = list(itertools.product(range(d), repeat=k - 1))
    table = {}
    for w in nodes:
        for x in nodes:
            total = Fraction(0)
            for n in range(k - 1):
                head = w[n::-1]              # (w_n, ..., w_0)
                tail = k - 1 - n
                total += value_of[head + x[:tail]] - value_of[head + base[:tail]]
            table[w, x] = total
    return table


def brute_b_table(d: int, k: int,
                  kernel: dict[tuple[Word, Word], Fraction],
                  v: dict[Word, Fraction], v_star: dict[Word, Fraction],
                  j_star: dict[Word, Fraction],
                  ) -> tuple[Fraction, list[list[Fraction]]]:
    """gamma and the b-table b[x][w] = V(x) + V*(w) + J*(w) - W(w, x)
    + gamma over (k-1)-words in lexicographic order, gamma being the
    excess of max_w [W(w, x) - V*(w) - J*(w)] over V(x); raises if that
    excess is not the same for every x."""
    nodes = list(itertools.product(range(d), repeat=k - 1))
    gammas = {max(kernel[w, x] - v_star[w] - j_star[w] for w in nodes) - v[x]
              for x in nodes}
    if len(gammas) != 1:
        raise ValueError(f"gamma is not constant: {sorted(gammas)}")
    gamma = gammas.pop()
    return gamma, [[v[x] + v_star[w] + j_star[w] - kernel[w, x] + gamma
                    for w in nodes] for x in nodes]


def brute_fundamental_relation(d: int, k: int,
                               kernel: dict[tuple[Word, Word], Fraction],
                               v: dict[Word, Fraction], v_star: dict[Word, Fraction],
                               r: dict[Word, Fraction], r_star: dict[Word, Fraction],
                               j_star: dict[Word, Fraction],
                               ) -> tuple[str | None, Word | None, Word | None,
                                          Fraction | None, Fraction | None, int]:
    """FR and FR1 (see duality.fundamental_relation_check) pair by pair,
    x-words outer and dual edge words inner: (identity, x, edge, lhs,
    rhs, pairs checked) of the first violation, FR before FR1, or
    (None, None, None, None, None, pairs checked)."""
    nodes = list(itertools.product(range(d), repeat=k - 1))
    edges = list(itertools.product(range(d), repeat=k))
    x0 = nodes[0]
    gamma = max(kernel[w, x0] - v_star[w] - j_star[w] for w in nodes) - v[x0]

    def b_edge(x: Word, e: Word) -> Fraction:
        return (v[x] + v_star[e[:k - 1]] + r_star[e] + j_star[e[1:]]
                - kernel[e[:k - 1], x] + gamma)

    def b_node(x: Word, w: Word) -> Fraction:
        return min(b_edge(x, w + (a,)) for a in range(d))

    checked = 0
    for x in nodes:
        for e in edges:
            shifted = (e[0],) + x
            tau = shifted[:k - 1]
            src, tgt = e[:k - 1], e[1:]
            here = r[shifted]
            rhs = (v_star[src] + v[x] - kernel[src, x]) \
                - (v_star[tgt] + v[tau] - kernel[tgt, tau]) + r_star[e]
            checked += 1
            if here != rhs:
                return "FR", x, e, here, rhs, checked
            fr1 = b_edge(x, e) - b_node(tau, tgt)
            if fr1 != here:
                return "FR1", x, e, fr1, here, checked
    return None, None, None, None, None, checked


def brute_twist(kernel: list[list[Fraction]],
                ) -> tuple[bool, int, tuple[int, int, int, int, Fraction, Fraction] | None]:
    """Strict twist W(a,b) + W(a',b') < W(a,b') + W(a',b) on a square
    table (rows a, columns b) over all a < a', b < b', quadruple by
    quadruple: (holds, quadruples checked, first failing
    (a, b, a', b', lhs, rhs) or None)."""
    n = len(kernel)
    checked = 0
    for a, a2 in itertools.combinations(range(n), 2):
        for b, b2 in itertools.combinations(range(n), 2):
            checked += 1
            lhs = kernel[a][b] + kernel[a2][b2]
            rhs = kernel[a][b2] + kernel[a2][b]
            if not lhs < rhs:
                return False, checked, (a, b, a2, b2, lhs, rhs)
    return True, checked, None
