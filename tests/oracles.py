"""Brute-force reference implementations the real modules are tested
against.  Everything here works on raw word tuples — no graph indices,
no shared arithmetic with the library — and enumerates instead of
optimizing, so a bug in the package can't hide in its own oracle.
Sized for small tables (at most a few dozen nodes)."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

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


def atom_cost_table(report, x_nodes, w_nodes) -> list[list[Fraction]]:
    """The transport cost -W(w_j, x_i) between orbit atoms sitting at
    the given kernel nodes, read entry by entry from the report."""
    return [[-report.kernel.value(w, x) for w in w_nodes] for x in x_nodes]


def brute_first_optimal_permutation(cost: list[list[Fraction]],
                                    ) -> tuple[int, ...]:
    """The first permutation in itertools order whose coupling cost is
    minimal: the lexicographically first optimal permutation."""
    p = len(cost)
    best = best_perm = None
    for perm in itertools.permutations(range(p)):
        total = sum(cost[i][perm[i]] for i in range(p))
        if best is None or total < best:
            best, best_perm = total, perm
    return best_perm


def lp_transport(cost: list[list[Fraction]], mass: Fraction,
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

    for _ in range(100_000):
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
            raise AssertionError("degenerate basis lost tree connectivity")

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
            raise AssertionError("no pivot cycle through basis tree")
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
    raise AssertionError("transportation simplex exceeded its pivot cap")


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


def logsumexp(arr: np.ndarray, axis=None) -> np.ndarray | float:
    hi = np.max(arr, axis=axis, keepdims=True)
    hi = np.where(np.isfinite(hi), hi, 0.0)
    out = np.log(np.sum(np.exp(arr - hi), axis=axis, keepdims=True)) + hi
    return out.reshape(()).item() if axis is None else np.squeeze(out, axis=axis)


def allocating_power_iteration(logm: np.ndarray, log_shift: float,
                               ) -> tuple[float, np.ndarray, int]:
    """The Perron loop as it was before its steps reused buffers: every
    step builds fresh n×n temporaries.  Same operations, same order and
    same stopping rule (estimates within 1e-14 relative, log-vector
    settled within 1e-13, residual at most 1e-12), so the library's
    result must match it bit for bit."""
    n = logm.shape[0]
    shifted = logm.copy()
    diag = np.arange(n)
    shifted[diag, diag] = logsumexp(
        np.stack([logm[diag, diag], np.full(n, log_shift)]), axis=0)
    v = np.zeros(n)
    est = 0.0
    for it in range(1, 10 ** 6 + 1):
        new = logsumexp(shifted + v[None, :], axis=1)
        new_est = float(np.max(new))
        v_new = new - new_est
        v_scale = max(1.0, float(np.max(np.abs(v_new))))
        v_settled = float(np.max(np.abs(v_new - v))) < 1e-13 * v_scale
        if abs(new_est - est) < 1e-14 * max(1.0, abs(new_est)) and v_settled:
            ratio = math.exp(log_shift - new_est)
            assert ratio < 1.0 - 1e-9, "shifted eigenvalue collapsed onto the shift"
            log_lambda = new_est + math.log1p(-ratio)
            check = logsumexp(logm + v_new[None, :], axis=1)
            resid = float(np.max(np.abs(
                np.exp(check - log_lambda) - np.exp(v_new))))
            if resid <= 1e-12:
                return log_lambda, v_new, it
        est, v = new_est, v_new
    raise AssertionError("power iteration did not converge")
