import dataclasses
import itertools
import random
import time
from fractions import Fraction

import pytest

from oracles import (atom_cost_table, brute_best_permutation_cost,
                     brute_first_optimal_permutation, lp_transport)
from shiftopt.duality import build_duality_report
from shiftopt.errors import InvariantViolation, PreconditionError
from shiftopt.genericity import perturb_to_unique
from shiftopt.potentials import LocallyConstantPotential, canonical_a2
from shiftopt.transport import (OrbitMeasure, _first_perfect_matching,
                                dual_value, graph_property_check,
                                maximizing_orbit_measures, plan_csv,
                                slackness_check, solve_transport)
from shiftopt.twist import optimal_pair_map
from shiftopt.words import EventuallyPeriodicPoint

F = Fraction


def _report(rng, k, d=2):
    pot = LocallyConstantPotential(d, k, tuple(
        F(rng.randrange(-8, 9), rng.choice((1, 2, 4)))
        for _ in range(d ** k)))
    return build_duality_report(perturb_to_unique(pot, F(1, 16)))


def _planted(word, k, rng):
    """Depth-k potential that is 0 on the cyclic k-windows of `word` and
    negative elsewhere: its unique maximizing orbit is the word's."""
    p = len(word)
    edges = {tuple(word[(i + t) % p] for t in range(k)) for i in range(p)}
    return LocallyConstantPotential(2, k, tuple(
        F(0) if w in edges else F(-rng.randrange(1, 9), rng.choice((1, 2, 4)))
        for w in itertools.product((0, 1), repeat=k)))


def _atom_costs(rep, plan):
    k = rep.potential.depth
    return atom_cost_table(rep, OrbitMeasure(plan.atoms_x).node_indices(k),
                           OrbitMeasure(plan.atoms_w).node_indices(k))


# -- canonical case, frozen ----------------------------------------------------

def test_a2_transport():
    rep = build_duality_report(canonical_a2())
    mu_x, mu_w = maximizing_orbit_measures(rep)
    assert [str(a) for a in mu_x.atoms] == ["(01)", "(10)"]
    assert mu_x.weight == F(1, 2)
    plan = solve_transport(rep)
    assert plan.atoms_x == mu_x.atoms and plan.atoms_w == mu_w.atoms
    assert plan.cost == F(-1, 2)
    assert plan.permutation == (1, 0)
    assert not plan.lp_only
    assert dual_value(plan, rep) == plan.cost
    assert slackness_check(plan, rep).ok
    assert graph_property_check(plan)


def test_a2_identity_plan_breaks_slackness():
    rep = build_duality_report(canonical_a2())
    plan = solve_transport(rep)
    bad = type(plan)(plan.atoms_x, plan.atoms_w,
                     ((F(1, 2), F(0)), (F(0), F(1, 2))),
                     F(0), (0, 1))
    chk = slackness_check(bad, rep)
    assert not chk
    # the misplaced mass sits where the pairing defect is exactly 1
    assert chk.violations == (
        (0, 0, F(1), "slackness"),
        (1, 1, F(1), "slackness"),
    )


def test_a2_plan_csv():
    rep = build_duality_report(canonical_a2())
    plan = solve_transport(rep)
    lines = plan_csv(plan).splitlines()
    assert lines[0] == "x\\w,(01),(10)"
    assert lines[1] == "(01),0,1/2"
    assert lines[2] == "(10),1/2,0"


def test_depth_one_single_atom():
    rep = build_duality_report(LocallyConstantPotential(2, 1, (F(0), F(-1))))
    plan = solve_transport(rep)
    assert len(plan.atoms_x) == 1
    assert plan.permutation == (0,)
    assert dual_value(plan, rep) == plan.cost


# -- LP oracle against brute force ---------------------------------------------

def test_simplex_matches_permutation_brute_force():
    rng = random.Random(401)
    for _ in range(120):
        p = rng.randrange(1, 7)
        cost = tuple(tuple(F(rng.randrange(-12, 13), rng.choice((1, 2, 3)))
                           for _ in range(p)) for _ in range(p))
        total, matrix = lp_transport(cost, F(1, p))
        assert total == brute_best_permutation_cost(cost)
        assert all(sum(row) == F(1, p) for row in matrix)
        cols = [sum(matrix[i][j] for i in range(p)) for j in range(p)]
        assert all(c == F(1, p) for c in cols)


def test_simplex_survives_massive_ties():
    # all-{0,1} tables are maximally degenerate for the pivoting rule
    rng = random.Random(403)
    for _ in range(60):
        p = rng.randrange(2, 7)
        cost = tuple(tuple(F(rng.randrange(0, 2)) for _ in range(p))
                     for _ in range(p))
        total, _ = lp_transport(cost, F(1, p))
        assert total == brute_best_permutation_cost(cost)


# -- invariants on natural data -------------------------------------------------

def test_transport_sweep():
    rng = random.Random(409)
    done = 0
    while done < 25:
        try:
            rep = _report(rng, rng.randrange(2, 5))
            mu_x, mu_w = maximizing_orbit_measures(rep)
        except PreconditionError:
            continue
        plan = solve_transport(rep)
        # strong duality in exact arithmetic
        assert plan.cost == dual_value(plan, rep)
        assert slackness_check(plan, rep).ok
        assert graph_property_check(plan)
        # support sits inside the zero set of the pairing defect
        depth = rep.potential.depth
        xn = mu_x.node_indices(depth)
        wn = mu_w.node_indices(depth)
        for i, j in plan.support():
            assert rep.b_table[xn[i]][wn[j]] == 0
        # any feasible permutation is at least as costly
        p = len(mu_x.atoms)
        perm = list(range(p))
        rng.shuffle(perm)
        other = sum(-rep.kernel.value(wn[perm[i]], xn[i]) * F(1, p)
                    for i in range(p))
        assert other >= plan.cost
        done += 1


def test_pairing_agrees_with_optimal_map():
    # on two letters the plan's support must match the x -> w buckets
    rng = random.Random(419)
    done = 0
    while done < 12:
        try:
            rep = _report(rng, rng.randrange(2, 4))
            mu_x, mu_w = maximizing_orbit_measures(rep)
        except PreconditionError:
            continue
        plan = solve_transport(rep)
        pmap = optimal_pair_map(rep)
        depth = rep.potential.depth
        xn = mu_x.node_indices(depth)
        wn = mu_w.node_indices(depth)
        for i, j in plan.support():
            assert wn[j] in {ow.w_node for ow in pmap.per_x[xn[i]]}
        done += 1


def test_long_orbit_matching_agrees_with_lp_oracle():
    # the ten cyclic 4-windows of this word are pairwise distinct, so at
    # depth 5 its orbit is a simple cycle on ten nodes
    word = (0, 0, 0, 0, 1, 0, 0, 1, 1, 1)
    nodes = {tuple(word[(i + t) % 10] for t in range(4)) for i in range(10)}
    assert len(nodes) == 10
    edges = {tuple(word[(i + t) % 10] for t in range(5)) for i in range(10)}
    values = tuple(F(0) if w in edges else F(-1)
                   for w in itertools.product((0, 1), repeat=5))
    rep = build_duality_report(LocallyConstantPotential(2, 5, values))
    plan = solve_transport(rep)
    assert len(plan.atoms_x) == 10
    assert not plan.lp_only
    lp_total, _ = lp_transport(_atom_costs(rep, plan), F(1, 10))
    assert plan.cost == lp_total
    assert graph_property_check(plan)
    assert plan.cost == dual_value(plan, rep)   # certifies optimality
    assert slackness_check(plan, rep).ok


# -- the matching against its oracles ---------------------------------------------

def test_matching_is_lexicographically_first():
    # random bipartite graphs, dense enough to hold many perfect matchings
    rng = random.Random(433)
    for _ in range(300):
        p = rng.randrange(1, 7)
        zeros = [[j for j in range(p) if rng.random() < 0.6] for _ in range(p)]
        perms = [q for q in itertools.permutations(range(p))
                 if all(q[i] in zeros[i] for i in range(p))]
        if perms:
            assert _first_perfect_matching(zeros, range(p), range(p)) == perms[0]
            continue
        with pytest.raises(InvariantViolation) as exc:
            _first_perfect_matching(zeros, range(p), range(p))
        # "... x-atoms 0, 2 reach only w-atoms 1": a Hall witness
        xs, ws = str(exc.value).split(": x-atoms ")[1].split(" reach only w-atoms ")
        rows = [int(t) for t in xs.split(", ")]
        cols = [] if ws == "(none)" else [int(t) for t in ws.split(", ")]
        assert len(cols) < len(rows)
        assert {j for i in rows for j in zeros[i]} <= set(cols)


def test_tie_heavy_inputs_match_brute_force():
    rng = random.Random(421)
    done = 0
    while done < 30:
        k = rng.randrange(3, 7)
        pot = LocallyConstantPotential(2, k, tuple(
            F(rng.choice((-1, 0))) for _ in range(2 ** k)))
        try:
            rep = build_duality_report(pot)
        except PreconditionError:
            continue
        plan = solve_transport(rep)
        if not 2 <= len(plan.atoms_x) <= 8:
            continue
        assert plan.permutation == brute_first_optimal_permutation(
            _atom_costs(rep, plan))
        done += 1


def test_cost_matches_lp_oracle_up_to_twelve_atoms():
    rng = random.Random(431)
    for p in range(2, 13):
        found = 0
        while found < 2:
            k = rng.randrange(5, 7)
            word = tuple(rng.randrange(2) for _ in range(p))
            windows = {tuple(word[(i + t) % p] for t in range(k - 1))
                       for i in range(p)}
            if len(windows) != p:
                continue
            rep = build_duality_report(_planted(word, k, rng))
            plan = solve_transport(rep)
            assert len(plan.atoms_x) == p
            lp_total, _ = lp_transport(_atom_costs(rep, plan), F(1, p))
            assert plan.cost == lp_total == dual_value(plan, rep)
            found += 1


def _de_bruijn(order):
    """Binary de Bruijn sequence of the given order (Lyndon words)."""
    a, seq = [0] * (order + 1), []

    def gen(t, p):
        if t > order:
            if order % p == 0:
                seq.extend(a[1:p + 1])
        else:
            a[t] = a[t - p]
            gen(t + 1, p)
            if a[t - p] == 0:
                a[t] = 1
                gen(t + 1, t)

    gen(1, 1)
    return tuple(seq)


def test_hamiltonian_orbit_256_atoms_under_a_second():
    word = _de_bruijn(8)
    assert len(word) == 256
    rep = build_duality_report(_planted(word, 9, random.Random(7)))
    t0 = time.perf_counter()
    plan = solve_transport(rep)
    certified = (plan.cost == dual_value(plan, rep)
                 and slackness_check(plan, rep).ok
                 and graph_property_check(plan))
    elapsed = time.perf_counter() - t0
    assert len(plan.atoms_x) == 256 and certified
    assert elapsed < 1.0, elapsed


def test_hall_violation_names_witness():
    rep = build_duality_report(canonical_a2())
    plan = solve_transport(rep)
    w_node = OrbitMeasure(plan.atoms_w).node_indices(2)[1]
    # both x-atoms' zeros now reach the second w-atom only
    bad = dataclasses.replace(
        rep, optimal_w_per_x=(frozenset({w_node}), frozenset({w_node})))
    with pytest.raises(InvariantViolation) as exc:
        solve_transport(bad)
    assert str(exc.value) == ("no perfect matching on the zeros of b: "
                              "x-atoms (01), (10) reach only w-atoms "
                              f"{plan.atoms_w[1]}")
    # an x-atom without any zero among the w-atoms is its own witness
    bad = dataclasses.replace(
        rep, optimal_w_per_x=(frozenset(), rep.optimal_w_per_x[1]))
    with pytest.raises(InvariantViolation,
                       match=r"x-atoms \(01\) reach only w-atoms \(none\)$"):
        solve_transport(bad)


def test_deviation_on_a_w_atom_breaks_the_certificate():
    rep = build_duality_report(canonical_a2())
    plan = solve_transport(rep)
    w_node = OrbitMeasure(plan.atoms_w).node_indices(2)[0]
    j_star = list(rep.j_star)
    j_star[w_node] = F(1, 3)
    chk = slackness_check(plan, dataclasses.replace(rep, j_star=tuple(j_star)))
    assert not chk
    assert chk.violations == ((None, 0, F(1, 3), "deviation"),)


def test_non_unique_refused():
    # two maximizing fixed points tie, so no single orbit pair exists
    with pytest.raises(PreconditionError):
        rep = build_duality_report(
            LocallyConstantPotential(2, 2, (F(0), F(-1), F(-1), F(0))))
        maximizing_orbit_measures(rep)


def test_orbit_measure_parses_back_to_itself():
    atoms = tuple(EventuallyPeriodicPoint.parse(s, 2)
                  for s in ("(001)", "(010)", "(100)"))
    mu = OrbitMeasure(atoms)
    assert mu.weight == F(1, 3)
    # depth-2 atoms sit at the node given by their first symbol
    assert mu.node_indices(2) == (0, 0, 1)
