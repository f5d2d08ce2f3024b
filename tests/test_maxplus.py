import random
from fractions import Fraction

import pytest

from oracles import (brute_argmax_cycles, brute_critical_edge_words,
                     brute_critical_node_words, brute_max_mean, orbit_average,
                     simple_cycles_in)
from shiftopt.errors import InvariantViolation, PreconditionError
from shiftopt.graph import build_de_bruijn
from shiftopt.maxplus import (CriticalStructure, Subaction, analyze, aubry_set,
                              calibrated_subaction, critical_orbits, cycle_word,
                              deviation_at_point, deviation_witness,
                              error_function, is_coboundary, mane_potential,
                              max_mean_cycle, min_cost_to_critical,
                              peierls_barrier)
from shiftopt.potentials import (LocallyConstantPotential, canonical_a2,
                                 coboundary, constant, from_dict)
from shiftopt.words import EventuallyPeriodicPoint

F = Fraction


def _graph(pot):
    return build_de_bruijn(pot.alphabet_size, pot.depth, pot)


def _random_potential(rng, d, k):
    return LocallyConstantPotential(d, k, tuple(
        F(rng.randrange(-8, 9), rng.choice((1, 2, 3, 4)))
        for _ in range(d ** k)))


# -- the canonical example, every value pinned ---------------------------

def test_a2_critical_structure():
    g = _graph(canonical_a2())
    cs = max_mean_cycle(g)
    assert cs.mean == 0
    assert cs.critical_edges == frozenset({1, 2})        # words 01 and 10
    assert cs.critical_nodes == frozenset({0, 1})
    assert cs.unique_maximizer
    assert len(cs.orbits) == 1
    assert cycle_word(g, cs.orbits[0]) == (0, 1)


def test_a2_subaction_and_error():
    g = _graph(canonical_a2())
    cs = max_mean_cycle(g)
    v = calibrated_subaction(g, cs)
    r = error_function(g, cs, v)
    assert v.values == (F(0), F(0))
    assert r.values == (F(1), F(0), F(0), F(1))


def test_a2_analyze_bundle():
    g, cs, v, r = analyze(canonical_a2())
    assert cs.mean == 0 and v.values == (0, 0)
    assert r.values == (1, 0, 0, 1)
    assert g.n_edges == 4


# -- oracle equivalence on random tables ---------------------------------

def test_max_mean_matches_brute_force():
    rng = random.Random(101)
    for trial in range(150):
        d = rng.choice((2, 2, 3))
        k = rng.randrange(1, 5) if d == 2 else rng.randrange(1, 4)
        pot = _random_potential(rng, d, k)
        g = _graph(pot)
        cs = max_mean_cycle(g)
        table = pot.as_dict()
        assert cs.mean == brute_max_mean(d, k, table), (d, k, pot.values)
        lib_edges = frozenset(g.edge_word(e) for e in cs.critical_edges)
        assert lib_edges == brute_critical_edge_words(d, k, table)
        lib_nodes = frozenset(g.node_word(u) for u in cs.critical_nodes)
        assert lib_nodes == brute_critical_node_words(d, k, table)
        lib_orbits = {frozenset(g.edge_word(e) for e in orbit)
                      for orbit in critical_orbits(g, cs)}
        brute_orbits = {frozenset(cyc)
                        for cyc in brute_argmax_cycles(d, k, table)}
        assert lib_orbits == brute_orbits
        assert cs.unique_maximizer == (len(brute_orbits) == 1)


def test_orbit_means_are_exact():
    rng = random.Random(55)
    for _ in range(60):
        d, k = 2, rng.randrange(1, 5)
        pot = _random_potential(rng, d, k)
        g = _graph(pot)
        cs = max_mean_cycle(g)
        for orbit in critical_orbits(g, cs):
            word = cycle_word(g, orbit)
            assert orbit_average(word, pot.as_dict()) == cs.mean


# -- calibration properties ----------------------------------------------

def test_subaction_calibrated_everywhere():
    rng = random.Random(7)
    for _ in range(80):
        d = rng.choice((2, 3))
        k = rng.randrange(1, 4)
        pot = _random_potential(rng, d, k)
        g = _graph(pot)
        cs = max_mean_cycle(g)
        v = calibrated_subaction(g, cs)
        r = error_function(g, cs, v)
        assert all(x >= 0 for x in r.values)
        for node in range(g.n_nodes):
            assert min(r.values[e] for e in g.in_edges(node)) == 0
        # R vanishes on every critical edge
        assert all(r.values[e] == 0 for e in cs.critical_edges)
        assert v.values[v.anchor] == 0


def test_error_function_names_the_failing_edge_or_node():
    g, cs, v, _ = analyze(canonical_a2())
    # V raised at node 1: R(01) = 1 - 0 - 0 + 0 stays >= 0, R(10) = -1
    with pytest.raises(InvariantViolation) as exc:
        error_function(g, cs, Subaction((F(0), F(1))))
    assert str(exc.value) == "calibration violated at edge (1, 0): R = -1"
    # a mean set too high leaves every R > 0: no tight edge enters node 0
    loose = CriticalStructure(F(1, 3), cs.critical_edges, cs.critical_nodes,
                              cs.classes, cs.orbits, True, cs.cycle)
    with pytest.raises(InvariantViolation) as exc:
        error_function(g, loose, v)
    assert str(exc.value) == "node (0,) has no tight incoming edge"


def test_adding_constants_shifts_mean_not_r():
    rng = random.Random(13)
    pot = _random_potential(rng, 2, 3)
    c = F(5, 3)
    g1, cs1, v1, r1 = analyze(pot)
    g2, cs2, v2, r2 = analyze(pot.add_constant(c))
    assert cs2.mean == cs1.mean + c
    assert r2.values == r1.values
    assert v2.values == v1.values


def test_coboundaries_have_zero_mean_and_zero_cycles():
    rng = random.Random(29)
    for _ in range(40):
        k = rng.randrange(1, 4)
        u = LocallyConstantPotential(2, k, tuple(
            F(rng.randrange(-6, 7), rng.choice((1, 2))) for _ in range(2 ** k)))
        z = coboundary(u)
        rep = is_coboundary(z)
        assert rep.is_coboundary
        assert max_mean_cycle(_graph(z)).mean == 0
        # perturbing one cylinder breaks it, with a witness cycle
        vals = list(z.values)
        vals[0] += F(1, 7)
        rep2 = is_coboundary(LocallyConstantPotential(2, z.depth, tuple(vals)))
        assert not rep2.is_coboundary
        assert rep2.witness_cycle is not None and rep2.witness_sum != 0


def test_coboundary_transfer_reconstructs():
    u = LocallyConstantPotential(2, 2, (F(1), F(-2), F(0), F(3)))
    z = coboundary(u)
    rep = is_coboundary(z)
    assert rep.transfer is not None
    # the recovered transfer differs from u by a constant on each
    # communicating class; verify it regenerates z exactly
    g = _graph(z)
    t = rep.transfer
    for e in range(g.n_edges):
        assert z.value(g.edge_word(e)) == t[g.target(e)] - t[g.source(e)]


# -- Mañé potential, Peierls barrier, Aubry set --------------------------

def test_mane_vs_peierls_strict_example():
    # loop at 0 is the maximizer; the loop at 1 gives a better short
    # excursion from 1 to itself than any long one, so h < S there
    pot = from_dict(2, 2, {(0, 0): F(0), (0, 1): F(-1),
                           (1, 0): F(-1), (1, 1): F(-1, 2)})
    g = _graph(pot)
    cs = max_mean_cycle(g)
    assert cs.mean == 0
    s = mane_potential(g, cs)
    h = peierls_barrier(g, cs)
    assert s.value(1, 1) == F(-1, 2)
    assert h.value(1, 1) == F(-2)
    assert h.value(1, 1) < s.value(1, 1)
    # on and into the Aubry set the two agree
    assert s.value(0, 0) == h.value(0, 0) == 0
    assert s.value(1, 0) == h.value(1, 0) == -1


def test_peierls_never_exceeds_mane():
    rng = random.Random(37)
    for _ in range(40):
        d, k = 2, rng.randrange(1, 4)
        pot = _random_potential(rng, d, k)
        g = _graph(pot)
        cs = max_mean_cycle(g)
        s = mane_potential(g, cs)
        h = peierls_barrier(g, cs)
        for u in range(g.n_nodes):
            for w in range(g.n_nodes):
                sv, hv = s.value(u, w), h.value(u, w)
                if sv is None:
                    assert hv is None
                else:
                    assert hv is None or hv <= sv
            assert s.value(u, u) is not None


def test_aubry_equals_critical_nodes():
    rng = random.Random(41)
    for _ in range(40):
        pot = _random_potential(rng, 2, rng.randrange(1, 4))
        g = _graph(pot)
        cs = max_mean_cycle(g)
        assert aubry_set(g, cs) == cs.critical_nodes


# -- deviation bookkeeping ------------------------------------------------

def test_deviation_along_a2_orbits():
    g, cs, v, r = analyze(canonical_a2())
    # the point 0(01): one bad window 00 then optimal forever
    p = EventuallyPeriodicPoint.parse("0(01)", 2)
    assert deviation_at_point(g, r, p) == 1
    # points on the maximizing orbit deviate by zero
    assert deviation_at_point(g, r, EventuallyPeriodicPoint.parse("(01)", 2)) == 0
    # (0) loops on a non-optimal edge forever: infinite deviation
    assert deviation_at_point(g, r, EventuallyPeriodicPoint.parse("(0)", 2)) is None


def test_deviation_witness_attains_min_cost():
    rng = random.Random(43)
    for _ in range(30):
        pot = _random_potential(rng, 2, rng.randrange(2, 4))
        g = _graph(pot)
        cs = max_mean_cycle(g)
        v = calibrated_subaction(g, cs)
        r = error_function(g, cs, v)
        j = min_cost_to_critical(g, r, cs)
        for node in range(g.n_nodes):
            p = deviation_witness(g, r, cs, j, node)
            assert deviation_at_point(g, r, p) == j[node]
            assert p.prefix(g.depth - 1) == g.node_word(node) or g.depth == 1


def test_min_cost_one_step_principle():
    rng = random.Random(47)
    for _ in range(30):
        pot = _random_potential(rng, 2, rng.randrange(1, 4))
        g = _graph(pot)
        cs = max_mean_cycle(g)
        v = calibrated_subaction(g, cs)
        r = error_function(g, cs, v)
        j = min_cost_to_critical(g, r, cs)
        for node in range(g.n_nodes):
            if node in cs.critical_nodes:
                assert j[node] == 0
            assert j[node] == min(r.values[e] + j[g.target(e)]
                                  for e in g.out_edges(node))


def test_orbit_limit_guard():
    # the zero potential on 3 letters has many maximizing cycles
    g = build_de_bruijn(3, 2, constant(3, 2))
    cs = max_mean_cycle(g)
    assert len(critical_orbits(g, cs)) == 8
    with pytest.raises(PreconditionError):
        critical_orbits(g, cs, limit=2)


# -- orbits on demand -------------------------------------------------------

def test_critical_orbits_match_recursive_enumeration():
    rng = random.Random(61)
    for _ in range(120):
        d = rng.choice((2, 3))
        k = rng.randrange(1, 6) if d == 2 else rng.randrange(1, 4)
        # few distinct values, so that many cycles tie for the maximum
        pot = LocallyConstantPotential(d, k, tuple(
            F(rng.randrange(-1, 2)) for _ in range(d ** k)))
        g = _graph(pot)
        cs = max_mean_cycle(g)
        orbits = critical_orbits(g, cs)
        assert orbits == tuple(simple_cycles_in(cs.critical_edges, g, 10000))
        assert cs.orbits == (orbits if cs.unique_maximizer else ())
        assert cs.unique_maximizer == (len(orbits) == 1)


def test_tie_heavy_input_needs_no_enumeration():
    # every one of the (astronomically many) cycles of the zero
    # potential maximizes; the critical structure is still immediate
    g = build_de_bruijn(2, 10, constant(2, 10))
    cs = max_mean_cycle(g)
    assert cs.mean == 0 and not cs.unique_maximizer and cs.orbits == ()
    assert len(cs.critical_edges) == g.n_edges and len(cs.classes) == 1
    assert sum(g.weights[e] for e in cs.cycle) == 0


def test_karp_cycle_attains_the_mean():
    rng = random.Random(67)
    for _ in range(60):
        d = rng.choice((2, 3))
        pot = _random_potential(rng, d, rng.randrange(1, 5 if d == 2 else 4))
        g = _graph(pot)
        cs = max_mean_cycle(g)
        nodes = [g.source(e) for e in cs.cycle]
        assert len(set(nodes)) == len(nodes)
        assert all(g.target(a) == g.source(b)
                   for a, b in zip(cs.cycle, cs.cycle[1:] + cs.cycle[:1]))
        assert sum(g.weights[e] for e in cs.cycle) / len(cs.cycle) == cs.mean


@pytest.mark.parametrize("size", [10 ** 15, 10 ** 30])
def test_karp_on_values_past_int64_takes_python_integers(size):
    # near 10**15 the walk tables stay int64 while the cross-multiplied
    # ratios of several samples need Python integers; near 10**30 both
    # run on object arrays.  The oracle shares no arithmetic.
    rng = random.Random(71)
    for _ in range(25):
        d = rng.choice((2, 2, 3))
        k = rng.randrange(1, 5) if d == 2 else rng.randrange(1, 4)
        pot = LocallyConstantPotential(d, k, tuple(
            F(size + rng.randrange(-10 ** 6, 10 ** 6), rng.choice((1, 3, 7)))
            for _ in range(d ** k)))
        g = _graph(pot)
        cs = max_mean_cycle(g)
        table = pot.as_dict()
        assert cs.mean == brute_max_mean(d, k, table), (d, k, pot.values)
        assert (frozenset(g.edge_word(e) for e in cs.critical_edges)
                == brute_critical_edge_words(d, k, table))
        assert sum(g.weights[e] for e in cs.cycle) / len(cs.cycle) == cs.mean
