import random
from fractions import Fraction

import pytest

from shiftopt.duality import (b_table_csv, backward_invariance_check,
                              build_duality_report, default_base_point,
                              dual_potential, dual_roundtrip_check,
                              fundamental_relation_check, goodness_check,
                              involution_kernel, kernel_csv)
from shiftopt.errors import PreconditionError
from shiftopt.genericity import perturb_to_unique
from shiftopt.potentials import LocallyConstantPotential, canonical_a2, constant, lift
from shiftopt.words import EventuallyPeriodicPoint

F = Fraction


def _random_unique(rng, d, k):
    pot = LocallyConstantPotential(d, k, tuple(
        F(rng.randrange(-8, 9), rng.choice((1, 2, 4)))
        for _ in range(d ** k)))
    return perturb_to_unique(pot, F(1, 16))


# -- frozen canonical values ----------------------------------------------

def test_a2_kernel_table():
    w = involution_kernel(canonical_a2())
    # rows are w-prefixes, columns x-prefixes
    assert w.value(0, 0) == 0
    assert w.value(0, 1) == 1
    assert w.value(1, 0) == 0
    assert w.value(1, 1) == -1
    assert w.matrix() == ((F(0), F(1)), (F(0), F(-1)))


def test_a2_dual_values():
    a = canonical_a2()
    dual = dual_potential(a, involution_kernel(a))
    assert dual.values == (F(-1), F(-1), F(1), F(-1))


def test_a2_report_frozen():
    rep = build_duality_report(canonical_a2())
    assert rep.gamma == 1
    assert rep.v.values == (0, 0)
    assert rep.v_star.values == (0, -1)
    assert rep.r_star.values == (1, 0, 0, 1)
    assert rep.j_star == (0, 0)
    assert rep.b_table == ((F(1), F(0)), (F(0), F(1)))
    assert rep.optimal_w_per_x == (frozenset({1}), frozenset({0}))
    assert not rep.degenerate
    assert rep.critical.mean == rep.dual_critical.mean == 0


def test_a2_goodness():
    rep = goodness_check(canonical_a2())
    assert rep.good and rep.margin == 1
    assert len(rep.boundary_edges) == 2     # the 00 and 11 loops


def test_base_point_default_is_smallest_fixed_point():
    assert default_base_point(2) == EventuallyPeriodicPoint.parse("(0)", 2)


def test_kernel_depth_one_is_zero():
    w = involution_kernel(LocallyConstantPotential(2, 1, (F(0), F(-1))))
    assert w.matrix() == ((F(0),),)
    rep = build_duality_report(LocallyConstantPotential(2, 1, (F(0), F(-1))))
    assert rep.degenerate and rep.gamma == 0
    assert rep.b_table == ((F(0),),)


# -- identities on random samples ------------------------------------------

def test_fundamental_relation_sweep():
    rng = random.Random(211)
    done = 0
    while done < 40:
        d = rng.choice((2, 2, 3))
        k = rng.randrange(1, 5) if d == 2 else rng.randrange(1, 4)
        try:
            rep = build_duality_report(_random_unique(rng, d, k))
        except PreconditionError:
            continue
        res = fundamental_relation_check(rep.potential, rep.dual, rep.kernel,
                                         rep.v, rep.v_star, rep.r)
        assert res.ok, res.violation
        assert res.pairs_checked == rep.graph.n_nodes * rep.dual_graph.n_edges
        done += 1


def test_corrupted_kernel_is_caught():
    rep = build_duality_report(canonical_a2())
    bad = rep.kernel.perturbed(0, 1, F(1, 5))
    res = fundamental_relation_check(rep.potential, rep.dual, bad,
                                     rep.v, rep.v_star, rep.r)
    assert not res.ok
    assert res.violation.identity in ("FR", "FR1")
    assert res.violation.lhs != res.violation.rhs


def test_backward_invariance_sweep():
    rng = random.Random(223)
    done = 0
    while done < 30:
        try:
            rep = build_duality_report(_random_unique(rng, 2, rng.randrange(1, 5)))
        except PreconditionError:
            continue
        ok, witness = backward_invariance_check(rep)
        assert ok, witness
        done += 1


def test_double_dual_is_coboundary():
    rng = random.Random(227)
    done = 0
    while done < 25:
        d = rng.choice((2, 3))
        k = rng.randrange(1, 4)
        pot = _random_unique(rng, d, k)
        assert dual_roundtrip_check(pot)
        done += 1


def test_mean_self_dual_and_gamma_constant():
    # gamma constancy and m(A) = m(A*) are enforced inside the report;
    # building it on a spread of samples exercises both
    rng = random.Random(229)
    done = 0
    while done < 30:
        d = rng.choice((2, 3))
        k = rng.randrange(1, 4)
        try:
            rep = build_duality_report(_random_unique(rng, d, k))
        except PreconditionError:
            continue
        assert rep.critical.mean == rep.dual_critical.mean
        for row in rep.b_table:
            assert min(row) == 0 and all(v >= 0 for v in row)
        done += 1


def test_b_table_csv_prints_each_entry_as_its_fraction():
    # the CSV is formatted from the integer table; it must read exactly
    # as str() of the Fraction view, entry by entry
    rng = random.Random(233)
    done = 0
    while done < 20:
        d = rng.choice((2, 3))
        k = rng.randrange(1, 5) if d == 2 else rng.randrange(1, 4)
        try:
            rep = build_duality_report(_random_unique(rng, d, k))
        except PreconditionError:
            continue
        body = b_table_csv(rep).splitlines()[1:]
        assert [ln.split(",", 1)[1] for ln in body] == [
            ",".join(str(v) for v in row) for row in rep.b_table]
        assert rep.b_table == tuple(tuple(F(int(v), rep.b_denom) for v in row)
                                    for row in rep.b_ints)
        done += 1


def test_report_refuses_non_unique():
    with pytest.raises(PreconditionError):
        build_duality_report(constant(2, 2))


def test_kernel_base_point_changes_tables_not_identities():
    a = canonical_a2()
    base = EventuallyPeriodicPoint.parse("(1)", 2)
    rep = build_duality_report(a, base)
    assert rep.base_point == base
    res = fundamental_relation_check(rep.potential, rep.dual, rep.kernel,
                                     rep.v, rep.v_star, rep.r)
    assert res.ok
    ok, _ = backward_invariance_check(rep)
    assert ok


def test_lifted_potential_same_gamma_structure():
    # lifting a potential one depth leaves m, gamma and goodness alone
    a = canonical_a2()
    up = lift(a, 3)
    ra, ru = build_duality_report(a), build_duality_report(up)
    assert ra.critical.mean == ru.critical.mean
    assert ra.gamma == ru.gamma
    assert goodness_check(a).good == goodness_check(up).good


def test_perturbed_kernel_only_changes_one_entry():
    w = involution_kernel(canonical_a2())
    bumped = w.perturbed(1, 0, F(3, 7))
    assert bumped.value(1, 0) == w.value(1, 0) + F(3, 7)
    assert bumped.value(0, 0) == w.value(0, 0)
    assert bumped.value(1, 1) == w.value(1, 1)


def test_csv_exports_label_rows_and_columns():
    rep = build_duality_report(canonical_a2())
    kcsv = kernel_csv(rep.kernel)
    assert kcsv.splitlines()[0] == "w\\x,0,1"
    assert "0,0,1" in kcsv
    bcsv = b_table_csv(rep)
    assert bcsv.splitlines()[0] == "x\\w,0,1"
    assert bcsv.splitlines()[1] == "0,1,0"


def test_kernel_matrix_guard():
    big = constant(2, 10, F(0)).add_constant(F(0))
    w = involution_kernel(big)
    with pytest.raises(PreconditionError):
        w.matrix()
