"""The scaled-integer kernel table against the entry-by-entry oracle,
the int64 / Python-integer boundary of its arithmetic, and the exhaustive
dual self-check."""

import itertools
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from oracles import (brute_b_table, brute_fundamental_relation, brute_kernel,
                     brute_twist)
from shiftopt import cli, duality
from shiftopt.duality import (KernelTable, build_duality_report, default_base_point,
                              dual_potential, fundamental_relation_check,
                              involution_kernel)
from shiftopt.errors import InvariantViolation
from shiftopt.maxplus import max_mean_cycle
from shiftopt.potentials import (LocallyConstantPotential, canonical_a2, constant,
                                 save_potential)
from shiftopt.twist import certify_twist
from shiftopt.words import EventuallyPeriodicPoint, word_index

F = Fraction
_INT64_RULE = 1 << 60        # maxplus: int64 when (terms + 2) * (max + 1) < this


def _by_word(d, length, values):
    return dict(zip(itertools.product(range(d), repeat=length), values))


def _random_potential(rng, d, k):
    return LocallyConstantPotential(d, k, tuple(
        F(rng.randrange(-9, 10), rng.choice((1, 2, 3, 4)))
        for _ in range(d ** k)))


def _oracle_matrix(a, base_point):
    d, k = a.alphabet_size, a.depth
    table = brute_kernel(d, k, _by_word(d, k, a.values), base_point.prefix(k - 1))
    nodes = list(itertools.product(range(d), repeat=k - 1))
    return tuple(tuple(table[w, x] for x in nodes) for w in nodes)


@pytest.mark.parametrize("d", (2, 3))
@pytest.mark.parametrize("base", ("(0)", "(1)", "01(10)"))
def test_kernel_table_matches_entry_oracle(d, base):
    rng = random.Random(f"kernel:{d}:{base}")
    point = EventuallyPeriodicPoint.parse(base, d)
    for k in range(1, 7):
        a = _random_potential(rng, d, k)
        w = involution_kernel(a, point)
        assert w.table.dtype == np.int64
        assert w.table.shape == (d ** (k - 1),) * 2
        assert w.matrix() == _oracle_matrix(a, point)


def test_dual_self_check_covers_every_x_node_at_depth_9():
    # the corrupted entry sits in an x-column that neither the base
    # prefix 0^8 nor the columns the dual reads (0 and 128) reach, so a
    # check on a sample of columns passes it
    rng = random.Random("dual-check:9")
    a = LocallyConstantPotential(2, 9, tuple(F(rng.randrange(-16, 1))
                                             for _ in range(2 ** 9)))
    bad = involution_kernel(a).perturbed(5, 77, F(1, 7))
    with pytest.raises(InvariantViolation,
                       match="at edge 000001010, x-node 01001101: "):
        dual_potential(a, bad)
    assert dual_potential(a, bad, verify="none") == dual_potential(a, involution_kernel(a))


@pytest.mark.parametrize("dtype", (np.int64, object))
def test_twist_certificate_matches_quadruple_oracle(dtype):
    # -12·a·b has cross-differences -12·(a'-a)·(b'-b) <= -12, which noise
    # below 3 per entry cannot close: a strict twist table, then broken
    # by one raised entry at a time
    rng = random.Random("twist")
    for k in (2, 3, 4):
        n = 2 ** (k - 1)
        clean = [[-12 * a * b + rng.randrange(3) for b in range(n)] for a in range(n)]
        for hit in [None] + [(rng.randrange(n), rng.randrange(n)) for _ in range(6)]:
            ints = [row[:] for row in clean]
            if hit is not None:
                ints[hit[0]][hit[1]] += 40
            w = KernelTable(constant(2, k), default_base_point(2),
                            np.array(ints, dtype=dtype), 3)
            holds, checked, witness = brute_twist(
                [[F(v, 3) for v in row] for row in ints])
            cert = certify_twist(w)
            assert (cert.holds, cert.checked_pairs) == (holds, checked)
            if witness is None:
                assert cert.witness is None
            else:
                (aw, bw), (aw2, bw2), lhs, rhs = cert.witness
                assert (word_index(aw, 2), word_index(bw, 2), word_index(aw2, 2),
                        word_index(bw2, 2), lhs, rhs) == witness


# -- the int64 / Python-integer boundary -----------------------------------------

def _coprime(n, q):
    while gcd(n, q) != 1:
        n += 1
    return n


def _large_potential(seed, top_scaled):
    """A depth-3 binary potential over denominators 3, 5 and 7 (common
    denominator 105) whose largest value scaled by 105 is just below
    top_scaled; the others stay below a fifth of it."""
    rng = random.Random(seed)
    values = [F(_coprime(top_scaled // 35 - 1, 3), 3)]
    for i in range(7):
        q = (5, 7, 3)[i % 3]
        n = rng.randrange(-(top_scaled // 525), top_scaled // 525)
        values.append(F(_coprime(n, q), q))
    rng.shuffle(values)
    return LocallyConstantPotential(2, 3, tuple(values))


def _scaled_max(a):
    return max(abs(v.numerator) * (105 // v.denominator) for v in a.values)


def _check_against_oracles(rep):
    a, d, k = rep.potential, rep.potential.alphabet_size, rep.potential.depth
    nodes = list(itertools.product(range(d), repeat=k - 1))
    kernel = brute_kernel(d, k, _by_word(d, k, a.values), rep.base_point.prefix(k - 1))
    assert rep.kernel.matrix() == tuple(tuple(kernel[w, x] for x in nodes) for w in nodes)

    v = _by_word(d, k - 1, rep.v.values)
    v_star = _by_word(d, k - 1, rep.v_star.values)
    j_star = _by_word(d, k - 1, rep.j_star)
    r = _by_word(d, k, rep.r.values)
    r_star = _by_word(d, k, rep.r_star.values)
    gamma, b_table = brute_b_table(d, k, kernel, v, v_star, j_star)
    assert rep.gamma == gamma
    assert rep.b_table == tuple(map(tuple, b_table))

    def same_fr(res, oracle):
        identity, x, e, lhs, rhs, checked = oracle
        assert res.pairs_checked == checked
        assert res.ok == (identity is None)
        if identity is not None:
            vio = res.violation
            assert (vio.identity, vio.x_word, vio.w_edge_word, vio.lhs, vio.rhs) \
                == (identity, x, e, lhs, rhs)

    same_fr(fundamental_relation_check(a, rep.dual, rep.kernel, rep.v, rep.v_star, rep.r),
            brute_fundamental_relation(d, k, kernel, v, v_star, r, r_star, j_star))
    # a corrupted copy over a new, coprime denominator
    bad = rep.kernel.perturbed(0, len(nodes) - 1, F(1, 11))
    assert bad.table.dtype == object
    kernel[nodes[0], nodes[-1]] += F(1, 11)
    assert bad.matrix() == tuple(tuple(kernel[w, x] for x in nodes) for w in nodes)
    same_fr(fundamental_relation_check(a, rep.dual, bad, rep.v, rep.v_star, rep.r),
            brute_fundamental_relation(d, k, kernel, v, v_star, r, r_star, j_star))


def test_kernel_just_below_the_int64_bound_stays_int64():
    # depth 3: a kernel entry sums 2(k-1) = 4 potential values
    a = _large_potential("int64-edge", _INT64_RULE // 6 - 1)
    assert 6 * (_scaled_max(a) + 1) < _INT64_RULE <= 6 * (2 * _scaled_max(a) + 1)
    rep = build_duality_report(a)
    assert rep.kernel.table.dtype == np.int64
    assert rep.kernel.denom == 105
    doubled = LocallyConstantPotential(2, 3, tuple(
        2 * v if abs(v.numerator) * (105 // v.denominator) == _scaled_max(a) else v
        for v in a.values))
    assert involution_kernel(doubled).table.dtype == object
    _check_against_oracles(rep)


def test_kernel_past_2_to_62_takes_python_integers():
    a = _large_potential("object-path", 1 << 66)
    rep = build_duality_report(a)
    assert rep.kernel.table.dtype == object
    assert int(np.abs(rep.kernel.table).max()) > 1 << 62
    assert max(abs(b.numerator) for row in rep.b_table for b in row) > 1 << 62
    _check_against_oracles(rep)


# -- the analyze pipeline ---------------------------------------------------------

def test_analyze_runs_max_mean_cycle_once_per_side(tmp_path, monkeypatch, capsys):
    report = build_duality_report(canonical_a2())
    calls = []

    def counting(g):
        calls.append(g.potential)
        return max_mean_cycle(g)

    monkeypatch.setattr(cli, "max_mean_cycle", counting)
    monkeypatch.setattr(duality, "max_mean_cycle", counting)
    path = tmp_path / "a2.pot"
    save_potential(canonical_a2(), path)
    assert cli.main(["analyze", str(path)]) == 0
    capsys.readouterr()
    assert calls == [report.potential, report.dual]
