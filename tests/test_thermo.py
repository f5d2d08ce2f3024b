import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from oracles import allocating_power_iteration, logsumexp

from shiftopt.duality import build_duality_report, involution_kernel
from shiftopt.errors import InvalidInputError, PreconditionError
from shiftopt.genericity import perturb_to_unique
from shiftopt.potentials import LocallyConstantPotential, canonical_a2, constant, lift
from shiftopt.thermo import (_perron_step, _power_iteration, beta_scan,
                             build_ruelle_matrix, gibbs_cylinder_log_mass,
                             kernel_normalization, ldp_rate_check, leading_eigs,
                             verify_kernel_identity)

F = Fraction


def _eig(pot, beta):
    return leading_eigs(build_ruelle_matrix(pot, beta))


# -- closed forms on the canonical example --------------------------------

def test_a2_eigenvalue_closed_form_both_sides():
    a = canonical_a2()
    a_star = build_duality_report(a).dual
    for beta in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0):
        want = math.log1p(math.exp(-beta))
        for pot in (a, a_star):
            got = _eig(pot, beta).log_lambda
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_a2_eigenvectors():
    a = canonical_a2()
    eig = _eig(a, 2.0)
    # right eigenvector is constant, stationary nu is uniform
    assert abs(eig.phi[0] - eig.phi[1]) < 1e-12
    assert abs(eig.nu[0] - 0.5) < 1e-12 and abs(eig.nu[1] - 0.5) < 1e-12
    assert abs(sum(eig.mu) - 1.0) < 1e-12
    dual = build_duality_report(a).dual
    deig = _eig(dual, 3.0)
    # dual phi decays like e^{-beta} on the second node
    assert abs(deig.phi[1] / deig.phi[0] - math.exp(-3.0)) < 1e-10


def test_pressure_dominates_mean():
    # (1/beta) log lambda >= m always, and the gap shrinks like e^{-beta}
    a = canonical_a2()
    for beta in (1.0, 4.0, 16.0):
        gap = _eig(a, beta).log_lambda / beta - 0.0
        assert 0 <= gap < math.exp(-beta) + 1e-12


def test_gibbs_masses_sum_to_one_by_depth():
    rng = random.Random(61)
    for _ in range(10):
        k = rng.randrange(1, 4)
        pot = LocallyConstantPotential(2, k, tuple(
            F(rng.randrange(-4, 5), rng.choice((1, 2))) for _ in range(2 ** k)))
        m = build_ruelle_matrix(pot, 1.5)
        eig = leading_eigs(m)
        for depth in (1, 2, k, k + 1):
            total = sum(math.exp(gibbs_cylinder_log_mass(m, eig, w))
                        for w in _all_words(2, depth))
            assert abs(total - 1.0) < 1e-9, (pot.values, depth)


def _all_words(d, n):
    out = [()]
    for _ in range(n):
        out = [w + (a,) for w in out for a in range(d)]
    return out


def test_gibbs_shift_invariance():
    # mass of a cylinder equals the summed masses of its preimages
    pot = canonical_a2()
    m = build_ruelle_matrix(pot, 2.0)
    eig = leading_eigs(m)
    for w in _all_words(2, 2):
        direct = math.exp(gibbs_cylinder_log_mass(m, eig, w))
        pulled = sum(math.exp(gibbs_cylinder_log_mass(m, eig, (a,) + w))
                     for a in range(2))
        assert abs(direct - pulled) < 1e-12


def test_beta_scan_monotone_and_anchored():
    rep = beta_scan(canonical_a2(), [1.0, 2.0, 4.0, 8.0, 16.0])
    gaps = [r.pressure_gap for r in rep.rows]
    assert all(g >= -1e-15 for g in gaps)
    assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))
    subs = [r.subaction_gap for r in rep.rows]
    assert subs[-1] <= subs[0] + 1e-12
    # A2's subaction estimate is exact at every beta (phi is constant)
    assert subs[-1] < 1e-10
    tvs = [r.tv_distance for r in rep.rows]
    assert all(t is not None for t in tvs)
    assert tvs[-1] < 1e-6
    csv = rep.csv()
    assert csv.splitlines()[0] == "beta,pressure_over_beta,subaction_gap,tv_distance"
    assert len(csv.splitlines()) == 6


def test_beta_scan_without_unique_maximizer():
    rep = beta_scan(constant(2, 2), [1.0, 2.0])
    assert rep.orbit_masses is None
    assert all(r.tv_distance is None for r in rep.rows)
    assert "tv_distance" not in rep.csv().splitlines()[0]


def test_beta_scan_requires_increasing():
    with pytest.raises(InvalidInputError):
        beta_scan(canonical_a2(), [2.0, 1.0])


# -- kernel identities ------------------------------------------------------

def test_a2_normalization_constant_is_zero():
    a = canonical_a2()
    w = involution_kernel(a)
    for beta in (1.0, 2.0, 5.0):
        c = kernel_normalization(a, w, beta)
        assert abs(c) < 1e-9


def test_kernel_identity_residual_small():
    rng = random.Random(67)
    done = 0
    while done < 12:
        k = rng.randrange(1, 4)
        pot = perturb_to_unique(LocallyConstantPotential(2, k, tuple(
            F(rng.randrange(-5, 6), rng.choice((1, 2))) for _ in range(2 ** k))),
            F(1, 16))
        try:
            rep = build_duality_report(pot)
        except PreconditionError:
            continue
        ki = verify_kernel_identity(pot, rep.kernel, 1.0)
        assert ki.ok, (pot.values, ki.residual)
        done += 1


def test_kernel_identity_detects_corruption():
    a = canonical_a2()
    rep = build_duality_report(a)
    bad = rep.kernel.perturbed(0, 1, F(1, 4))
    ki = verify_kernel_identity(a, bad, 1.0)
    assert not ki.ok and ki.residual > 1e-3


def test_lifted_potential_same_spectrum():
    a = canonical_a2()
    up = lift(a, 4)
    for beta in (1.0, 3.0):
        la = _eig(a, beta).log_lambda
        lu = _eig(up, beta).log_lambda
        assert abs(la - lu) < 1e-11


# -- large deviations --------------------------------------------------------

def test_a2_ldp_rates():
    a = canonical_a2()
    betas = [4.0, 8.0, 16.0, 32.0]
    # cylinder 0: cheapest entry into the orbit costs nothing
    rep0 = ldp_rate_check(a, (0,), betas)
    assert rep0.exact_inf == 0
    # cylinder 00: one off-orbit window, deviation 1
    rep00 = ldp_rate_check(a, (0, 0), betas)
    assert rep00.exact_inf == 1
    for rep in (rep0, rep00):
        for row in rep.rows:
            assert row.gap * row.beta < rep.bound_constant


def test_ldp_gap_bound_every_cylinder():
    rng = random.Random(71)
    done = 0
    while done < 6:
        k = rng.randrange(2, 4)
        pot = perturb_to_unique(LocallyConstantPotential(2, k, tuple(
            F(rng.randrange(-4, 5), rng.choice((1, 2))) for _ in range(2 ** k))),
            F(1, 8))
        try:
            reps = [ldp_rate_check(pot, w, [8.0, 32.0])
                    for w in _all_words(2, k)]
        except PreconditionError:
            continue
        for rep in reps:
            for row in rep.rows:
                assert row.gap * row.beta < rep.bound_constant
        done += 1


def test_ldp_needs_unique_maximizer():
    with pytest.raises(PreconditionError):
        ldp_rate_check(constant(2, 2), (0, 0), [2.0])


def test_ruelle_matrix_rejects_bad_beta():
    with pytest.raises(InvalidInputError):
        build_ruelle_matrix(canonical_a2(), 0.0)
    with pytest.raises(InvalidInputError):
        build_ruelle_matrix(canonical_a2(), float("inf"))


# -- Perron steps reuse their buffers -------------------------------------------

def test_power_iteration_bit_identical_to_allocating_loop():
    rng = random.Random(211)
    pots = [canonical_a2(), build_duality_report(canonical_a2()).dual]
    for k in (3, 5, 7):
        pots.append(LocallyConstantPotential(2, k, tuple(
            F(rng.randrange(-8, 9), rng.choice((1, 2, 4))) for _ in range(2 ** k))))
    for pot in pots:
        for beta in (1.0, 8.0, 64.0):
            m = build_ruelle_matrix(pot, beta)
            # leading_eigs solves on the matrix and on its transpose
            for logm in (m.log_entries, m.log_entries.T):
                lam, vec, its = _power_iteration(logm, m.log_shift)
                lam0, vec0, its0 = allocating_power_iteration(logm, m.log_shift)
                assert (lam, its) == (lam0, its0)
                assert vec.tobytes() == vec0.tobytes()


def test_perron_step_allocates_no_square_temporaries():
    n = 512
    rng = np.random.default_rng(5)
    logm = rng.normal(size=(n, n))
    logm[rng.random((n, n)) < 0.5] = -np.inf
    # numpy's broadcasting ufuncs hold one fixed-size iteration buffer
    # (getbufsize() elements, whatever n is); beyond it a step may only
    # allocate row-sized masks
    bound = 8 * np.getbufsize() + 64 * n
    v, out = np.zeros(n), np.empty(n)
    buf, hi = np.empty_like(logm), np.empty(n)

    def peak(step) -> int:
        tracemalloc.start()
        try:
            for _ in range(20):
                step()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda: _perron_step(logm, v, out, buf, hi)) <= bound
    # the allocating step it replaced holds n² floats at once
    assert peak(lambda: logsumexp(logm + v[None, :], axis=1)) >= 8 * n * n
