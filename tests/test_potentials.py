import random
from fractions import Fraction

import pytest

from shiftopt.errors import InvalidInputError, PotentialParseError
from shiftopt.graph import build_de_bruijn
from shiftopt.maxplus import cycle_word, max_mean_cycle
from shiftopt.potentials import (HolderFamilySpec, LocallyConstantPotential,
                                 canonical_a2, coboundary, constant, dumps_potential,
                                 from_dict, holder_seminorm, leplaideur_member,
                                 lift, loads_potential, oscillation,
                                 project_distance_family, projection_error_bound)
from shiftopt.words import EventuallyPeriodicPoint, periodic_point, word_to_string

F = Fraction


def test_value_lookup_is_lexicographic():
    pot = from_dict(2, 2, {(0, 0): F(1), (0, 1): F(2), (1, 0): F(3), (1, 1): F(4)})
    assert pot.values == (F(1), F(2), F(3), F(4))
    assert pot.value((1, 0)) == F(3)


def test_from_dict_completeness_checked():
    with pytest.raises(InvalidInputError):
        from_dict(2, 2, {(0, 0): F(1)})


def test_value_at_point_uses_leading_window():
    pot = canonical_a2()
    p = EventuallyPeriodicPoint.parse("0(01)", 2)
    assert pot.value_at(p) == pot.value((0, 0))


def test_arithmetic_is_cylinderwise():
    a = canonical_a2()
    b = constant(2, 2, F(3))
    assert (a + b).values == tuple(v + 3 for v in a.values)
    assert (a - b).values == tuple(v - 3 for v in a.values)
    assert a.add_constant(F(1, 2)).values == tuple(v + F(1, 2) for v in a.values)
    assert a.scale(F(-2)).values == tuple(-2 * v for v in a.values)
    assert a.sup_norm() == 1


def test_lift_preserves_values_on_refined_cylinders():
    a = canonical_a2()
    up = lift(a, 4)
    assert up.depth == 4
    rng = random.Random(0)
    for _ in range(40):
        w = tuple(rng.randrange(2) for _ in range(4))
        assert up.value(w) == a.value(w[:2])
    with pytest.raises(InvalidInputError):
        lift(a, 1)


def test_coboundary_telescopes():
    u = LocallyConstantPotential(2, 1, (F(2), F(-1)))
    z = coboundary(u)
    # z(x) = u(shifted window) - u(window): sums to zero around cycles
    assert z.depth == 2
    assert z.value((0, 1)) + z.value((1, 0)) == 0
    assert z.value((0, 0)) == 0 and z.value((1, 1)) == 0


def test_oscillation_and_seminorm():
    a = canonical_a2()
    assert oscillation(a, 0) == 1
    assert oscillation(a, 1) == 1
    lam = F(1, 2)
    # max over j of osc(j)/lam^(j+1): j=1 gives 1/(1/4) = 4
    assert holder_seminorm(a, lam) == 4
    with pytest.raises(InvalidInputError):
        oscillation(a, 2)


def test_document_roundtrip_exact():
    pot = from_dict(2, 2, {(0, 0): F(-1, 3), (0, 1): F(0),
                           (1, 0): F(7, 2), (1, 1): F(-5)})
    again = loads_potential(dumps_potential(pot))
    assert again == pot


def test_document_parse_failures():
    with pytest.raises(PotentialParseError):
        loads_potential("depth: 2\nvalues:\n  00: 1\n")       # missing size
    with pytest.raises(PotentialParseError):
        loads_potential("alphabet_size: 2\ndepth: 2\nvalues:\n  00: 0.5\n")
    with pytest.raises(PotentialParseError):
        loads_potential("alphabet_size: 2\ndepth: 1\nvalues:\n  0: 1\n")
    doc = "alphabet_size: 2\ndepth: 1\nvalues:\n  0: 1\n  1: 2\n  1: 3\n"
    with pytest.raises(PotentialParseError):
        loads_potential(doc)


def test_family_block_roundtrip():
    spec = HolderFamilySpec("distance-to-set", F(1, 2), F(1),
                            (periodic_point((0, 1), 2),))
    pot = project_distance_family(spec, 3)
    again = loads_potential(dumps_potential(pot))
    assert again.family is not None
    assert again.family.kind == "distance-to-set"
    assert again.family.targets == spec.targets
    assert again.values == pot.values


def test_distance_family_vanishes_on_target_windows():
    # at a depth aligned with the target period the zero set is exactly
    # the cylinders meeting the orbit
    targets = (periodic_point((0, 1), 2), periodic_point((1, 0), 2))
    spec = HolderFamilySpec("distance-to-set", F(1, 2), F(1), targets)
    pot = project_distance_family(spec, 4)
    zero_words = {w for w in ((0, 1, 0, 1), (1, 0, 1, 0))}
    for i, v in enumerate(pot.values):
        w = tuple((i >> (3 - t)) & 1 for t in range(4))
        if w in zero_words:
            assert v == 0
        else:
            assert v < 0


def test_projection_error_bound_shrinks():
    spec = HolderFamilySpec("distance-to-set", F(1, 2), F(1),
                            (periodic_point((0, 1), 2),))
    bounds = [projection_error_bound(spec, k) for k in (2, 4, 6)]
    assert bounds[0] > bounds[1] > bounds[2] > 0


@pytest.mark.parametrize("n, k, word", [
    (1, 3, "011"), (1, 5, "01011"), (1, 7, "01011"), (2, 7, "0101011"),
    (1, 4, "01"), (1, 6, "01"), (2, 6, "01"), (2, 8, "01"),
])
def test_leplaideur_member_maximizer_follows_depth_parity(n, k, word):
    a = leplaideur_member(n, F(1, 2), k)
    g = build_de_bruijn(2, k, a)
    cs = max_mean_cycle(g)
    assert cs.unique_maximizer
    assert word_to_string(cycle_word(g, cs.orbits[0])) == word
    assert (cs.mean == 0) == (k % 2 == 0 or (n, k) in {(1, 5), (2, 7)})


def test_leplaideur_member_shape():
    pot = leplaideur_member(1, F(1, 2), 8)
    assert pot.depth == 8 and pot.alphabet_size == 2
    assert max(pot.values) == 0 and min(pot.values) < 0
    with pytest.raises(InvalidInputError):
        leplaideur_member(0, F(1, 2), 8)
