"""Couple the two maximizing orbits — the forward one and its
time-reversal — at minimal kernel cost, exactly.

Both orbits carry uniform mass on their cyclic shifts.  The cost of
sending an x-atom to a w-atom is the negated kernel value, so the
cheapest coupling rewards the pairs the duality layer already marked as
optimal: the zeros of b.  The solver does no arithmetic at all; it
finds the first perfect matching of the atom zero graph.  The optimum
is then certified three ways — strong duality (the matching's kernel
cost equals the dual bound), complementary slackness, and the support
being a permutation.

Run with:  python3 demos/orbit_transport.py
"""

import itertools
from fractions import Fraction

from shiftopt import (LocallyConstantPotential, build_duality_report,
                      dual_value, graph_property_check,
                      maximizing_orbit_measures, plan_csv, slackness_check,
                      solve_transport)

F = Fraction


def main():
    # depth 5, zeros exactly on the ten windows of one long word: the
    # maximizing orbit has period ten, and the matching needs no search
    # over its 10! orders
    word = (0, 0, 0, 0, 1, 0, 0, 1, 1, 1)
    edges = {tuple(word[(i + t) % 10] for t in range(5)) for i in range(10)}
    values = tuple(F(0) if w in edges else F(-1)
                   for w in itertools.product((0, 1), repeat=5))
    small = LocallyConstantPotential(2, 2, (F(0), F(1, 2), F(-1, 4), F(-2)))

    for name, pot in (("period-2 orbit", small),
                      ("period-10 orbit", LocallyConstantPotential(2, 5, values))):
        rep = build_duality_report(pot)
        mu_x, mu_w = maximizing_orbit_measures(rep)
        print(f"{name}: {len(mu_x.atoms)} atoms of mass {mu_x.weight} per side")
        print(f"  forward atoms:  {', '.join(str(a) for a in mu_x.atoms)}")
        print(f"  reversed atoms: {', '.join(str(a) for a in mu_w.atoms)}")

        plan = solve_transport(rep)
        print(f"  minimal cost {plan.cost} via permutation "
              f"{','.join(map(str, plan.permutation))}")
        print(f"  strong duality: cost equals the dual bound "
              f"({plan.cost == dual_value(plan, rep)})")
        print(f"  slackness clean: {slackness_check(plan, rep).ok}; "
              f"support is a permutation: {graph_property_check(plan)}")
        if len(mu_x.atoms) <= 4:
            print("  plan:")
            for line in plan_csv(plan).splitlines():
                print(f"    {line}")
        print()


if __name__ == "__main__":
    main()
