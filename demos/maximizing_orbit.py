"""Walk through the exact max-plus pipeline on a small hand-picked
potential: find the best average orbit, calibrate a subaction, and read
off how much every other edge loses per step.

Run with:  python3 demos/maximizing_orbit.py
"""

from fractions import Fraction

from shiftopt import (LocallyConstantPotential, build_de_bruijn,
                      calibrated_subaction, critical_orbits, cycle_word,
                      deviation_at_point, error_function, max_mean_cycle,
                      word_to_string)
from shiftopt.words import EventuallyPeriodicPoint

F = Fraction


def main():
    # depth-3 potential on two letters: reward alternation, tax runs
    values = {
        (0, 0, 0): F(-2), (0, 0, 1): F(-1, 2), (0, 1, 0): F(0),
        (0, 1, 1): F(-1), (1, 0, 0): F(-1), (1, 0, 1): F(0),
        (1, 1, 0): F(-1, 2), (1, 1, 1): F(-2),
    }
    pot = LocallyConstantPotential(2, 3, tuple(values[w] for w in sorted(values)))
    g = build_de_bruijn(2, 3, pot)
    print(f"graph: {g.n_nodes} nodes (length-2 windows), {g.n_edges} edges")

    cs = max_mean_cycle(g)
    print(f"best average value per step: {cs.mean}")
    for orbit in critical_orbits(g, cs):
        print(f"  achieved by the cycle spelling {word_to_string(cycle_word(g, orbit))}")
    print(f"unique best orbit: {cs.unique_maximizer}")

    v = calibrated_subaction(g, cs)
    print("\ncalibrated subaction V by node:")
    for u in range(g.n_nodes):
        print(f"  V({word_to_string(g.node_word(u))}) = {v.values[u]}")

    r = error_function(g, cs, v)
    print("\nper-edge loss R = V(target) - V(source) - A + m  (zero on the orbit):")
    for e in range(g.n_edges):
        print(f"  R({word_to_string(g.edge_word(e))}) = {r.values[e]}")

    # the deviation of a point adds up losses along its whole trajectory
    for s in ("(01)", "0(01)", "11(01)", "(0)"):
        p = EventuallyPeriodicPoint.parse(s, 2)
        dev = deviation_at_point(g, r, p)
        shown = "diverges" if dev is None else dev
        print(f"total loss starting from {s}: {shown}")


if __name__ == "__main__":
    main()
