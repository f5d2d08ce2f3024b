"""Command-line front door.

    shiftopt analyze  POTENTIAL [--base-point P] [--depth K] [--out DIR]
    shiftopt scan     POTENTIAL [--betas LIST | --beta B]... [--out DIR]
    shiftopt verify   POTENTIAL [--base-point P] [--corrupt-w] [--out DIR]
    shiftopt suite    [--seed N] [--samples N] [--depth K] [--out DIR]

Exit codes: 0 success, 2 unreadable/malformed input, 3 a precondition
of the requested pipeline is not met (non-unique maximizer, twist
failure, wrong alphabet), 4 an exact invariant failed — the latter
should never happen on sound inputs and always prints a witness.

All output is deterministic: the same input file and flags produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .duality import (b_table_csv, backward_invariance_check,
                      build_duality_report, dual_roundtrip_check,
                      fundamental_relation_check, goodness_on_graph)
from .errors import (InvalidInputError, InvariantViolation, PotentialParseError,
                     PreconditionError, UnsupportedInputError)
from .genericity import sample_generic_suite
from .graph import build_de_bruijn
from .maxplus import cycle_word, max_mean_cycle
from .potentials import (LocallyConstantPotential, load_potential,
                         project_distance_family)
from .thermo import beta_scan, verify_kernel_identity
from .transport import (dual_value, graph_property_check, plan_csv,
                        slackness_check, solve_transport)
from .twist import (certify_twist, change_characterization_check,
                    decomposition_text, finiteness_report,
                    interval_decomposition, optimal_pair_map, turning_cut)
from .words import EventuallyPeriodicPoint, word_to_string

_DEFAULT_BETAS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


def _rat(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _parse_flag(flag: str, parse, text: str):
    """parse(text), or InvalidInputError (exit 2) naming the flag."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidInputError(f"{flag}: cannot read {text!r}") from None


def _load(args) -> LocallyConstantPotential:
    pot = load_potential(args.potential)
    depth = getattr(args, "depth", None)
    if depth is not None:
        fam = pot.family
        if fam is None or fam.kind != "distance-to-set":
            raise PreconditionError(
                "--depth reprojects a distance family; this file has none")
        pot = project_distance_family(fam, depth)
    return pot


def _base_point(args, d: int) -> EventuallyPeriodicPoint | None:
    text = getattr(args, "base_point", None)
    if text is None:
        return None
    return EventuallyPeriodicPoint.parse(text, d)


def _write(out_dir: str | None, name: str, text: str, emitted: list[str]) -> None:
    if out_dir is None:
        return
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    (path / name).write_text(text, encoding="utf-8")
    emitted.append(str(path / name))


# ---------------------------------------------------------------------------
# analyze: the full exact pipeline, stopping at the first unmet precondition

def cmd_analyze(args) -> int:
    pot = _load(args)
    lines: list[str] = []
    emitted: list[str] = []
    say = lines.append

    say(f"potential: depth {pot.depth} over alphabet of size {pot.alphabet_size} "
        f"({len(pot.values)} cylinders)")

    g = build_de_bruijn(pot.alphabet_size, pot.depth, pot)
    cs = max_mean_cycle(g)
    say(f"[maxplus] maximizing mean value m = {_rat(cs.mean)}")
    say(f"[maxplus] critical edges: {len(cs.critical_edges)}, "
        f"critical nodes: {len(cs.critical_nodes)}, "
        f"orbits: {len(cs.orbits)}")
    if not cs.unique_maximizer:
        say("[stopped] maximizing measure not unique; "
            "perturb the potential (see the suite command) and rerun")
        print("\n".join(lines))
        raise PreconditionError("maximizing measure not unique")
    word = cycle_word(g, cs.orbits[0])
    say(f"[maxplus] unique maximizing orbit spells "
        f"{word_to_string(word) or '-'} (period {len(word)})")

    report = build_duality_report(pot, _base_point(args, pot.alphabet_size), cs)
    say(f"[duality] gamma = {_rat(report.gamma)}, "
        f"base point {report.base_point}")
    n_optimal = sorted({len(s) for s in report.optimal_w_per_x})
    say(f"[duality] optimal w-nodes per x-node: "
        + (str(n_optimal[0]) if len(n_optimal) == 1 else f"{n_optimal}")
        + f"; total distinct optimal w: "
          f"{len(frozenset().union(*report.optimal_w_per_x))}")
    goodness = goodness_on_graph(report.dual_graph, report.dual_critical,
                                 report.r_star)
    if goodness.good:
        say(f"[duality] dual side is good; boundary margin "
            f"{_rat(goodness.margin)} over {len(goodness.boundary_edges)} edges"
            if goodness.margin is not None else
            "[duality] dual side is good (no boundary edges)")
    else:
        say(f"[duality] dual side NOT good; zero-margin witness "
            f"{word_to_string(goodness.witness)}")
    _write(args.out, "b_table.csv", b_table_csv(report), emitted)

    try:
        cert = certify_twist(report.kernel)
    except UnsupportedInputError:
        say("[stopped] twist and transport steps use the two-letter shift; "
            "larger alphabets stop here (the library modules go further)")
        print("\n".join(lines))
        raise
    if not cert.holds:
        if cert.witness is None:
            say("[stopped] twist criterion is degenerate here "
                "(fewer than two prefixes)")
        else:
            (aw, bw), (aw2, bw2), lhs, rhs = cert.witness
            say("[stopped] twist criterion fails: pairs "
                f"({word_to_string(aw) or '-'},{word_to_string(bw) or '-'}) and "
                f"({word_to_string(aw2) or '-'},{word_to_string(bw2) or '-'}) "
                f"give {_rat(lhs)} >= {_rat(rhs)}")
        print("\n".join(lines))
        raise PreconditionError("twist criterion does not hold")
    say(f"[twist] strict cross-differences hold ({cert.checked_pairs} "
        f"quadruples checked)")
    pmap = optimal_pair_map(report)
    cut = turning_cut(pmap, cert)
    say(f"[twist] turning cut: {cut}")
    dec = interval_decomposition(pmap, cert)
    say(f"[twist] interval decomposition: {len(dec.runs)} runs")
    fin = finiteness_report(pmap)
    say(f"[twist] distinct optimal points: {fin.distinct_count}; "
        f"injective off shared atoms: {'yes' if fin.graph_property else 'no'}")
    changed = change_characterization_check(dec, cut)
    say(f"[twist] every interval boundary is hit by a cut orbit: "
        f"{'yes' if changed else 'NO'}")
    _write(args.out, "intervals.txt", decomposition_text(dec) + "\n", emitted)

    plan = solve_transport(report)
    say(f"[transport] {len(plan.atoms_x)} atoms per side; optimal cost = "
        f"{_rat(plan.cost)} via permutation {','.join(map(str, plan.permutation))}")
    dv = dual_value(plan, report)
    if dv != plan.cost:
        say(f"[transport] duality value {_rat(dv)} != cost — gap!")
        print("\n".join(lines))
        raise InvariantViolation("transport duality gap on exact data")
    say(f"[transport] duality value matches the cost exactly: {_rat(dv)}")
    sl = slackness_check(plan, report)
    say(f"[transport] feasibility and slackness: "
        f"{'clean' if sl.ok else f'{len(sl.violations)} violations'}")
    say(f"[transport] support is a permutation: "
        f"{'yes' if graph_property_check(plan) else 'no'}")
    _write(args.out, "transport_plan.csv", plan_csv(plan), emitted)

    doc = {
        "alphabet_size": pot.alphabet_size,
        "depth": pot.depth,
        "mean": _rat(cs.mean),
        "orbit_word": word_to_string(word),
        "gamma": _rat(report.gamma),
        "good": goodness.good,
        "goodness_margin": None if goodness.margin is None else _rat(goodness.margin),
        "twist_holds": cert.holds,
        "turning_cut": str(cut),
        "interval_runs": len(dec.runs),
        "distinct_optimal_points": fin.distinct_count,
        "transport_cost": _rat(plan.cost),
        "transport_permutation": list(plan.permutation),
        "atoms_x": [str(a) for a in plan.atoms_x],
        "atoms_w": [str(a) for a in plan.atoms_w],
    }
    _write(args.out, "analysis.json", json.dumps(doc, indent=2, sort_keys=True) + "\n",
           emitted)
    _write(args.out, "summary.txt", "\n".join(lines) + "\n", emitted)
    print("\n".join(lines))
    for path in emitted:
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# scan: thermodynamic approximation quality along increasing beta

def cmd_scan(args) -> int:
    pot = _load(args)
    if args.betas:
        betas = [_parse_flag("--betas/--beta", float, b)
                 for chunk in args.betas for b in chunk.split(",") if b]
    else:
        betas = list(_DEFAULT_BETAS)
    betas = sorted(set(betas))
    report = beta_scan(pot, betas)
    print(report.summary())
    csv = report.csv()
    emitted: list[str] = []
    _write(args.out, "scan.csv", csv, emitted)
    for path in emitted:
        print(f"wrote {path}")
    if args.out is None:
        print(csv, end="")
    return 0


# ---------------------------------------------------------------------------
# verify: every exact identity, one status line each

def _status(ok: bool, label: str, detail: str = "") -> tuple[bool, str]:
    mark = "ok " if ok else "FAIL"
    return ok, f"  [{mark}] {label}" + (f": {detail}" if detail else "")


def cmd_verify(args) -> int:
    pot = _load(args)
    base = _base_point(args, pot.alphabet_size)
    lines: list[str] = []
    all_ok = True

    def push(ok: bool, label: str, detail: str = "") -> None:
        nonlocal all_ok
        ok, line = _status(ok, label, detail)
        all_ok = all_ok and ok
        lines.append(line)

    report = build_duality_report(pot, base)
    g = report.graph

    calibrated = all(
        any(report.r.values[e] == 0 for e in g.in_edges(v))
        for v in range(g.n_nodes)) and all(x >= 0 for x in report.r.values)
    push(calibrated, "subaction calibration",
         f"R >= 0 with a zero entering each of {g.n_nodes} nodes")

    push(report.critical.mean == report.dual_critical.mean,
         "mean value is self-dual",
         f"m = {_rat(report.critical.mean)} on both sides")

    rows_ok = all(min(row) == 0 and all(v >= 0 for v in row)
                  for row in report.b_table)
    push(rows_ok, "b-table nonnegative with a zero per row",
         f"{g.n_nodes}x{g.n_nodes} entries, gamma = {_rat(report.gamma)}")

    if args.corrupt_w:
        bad_kernel = report.kernel.perturbed(0, g.n_nodes - 1, Fraction(1, 7))
        res = fundamental_relation_check(pot, report.dual, bad_kernel,
                                         report.v, report.v_star, report.r)
        push(res.ok, "fundamental relation (with corrupted kernel)",
             f"{res.pairs_checked} pairs checked")
        if not res.ok:
            vio = res.violation
            lines.append(
                f"         witness: {vio.identity} at x-node "
                f"{word_to_string(vio.x_word) or '-'}, dual edge "
                f"{word_to_string(vio.w_edge_word)}: "
                f"{_rat(vio.lhs)} != {_rat(vio.rhs)}")
    else:
        res = fundamental_relation_check(pot, report.dual, report.kernel,
                                         report.v, report.v_star, report.r)
        push(res.ok, "fundamental relation and its b-refinement",
             f"{res.pairs_checked} (x, dual-edge) pairs exact")
        if not res.ok:
            vio = res.violation
            lines.append(
                f"         witness: {vio.identity} at x-node "
                f"{word_to_string(vio.x_word) or '-'}, dual edge "
                f"{word_to_string(vio.w_edge_word)}: "
                f"{_rat(vio.lhs)} != {_rat(vio.rhs)}")

    back_ok, back_witness = backward_invariance_check(report)
    push(back_ok, "backward invariance of b-zeros",
         "every zero steps to a zero along an optimal edge" if back_ok
         else f"stuck at x = {word_to_string(back_witness[0]) or '-'}, "
              f"w = {word_to_string(back_witness[1]) or '-'}")

    push(dual_roundtrip_check(pot), "double dual returns modulo coboundary")

    ki = verify_kernel_identity(pot, report.kernel, beta=1.0)
    push(ki.ok, "spectral kernel identity at beta = 1",
         f"residual {ki.residual:.3g}")

    plan = solve_transport(report)
    sl = slackness_check(plan, report)
    dv = dual_value(plan, report)
    push(sl.ok and dv == plan.cost and graph_property_check(plan),
         "transport optimum",
         f"cost {_rat(plan.cost)} with tight duality and permutation support")

    if report.degenerate:
        lines.append("  [ -- ] twist chain skipped: depth-1 potential, "
                     "kernel identically zero (degenerate but consistent)")
    elif pot.alphabet_size != 2:
        lines.append("  [ -- ] twist chain skipped: cross-difference "
                     "criterion is for the two-letter shift")
    else:
        cert = certify_twist(report.kernel)
        if not cert.holds:
            lines.append("  [ -- ] twist chain skipped: cross-differences "
                         "not strict at this depth")
        else:
            pmap = optimal_pair_map(report)
            cut = turning_cut(pmap, cert)
            dec = interval_decomposition(pmap, cert)
            push(change_characterization_check(dec, cut),
                 "optimal pairs change exactly at the cut orbit",
                 f"cut {cut}, {len(dec.runs)} interval runs")

    print(f"verify: {args.potential}")
    print("\n".join(lines))
    emitted: list[str] = []
    _write(args.out, "verify.txt", "\n".join(lines) + "\n", emitted)
    for path in emitted:
        print(f"wrote {path}")
    if not all_ok:
        print("verification FAILED")
        return 4
    print("all identities hold")
    return 0


# ---------------------------------------------------------------------------
# suite: sampled genericity statistics

def cmd_suite(args) -> int:
    eps = _parse_flag("--eps", Fraction, args.eps)
    rep = sample_generic_suite(seed=args.seed, count=args.samples,
                               depth=args.depth_value,
                               alphabet_size=args.alphabet,
                               eps=eps, perturb=not args.no_perturb)
    print(rep.summary())
    emitted: list[str] = []
    _write(args.out, "suite.csv", rep.csv(), emitted)
    for path in emitted:
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="shiftopt",
        description="exact ergodic optimization and transport on the full shift")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, needs_file=True):
        if needs_file:
            p.add_argument("potential", help="potential document to load")
            p.add_argument("--depth", type=int, default=None,
                           help="reproject a distance family at this depth")
        p.add_argument("--out", default=None, metavar="DIR",
                       help="directory for report artifacts")

    pa = sub.add_parser("analyze", help="run the full exact pipeline")
    common(pa)
    pa.add_argument("--base-point", default=None,
                    help="kernel base point, e.g. '(1)' or '01(10)'")
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("scan", help="finite-temperature approximation scan")
    common(ps)
    ps.add_argument("--betas", action="append", default=[],
                    metavar="B1,B2,...", help="comma-separated beta list")
    ps.add_argument("--beta", action="append", dest="betas", metavar="B",
                    help="a single beta (repeatable)")
    ps.set_defaults(func=cmd_scan)

    pv = sub.add_parser("verify", help="check every exact identity")
    common(pv)
    pv.add_argument("--base-point", default=None,
                    help="kernel base point, e.g. '(1)' or '01(10)'")
    pv.add_argument("--corrupt-w", action="store_true",
                    help="debug: corrupt one kernel entry, expect failure")
    pv.set_defaults(func=cmd_verify)

    pg = sub.add_parser("suite", help="sampled genericity statistics")
    common(pg, needs_file=False)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--samples", type=int, default=50)
    pg.add_argument("--depth", type=int, default=3, dest="depth_value")
    pg.add_argument("--alphabet", type=int, default=2)
    pg.add_argument("--eps", default="1/16",
                    help="perturbation size (exact rational)")
    pg.add_argument("--no-perturb", action="store_true",
                    help="report raw samples, ties included")
    pg.set_defaults(func=cmd_suite)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PotentialParseError, InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UnsupportedInputError, PreconditionError) as exc:
        print(f"precondition not met: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
