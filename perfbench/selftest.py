"""Self-tests of the benchmark's own parts: corpus, checker, ranking, tracer.

    python3 perfbench/selftest.py

They import shiftopt from the checkout's src/ only to compare the
corpus's named members with the library's constructors and to produce
real artifacts for the checker's negative controls.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import run_job  # noqa: E402

PINS = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))["pins"]


def brute_cycles(pot: corpus.Potential):
    """Every node-simple cycle of the depth-k window graph as (mean,
    window words), by plain depth-first enumeration (at most 16 nodes)."""
    k = pot.depth
    value = dict(zip(corpus.words(k), pot.values))
    nodes = sorted(itertools.product((0, 1), repeat=k - 1))
    found = []

    def walk(start, node, path, seen):
        for a in (0, 1):
            edge = node + (a,)
            nxt = edge[1:]
            if nxt == start:
                cyc = path + [edge]
                found.append((sum(value[e] for e in cyc) / len(cyc), cyc))
            elif nxt > start and nxt not in seen:
                walk(start, nxt, path + [edge], seen | {nxt})

    for start in nodes:
        walk(start, start, [], {start})
    return found


def cycle_word(cyc) -> tuple:
    return tuple(e[-1] for e in cyc)


class CorpusTest(unittest.TestCase):
    def test_planted_orbit_is_the_unique_maximizer(self):
        rng = random.Random("selftest")
        for depth in (2, 3, 4, 5):
            for _ in range(6):
                period = rng.randint(1, min(10, 2 ** (depth - 1)))
                pot = corpus.planted(rng, "p", depth, period)
                cycles = brute_cycles(pot)
                best = max(m for m, _ in cycles)
                winners = [c for m, c in cycles if m == best]
                self.assertEqual(best, pot.mean)
                self.assertEqual(len(winners), 1)
                word = cycle_word(winners[0])
                self.assertIn(word, {pot.word[i:] + pot.word[:i] for i in range(period)})

    def test_named_members_match_the_library(self):
        from shiftopt import canonical_a2, constant, leplaideur_member
        self.assertEqual(corpus.canonical_a2().values, canonical_a2().values)
        self.assertEqual(corpus.constant(6).values, constant(2, 6).values)
        for n in (1, 2):
            lib = leplaideur_member(n, Fraction(1, 2), 2 * n + 6)
            self.assertEqual(corpus.leplaideur(n, Fraction(1, 2), 2 * n + 6).values, lib.values)

    def test_hamiltonian_cycle_visits_every_node(self):
        for depth in (3, 8, 11):
            pot = corpus.hamiltonian(depth)
            windows = corpus.cyclic_windows(pot.word, depth - 1)
            self.assertEqual(len(set(windows)), 2 ** (depth - 1))
            self.assertEqual(sum(v == 0 for v in pot.values), 2 ** (depth - 1))

    def test_same_seed_same_corpus(self):
        for wl in corpus.WORKLOADS:
            self.assertEqual(corpus.digest(*corpus.build(wl, 7)),
                             corpus.digest(*corpus.build(wl, 7)))
            self.assertNotEqual(corpus.digest(*corpus.build(wl, 7)),
                                corpus.digest(*corpus.build(wl, 8)))


class CheckerTest(unittest.TestCase):
    """Negative controls on real artifacts: one corrupted entry is caught."""

    def setUp(self):
        from shiftopt.cli import main
        self.main = main
        self.tmp = Path(tempfile.mkdtemp())

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def _run(self, pot, command):
        doc = self.tmp / f"{pot.name}.pot"
        doc.write_text(corpus.document(pot), encoding="utf-8")
        out = self.tmp / f"{command}-{pot.name}"
        rc, _, stdout, _ = run_job(self.main, [command, str(doc), "--out", str(out)])
        job = corpus.Job(command, pot.name)
        return job, rc, out, stdout

    def test_corrupted_b_table_entry(self):
        pot = corpus.planted(random.Random(3), "planted_d4_0", 4, 5)
        job, rc, out, stdout = self._run(pot, "analyze")
        self.assertEqual(check.check(job, pot, rc, out, stdout, PINS).status, check.ANSWERED)
        path = out / "b_table.csv"
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        zero = cells.index("0", 1)
        cells[zero] = "-1/7"
        path.write_text("\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n")
        verdict = check.check(job, pot, rc, out, stdout, PINS)
        self.assertEqual(verdict.status, check.WRONG, verdict.reason)

    def test_pinned_b_table_entry(self):
        pots, _ = corpus.build("small-batch", 0)
        pot = next(p for p in pots if check.pin_key(corpus.Job("analyze", p.name),
                                                     "b_table.csv") in PINS)
        job, rc, out, stdout = self._run(pot, "analyze")
        self.assertEqual(check.check(job, pot, rc, out, stdout, PINS).status, check.ANSWERED)
        path = out / "b_table.csv"
        text = path.read_text()
        last = text.rstrip("\n").rsplit(",", 1)
        path.write_text(last[0] + "," + str(Fraction(last[1]) + 1) + "\n")
        verdict = check.check(job, pot, rc, out, stdout, PINS)
        self.assertEqual(verdict.status, check.WRONG, verdict.reason)

    def test_corrupted_scan_entry(self):
        pot = corpus.planted(random.Random(5), "planted_d5_0", 5, 4)
        job, rc, out, stdout = self._run(pot, "scan")
        self.assertEqual(check.check(job, pot, rc, out, stdout, PINS).status, check.ANSWERED)
        path = out / "scan.csv"
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[1] = repr(float(cells[1]) * (1 + 1e-7))
        path.write_text("\n".join(lines[:3] + [",".join(cells)] + lines[4:]) + "\n")
        verdict = check.check(job, pot, rc, out, stdout, PINS)
        self.assertEqual(verdict.status, check.WRONG, verdict.reason)


class RankingTest(unittest.TestCase):
    def test_failed_job_sorts_after_every_answered_job(self):
        job = corpus.Job("analyze", "x")
        answered = [{"job": job, "seconds": s, "status": check.ANSWERED} for s in (1.0, 2.0, 3.0)]
        fast_fail = {"job": job, "seconds": 0.001, "status": check.FAILED}
        records = answered + [fast_fail]
        self.assertEqual(run.percentile(records, 0.5), 2.0)
        self.assertEqual(run.percentile(records, 0.75), 3.0)
        self.assertIsNone(run.percentile(records, 1.0))
        # turning the fast failure into a slower answer moves no percentile up
        fixed = answered + [{"job": job, "seconds": 5.0, "status": check.ANSWERED}]
        for q in (0.5, 0.75):
            self.assertLessEqual(run.percentile(fixed, q), run.percentile(records, q))


class TracerTest(unittest.TestCase):
    def test_self_times_add_up_to_job_totals(self):
        import shiftopt.cli
        tmp = Path(tempfile.mkdtemp())
        try:
            pots, jobs = corpus.build("small-batch", 1)
            by_name = {p.name: p for p in pots}
            tracer = Tracer()
            records = []
            for i, job in enumerate(jobs[::20]):
                argv = [job.command]
                if job.command != "suite":
                    doc = tmp / f"{job.target}.pot"
                    doc.write_text(corpus.document(by_name[job.target]), encoding="utf-8")
                    argv.append(str(doc))
                root = tracer.enter(f"cli.{job.command}")
                rc, seconds, _, _ = run_job(shiftopt.cli.main,
                                            argv + [*job.args, "--out", str(tmp / str(i))])
                tracer.exit(root)
                self.assertIsInstance(rc, int)
                records.append({"job": job, "seconds": seconds, "status": check.ANSWERED})
            tracer.write(tmp / "spans.jsonl")
            traced = run.Pass(records, None, 0, tmp / "spans.jsonl")
            layer = run.per_layer(traced, traced)
            total = sum(r["seconds"] for r in records)
            selfs = sum(v for k, (v, unit) in layer.items()
                        if k.endswith(".self_s") and k.count(".") == 1)
            self.assertAlmostEqual(selfs, total, delta=0.02 * total + 0.005)
            self.assertGreater(layer["maxplus.max_mean_cycle.calls"][0], 0)
        finally:
            shutil.rmtree(tmp)
            for name in list(sys.modules):     # drop the wrapped functions
                if name == "shiftopt" or name.startswith("shiftopt."):
                    del sys.modules[name]


if __name__ == "__main__":
    unittest.main()
