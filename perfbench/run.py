"""shiftopt benchmark: seeded corpus, closed loop of CLI jobs, checked answers.

    python3 perfbench/run.py --workload exact-deep|thermo-scan|small-batch
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass runs the workload's whole
corpus once in fresh worker processes (worker.py: no threads, BLAS
pinned to one thread, one job at a time); passes repeat until S seconds
have gone.  Every job's answer is checked against the CLI contract
(check.py).  The yardstick is the seed library (seedlib/, a verbatim
copy of src/shiftopt at the commit that defined the benchmark).  A pass
has one lane per CPU (two at most), each a program worker and a
yardstick worker pinned to that CPU, and a fixed plan shares the jobs
between the lanes.  A job the seed library answered when the references were
pinned runs on both workers of its lane at once, so the kernel
interleaves them every few milliseconds and they see the same machine
speed; any other job runs on the program alone.  A job's time is its
worker's CPU time, which is its wall time when it runs alone.
speed_vs_seed, the yardstick's time over the program's summed over the
jobs both answer, therefore does not follow the host's speed, which on
a shared VM swings by up to 2x from one second to the next.  Set-up is
measured the same way, in a few pairs of set-up-only workers:
setup_s is the median ratio of the program's set-up to the seed
library's, times the seed library's set-up time measured by pin.py.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced and
one traced pass without the yardstick, the traced one in a single lane,
and prints the per-layer metrics from the traced one.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  Exit status 0 means
the benchmark ran (failed jobs included); anything else means it could
not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SEEDLIB = HERE / "seedlib"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import corpus  # noqa: E402

SETUP_PROBES = 3          # pairs of set-up-only workers per run
RUN_BUDGET_S = 150        # no job starts after this; the run must end by 180 s
KILL_AFTER_S = 170
P90_MIN_JOBS = 100
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1",
              "PYTHONHASHSEED": "0"}

CPUS = sorted(os.sched_getaffinity(0))[:2]     # one lane of workers per CPU

END_TO_END = (("setup_s", "s"), ("answered_frac", "ratio"),
              ("speed_vs_seed", "ratio"), ("peak_rss_mb", "MB"))


class WorkerDied(RuntimeError):
    pass


class Worker:
    """A worker process that runs one job per request (worker.py)."""

    def __init__(self, workload: str, seed: int, workdir: Path, lib: Path, cpu: int,
                 deadline: float, *extra: str):
        if workdir.exists():
            shutil.rmtree(workdir)
        workdir.mkdir(parents=True)
        self.workdir, self.deadline, self.dead = workdir, deadline, None
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--workdir", str(workdir), "--lib", str(lib),
               "--cpu", str(cpu), *extra]
        self.stderr = open(workdir / "stderr.txt", "w", encoding="utf-8")
        self.spawned = perf_counter()
        self.proc = subprocess.Popen(cmd, env={**os.environ, **WORKER_ENV}, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self.stderr)
        self.setup_s = self.setup_cpu_s = None

    def ready(self) -> Worker:
        """Wait for the end of set-up: its wall time and the worker's CPU time."""
        ready = self.reply()
        self.setup_s, self.setup_cpu_s = ready["ready"] - self.spawned, ready["cpu"]
        return self

    def reply(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    max(0.0, self.deadline - perf_counter()))
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.close()
            err = (self.workdir / "stderr.txt").read_text(encoding="utf-8").strip()[-2000:]
            self.dead = ("no reply before the run's time limit" if not ready
                         else f"worker exited {self.proc.returncode}: {err}")
            raise WorkerDied(self.dead)
        return json.loads(line)

    def send(self, index: int) -> None:
        """Queue job `index`; `reply` waits for the oldest queued job."""
        self.proc.stdin.write(f"{index}\n")
        self.proc.stdin.flush()

    def finish(self) -> float:
        """End the worker; its peak resident memory in MB (0 if it died)."""
        if self.dead:
            return 0.0
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        maxrss = self.reply()["maxrss_kb"] / 1024
        self.close()
        return maxrss

    def close(self, kill: bool = False) -> None:
        """Let the worker end at the end of its input, or kill it now."""
        if self.proc.poll() is None:
            try:
                if kill:
                    raise OSError("killed")
                self.proc.stdin.close()
                self.proc.wait(timeout=max(1.0, self.deadline - perf_counter()))
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.stderr.close()


def setup_pair(workload: str, seed: int, workdir: Path, deadline: float) -> float:
    """Set-up of the program over set-up of the seed library, both run at
    once on one CPU, in CPU time: the program's set-up time in units of
    the seed library's, whatever the host's speed."""
    prog = Worker(workload, seed, workdir / "prog", SRC, CPUS[0], deadline, "--setup-only")
    seedlib = Worker(workload, seed, workdir / "seed", SEEDLIB, CPUS[0], deadline,
                     "--setup-only")
    try:
        return prog.ready().setup_cpu_s / seedlib.ready().setup_cpu_s
    finally:
        prog.close(kill=True)
        seedlib.close(kill=True)


def seedlib_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SEEDLIB / "shiftopt").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@dataclass
class Pass:
    """One pass's results: per-job records (with verdicts), the set-up
    wall time of its first program worker, and its peak memory."""

    records: list[dict]
    setup_s: float | None
    maxrss_mb: float
    spans_path: Path | None

    @property
    def job_seconds(self) -> float:
        return sum(r["seconds"] for r in self.records)


def _verdict(job, pots: dict, workdir: Path, reply: dict, pins: dict) -> check.Verdict:
    out = workdir / "out" / f"{reply['index']:04d}"
    stdout = (out / "stdout.txt").read_text(encoding="utf-8")
    return check.check(job, pots.get(job.target), reply["rc"], out, stdout, pins)


@dataclass
class Lane:
    """The workers pinned to one CPU: the program's and, when the pass has
    a yardstick, the seed library's.  It runs one job at a time."""

    prog: Worker
    seedlib: Worker | None
    queue: list[int]          # its jobs, last one first
    job: int | None = None
    waiting: tuple = ()

    @property
    def dead(self) -> str | None:
        return self.prog.dead or (self.seedlib.dead if self.seedlib else None)


def plan_lanes(jobs: list, lanes: int, job_s: dict, paired: set) -> list[list[int]]:
    """Share the jobs between the lanes, longest first, each to the lane
    with the least work so far, by the seed library's time for each job at
    the reference seed (twice that for a paired job).  The plan is fixed,
    so each worker runs the same jobs in the same order on every run, and
    its peak memory, which depends on that order, repeats."""
    def work(i):
        return job_s.get(f"{jobs[i].command}:{jobs[i].target}", 0.0) * (2 if i in paired else 1)
    load, plan = [0.0] * lanes, [[] for _ in range(lanes)]
    for i in sorted(range(len(jobs)), key=work, reverse=True):
        k = load.index(min(load))
        plan[k].append(i)
        load[k] += work(i)
    return [sorted(p) for p in plan]


def run_pass(workload: str, seed: int, workdir: Path, start: float, pots: dict,
             jobs: list, pins: dict, trace: bool, seed_answers: frozenset,
             job_s: dict) -> Pass:
    """Run every job once on the program, in the lanes `plan_lanes` gives
    it.  Each job in `seed_answers`
    (those the seed library answered when the benchmark was pinned) also
    runs on the lane's seed library worker, at the same time and on the
    same CPU.  A traced pass has one lane, so that its spans come from
    one worker."""
    deadline = start + KILL_AFTER_S
    paired = {i for i, job in enumerate(jobs) if f"{job.command}:{job.target}" in seed_answers}
    lanes: list[Lane] = []
    replies, refs, lost, where = {}, {}, {}, {}
    try:
        cpus = CPUS[:1] if trace else CPUS
        for n, (cpu, mine) in enumerate(zip(cpus, plan_lanes(jobs, len(cpus), job_s, paired))):
            prog = Worker(workload, seed, workdir / f"prog{n}", SRC, cpu, deadline,
                          *(["--trace"] if trace else [])).ready()
            lanes.append(Lane(prog, None, mine[::-1]))
            if paired:
                lanes[-1].seedlib = Worker(workload, seed, workdir / f"seed{n}", SEEDLIB,
                                           cpu, deadline).ready()
        while True:
            for lane in lanes:
                while lane.job is None and lane.queue and not lane.dead:
                    i = lane.queue.pop()
                    if perf_counter() > start + RUN_BUDGET_S:
                        lost[i] = "not run before the deadline"
                        continue
                    lane.job, where[i] = i, lane
                    lane.waiting = (lane.prog, lane.seedlib) if i in paired else (lane.prog,)
                    for w in lane.waiting:
                        w.send(i)
            busy = [lane for lane in lanes if lane.job is not None]
            if not busy:
                break
            pipes = {w.proc.stdout: (lane, w) for lane in busy for w in lane.waiting}
            ready, _, _ = select.select(list(pipes), [], [],
                                        max(0.0, deadline - perf_counter()))
            for lane, w in (pipes[f] for f in ready) if ready else pipes.values():
                try:
                    (refs if w is lane.seedlib else replies)[lane.job] = w.reply()
                except WorkerDied as exc:       # the lane takes no more jobs
                    if w is lane.prog:
                        lost[lane.job] = f"not run: a worker died ({exc})"
                lane.waiting = tuple(x for x in lane.waiting if x is not w)
                if not lane.waiting or lane.prog.dead:
                    lane.job = None
            for lane in lanes:
                if lane.dead:
                    lost.update((i, f"not run: a worker died ({lane.dead})") for i in lane.queue)
                    lane.queue = []
        maxrss = max(lane.prog.finish() for lane in lanes)
        for lane in lanes:
            if lane.seedlib and not lane.dead:
                lane.seedlib.finish()
    finally:                              # after an error or a signal: kill what is left
        for lane in lanes:
            for w in (lane.prog, lane.seedlib):
                if w:
                    w.close(kill=True)

    records = []
    for i, job in enumerate(jobs):
        if i not in replies or i in lost:       # attempted, not answered
            records.append({"job": job, "seconds": 0.0, "status": check.FAILED,
                            "reason": lost.get(i, "no reply")})
            continue
        verdict = _verdict(job, pots, where[i].prog.workdir, replies[i], pins)
        rec = {"job": job, "seconds": replies[i]["cpu_seconds"], "status": verdict.status,
               "reason": verdict.reason}
        if i in refs and verdict.status == check.ANSWERED and _verdict(
                job, pots, where[i].seedlib.workdir, refs[i], pins).status == check.ANSWERED:
            rec["seed_seconds"] = refs[i]["cpu_seconds"]
        records.append(rec)
    spans = lanes[0].prog.workdir / "spans.jsonl"
    return Pass(records, lanes[0].prog.setup_s, maxrss, spans if spans.exists() else None)


# -- metrics -----------------------------------------------------------------

def percentile(records: list[dict], q: float):
    """Nearest-rank percentile of job time in which a failed job
    ranks after every answered one; None when it lands on a failed job."""
    ranked = sorted(records, key=lambda r: (r["status"] != check.ANSWERED, r["seconds"]))
    pick = ranked[max(0, -(-int(q * 100) * len(ranked) // 100) - 1)]
    return pick["seconds"] if pick["status"] == check.ANSWERED else None


def command_lines(records: list[dict]) -> list[str]:
    """The per-command latencies and suite throughput, as text."""
    lines = []
    by_cmd = defaultdict(list)
    for r in records:
        by_cmd[r["job"].command].append(r)
    for cmd in ("analyze", "verify", "scan"):
        rs = by_cmd.get(cmd)
        if not rs:
            lines.append(f"{cmd}_s_p50: absent (no {cmd} jobs)")
            continue
        n_failed = sum(r["status"] != check.ANSWERED for r in rs)
        for q in (0.5, 0.9):
            if q == 0.9 and len(rs) < P90_MIN_JOBS:
                continue
            v = percentile(rs, q)
            shown = f"{v:.6f} s" if v is not None else "failed (ranks after every answer)"
            lines.append(f"{cmd}_s_p{int(q * 100)}: {shown}  "
                         f"[{len(rs)} jobs, {n_failed} failed]")
    suites = [r for r in by_cmd.get("suite", []) if r["status"] == check.ANSWERED]
    if suites:
        samples = sum(int(r["job"].args[r["job"].args.index("--samples") + 1]) for r in suites)
        lines.append(f"suite_samples_per_s: {samples / sum(r['seconds'] for r in suites):.4f} "
                     f"samples/s  [{len(suites)} suites]")
    else:
        lines.append("suite_samples_per_s: absent (no answered suite jobs)")
    return lines


def end_to_end(passes: list[Pass], setup_s: float) -> dict[str, float]:
    records = [r for p in passes for r in p.records]
    answered = sum(r["status"] == check.ANSWERED for r in records)
    paired = [r for r in records if "seed_seconds" in r]
    return {"setup_s": setup_s,
            "answered_frac": answered / len(records),
            "speed_vs_seed": (sum(r["seed_seconds"] for r in paired)
                              / sum(r["seconds"] for r in paired)) if paired else 0.0,
            "peak_rss_mb": max(p.maxrss_mb for p in passes),
            "answered_per_min": answered / (sum(p.job_seconds for p in passes) / 60),
            "paired_jobs": len(paired)}


def _load_spans(path: Path) -> list[list]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def per_layer(traced: Pass, untraced: Pass) -> dict[str, tuple[float, str]]:
    spans = _load_spans(traced.spans_path)
    child = defaultdict(float)
    for sid, parent, name, start, end, _ in spans:
        if parent is not None:
            child[parent] += end - start
    self_s = defaultdict(float)          # per layer
    fn_self = defaultdict(float)         # per function
    fn_incl = defaultdict(float)         # outermost spans of a function only
    calls = defaultdict(int)
    counts = defaultdict(int)
    for sid, parent, name, start, end, cnt in spans:
        own = end - start - child[sid]
        self_s[name.split(".")[0]] += own
        fn_self[name] += own
        calls[name] += 1
        anc = parent
        while anc is not None and spans[anc][2] != name:
            anc = spans[anc][1]
        if anc is None:
            fn_incl[name] += end - start
        for key, value in (cnt or {}).items():
            counts[key] += value

    potentials = sum(r["job"].command != "suite" for r in traced.records) + counts["samples"]
    mmc = calls["maxplus.max_mean_cycle"]
    solves = calls["thermo.leading_eigs"]
    m = {
        "duality.self_s": (self_s["duality"], "s"),
        "duality.dual_potential.s": (fn_incl["duality.dual_potential"], "s"),
        "duality.build_duality_report.self_s": (fn_self["duality.build_duality_report"], "s"),
        "duality.fundamental_relation_check.s": (fn_incl["duality.fundamental_relation_check"], "s"),
        "duality.fr_pairs_checked": (counts["fr_pairs_checked"], "count"),
        "duality.b_table_entries": (counts["b_table_entries"], "count"),
        "maxplus.self_s": (self_s["maxplus"], "s"),
        "maxplus.max_mean_cycle.s": (fn_incl["maxplus.max_mean_cycle"], "s"),
        "maxplus.max_mean_cycle.calls": (mmc, "count"),
        "maxplus.mmc_calls_per_potential": (mmc / potentials, "ratio"),
        "thermo.self_s": (self_s["thermo"], "s"),
        "thermo.leading_eigs.s": (fn_incl["thermo.leading_eigs"], "s"),
        "thermo.perron_solves": (solves, "count"),
        "thermo.perron_steps": (counts["perron_steps"], "count"),
        "thermo.steps_per_solve": (counts["perron_steps"] / solves if solves else 0.0, "ratio"),
        "thermo.solves_per_beta": (solves / counts["beta_points"] if counts["beta_points"] else 0.0,
                                   "ratio"),
        "transport.self_s": (self_s["transport"], "s"),
        "transport.atoms": (counts["atoms"], "count"),
        "transport.lp_only": (counts["lp_only"], "count"),
        "twist.self_s": (self_s["twist"], "s"),
        "twist.checked_pairs": (counts["checked_pairs"], "count"),
        "twist.certified": (counts["certified"], "count"),
        "genericity.self_s": (self_s["genericity"], "s"),
        "genericity.samples": (counts["samples"], "count"),
        "potentials.self_s": (self_s["potentials"], "s"),
        "graph.self_s": (self_s["graph"], "s"),
        "cli.self_s": (self_s["cli"], "s"),
        "trace.overhead_s": (traced.job_seconds - untraced.job_seconds, "s"),
    }
    return m


# -- entry point -------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "shiftopt" / "cli.py").is_file():
        print(f"error: no shiftopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))    # so that workers are stopped
    start = perf_counter()
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    if seedlib_digest() != reference["seedlib_sha256"]:
        print("error: perfbench/seedlib differs from the seed library it was pinned from",
              file=sys.stderr)
        return 2
    pins = reference["pins"]
    seed_answers = frozenset(reference["seed_answers"][args.workload])
    job_s = reference["seed_job_s"][args.workload]
    pot_list, jobs = corpus.build(args.workload, args.seed)
    pots = {p.name: p for p in pot_list}
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    try:
        setup_ratios = [] if args.trace else [
            setup_pair(args.workload, args.seed, work / "setup", start + KILL_AFTER_S)
            for _ in range(SETUP_PROBES)]
        passes = []
        traced = None
        while True:
            passes.append(run_pass(args.workload, args.seed, work / f"pass{len(passes)}",
                                   start, pots, jobs, pins, trace=False,
                                   seed_answers=frozenset() if args.trace else seed_answers,
                                   job_s=job_s))
            if args.trace or perf_counter() - start >= args.seconds:
                break
        if args.trace:
            traced = run_pass(args.workload, args.seed, work / "traced",
                              start, pots, jobs, pins, trace=True, seed_answers=frozenset(),
                              job_s=job_s)

        checked = passes + ([traced] if traced else [])
        records = [r for p in checked for r in p.records]
        wrong = [r for r in records if r["status"] == check.WRONG]
        n_failed = sum(r["status"] != check.ANSWERED for r in records)

        print(f"workload {args.workload}, seed {args.seed}: {len(passes)} pass(es) "
              f"of {len(jobs)} jobs{', plus one traced pass' if traced else ''}")
        for r in records:
            if r["status"] != check.ANSWERED:
                print(f"  {r['status']}: {r['job'].command} {r['job'].target}: {r['reason']}")
        if traced is None:
            e2e = end_to_end(passes, statistics.median(setup_ratios)
                             * reference["seed_setup_s"][args.workload])
            units = dict(END_TO_END)
            for name, _ in END_TO_END:
                print(f"{name}: {e2e[name]:.6g} {units[name]}")
            print(f"  (speed_vs_seed over {e2e['paired_jobs']} jobs both libraries answer)")
            print(f"  (setup_s: {statistics.median(setup_ratios):.4f} x the seed library's "
                  f"{reference['seed_setup_s'][args.workload]:.4f} s at pin time)")
            print(f"answered_per_min: {e2e['answered_per_min']:.6g} jobs/min  "
                  "[follows the host's speed; not gated]")
            print(f"setup_wall_s: {statistics.median(p.setup_s for p in passes):.6g} s  "
                  "[follows the host's speed; not gated]")
            for line in command_lines([r for p in passes for r in p.records]):
                print(line)
            metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
        else:
            layer = per_layer(traced, passes[0])
            for name, (value, unit) in layer.items():
                print(f"{name}: {value:.6g} {unit}")
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in layer.items()}
        print(json.dumps({"correct": not wrong, "attempted": len(records),
                          "failed": n_failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
