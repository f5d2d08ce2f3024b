"""One benchmark client: a fresh process that sets up, then runs a
workload's jobs as in-process calls to `shiftopt.cli.main(argv)`, one at
a time, when the parent asks (a closed loop with one client, no threads).

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR
        [--lib DIR] [--cpu N] [--setup-only] [--trace]

Set-up imports shiftopt from --lib (the checkout's src/ by default; the
seed library's copy for the yardstick), writes the corpus and checks the
reference seed's corpus digest.  The worker then prints {"ready": T,
"cpu": C}, T being time.perf_counter() (system-wide on Linux, so the
parent can subtract its spawn time) and C the process's CPU time so far.  After that, each line the parent writes to
stdin is a job index: the worker runs that job with --out
DIR/out/<index> and answers with one line {"index", "rc", "seconds",
"cpu_seconds"}: the job's wall time and this process's CPU time.
An empty line or end of input ends the loop; the worker writes
spans.jsonl when traced and prints {"maxrss_kb": N} last.  Answers are
checked by the parent, not here.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def setup(workload: str, seed: int, workdir: Path, lib: Path = SRC):
    sys.path.insert(0, str(lib))
    import shiftopt
    import shiftopt.cli
    if not Path(shiftopt.__file__).resolve().is_relative_to(lib.resolve()):
        raise SystemExit(f"shiftopt was imported from {shiftopt.__file__}, not {lib}")

    import corpus
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    pinned = reference["corpus_digest"][workload]
    got = corpus.digest(*corpus.build(workload, reference["reference_seed"]))
    if got != pinned:
        raise SystemExit(f"corpus digest {got} != pinned {pinned}: the generator changed")
    pots, jobs = corpus.build(workload, seed)
    docs = workdir / "corpus"
    docs.mkdir(parents=True, exist_ok=True)
    for p in pots:
        (docs / f"{p.name}.pot").write_text(corpus.document(p), encoding="utf-8")
    return shiftopt.cli, jobs, docs


def run_job(main, argv: list[str]) -> tuple[object, float, str, str]:
    """(exit code or exception name, wall seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:     # a traceback is a failed job, not a dead client
            rc = type(exc).__name__
            traceback.print_exc(limit=3)
    return rc, perf_counter() - start, out.getvalue(), err.getvalue()


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--lib", type=Path, default=SRC,
                    help="directory holding the shiftopt package to run")
    ap.add_argument("--cpu", type=int, help="run on this CPU only")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    cli, jobs, docs = setup(args.workload, args.seed, args.workdir, args.lib)
    print(json.dumps({"ready": perf_counter(), "cpu": process_time()}), flush=True)
    if args.setup_only:
        return
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    for line in sys.stdin:
        if not line.strip():
            break
        i = int(line)
        job = jobs[i]
        out = args.workdir / "out" / f"{i:04d}"
        argv = [job.command]
        if job.command != "suite":
            argv.append(str(docs / f"{job.target}.pot"))
        argv += [*job.args, "--out", str(out)]
        root = tracer.enter(f"cli.{job.command}") if tracer else None
        cpu = process_time()
        rc, seconds, stdout, stderr = run_job(cli.main, argv)
        cpu = process_time() - cpu
        if tracer:
            tracer.exit(root)
        out.mkdir(parents=True, exist_ok=True)
        (out / "stdout.txt").write_text(stdout, encoding="utf-8")
        (out / "stderr.txt").write_text(stderr, encoding="utf-8")
        print(json.dumps({"index": i, "rc": rc, "seconds": seconds, "cpu_seconds": cpu}),
              flush=True)
    if tracer:
        tracer.write(args.workdir / "spans.jsonl")
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"maxrss_kb": maxrss}), flush=True)


if __name__ == "__main__":
    main()
