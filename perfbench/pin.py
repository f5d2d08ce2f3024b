"""Write reference.json from the seed library (seedlib/, a verbatim copy
of src/shiftopt at the commit that defined the benchmark): the corpus
digests at the reference seed, the references for every seed-independent
job it answers, the jobs it answers at the reference seed, which run.py
also runs on the yardstick, each job's time there, by which run.py
shares the jobs between its lanes, the seed library's set-up time per workload
(the median of SETUP_RUNS set-up-only workers; setup_s is reported in
units of it), and a digest of seedlib/ itself.

    python3 perfbench/pin.py

The program is checked against these pins.  Pinning from the seed
library, never from src/, keeps a changed answer from being pinned.
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "seedlib"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
from worker import run_job  # noqa: E402

REFERENCE_SEED = 0
SETUP_RUNS = 7


def main() -> None:
    from shiftopt.cli import main as cli_main
    digests, pins, answers, setup, job_s = {}, {}, {}, {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for workload in corpus.WORKLOADS:
            times = []
            for _ in range(SETUP_RUNS):
                w = run.Worker(workload, REFERENCE_SEED, tmp / "setup", run.SEEDLIB,
                               run.CPUS[0], perf_counter() + 60, "--setup-only").ready()
                w.close()
                times.append(w.setup_s)
            setup[workload] = statistics.median(times)
            pots, jobs = corpus.build(workload, REFERENCE_SEED)
            digests[workload] = corpus.digest(pots, jobs)
            by_name = {p.name: p for p in pots}
            for p in pots:
                (tmp / f"{p.name}.pot").write_text(corpus.document(p), encoding="utf-8")
            answers[workload], job_s[workload] = [], {}
            for job in jobs:
                out = tmp / "out" / f"{job.command}-{job.target}"
                argv = [job.command] + ([] if job.command == "suite"
                                        else [str(tmp / f"{job.target}.pot")])
                rc, seconds, stdout, _ = run_job(cli_main, argv + [*job.args, "--out", str(out)])
                job_s[workload][f"{job.command}:{job.target}"] = seconds
                pot = by_name.get(job.target)
                if job.target.startswith("planted_"):
                    names = []                     # seed-dependent: exact properties only
                elif job.command == "suite" and rc == 0:
                    names = ["suite.csv"]
                elif job.command == "analyze" and pot.depth <= 2 and rc == 0:
                    names = ["analysis.json", "intervals.txt", "transport_plan.csv"]
                elif job.command == "analyze" and rc == 3 and (out / "b_table.csv").exists() \
                        and not (out / "intervals.txt").exists():
                    names = ["b_table.csv"]
                elif job.command == "scan" and rc == 0:
                    pins[check.pin_key(job, "pressure_over_beta")] = \
                        [p for _, p in check.read_scan(out / "scan.csv")]
                    names = []
                else:
                    names = []
                for name in names:
                    pins[check.pin_key(job, name)] = check.sha256(out / name)
                if check.check(job, pot, rc, out, stdout, pins).status == check.ANSWERED:
                    answers[workload].append(f"{job.command}:{job.target}")
    doc = {"reference_seed": REFERENCE_SEED, "corpus_digest": digests,
           "seedlib_sha256": run.seedlib_digest(), "seed_setup_s": setup,
           "seed_answers": answers, "seed_job_s": job_s, "pins": dict(sorted(pins.items()))}
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
