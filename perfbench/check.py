"""Answer checker derived from the CLI contract, not from seed output.

A job is *answered* when its outcome is what the contract promises for
that input:

  analyze, no strict twist   exit 3 at the twist step, with a correct b_table.csv
  analyze, strict twist      exit 0; analysis.json, intervals.txt and
                             transport_plan.csv match the reference
  analyze/verify, constant   exit 3 (maximizer not unique)
  verify                     exit 0 with every identity line ok
  scan                       exit 0; pressure/beta >= m and within 1e-9
                             (relative) of the reference
  suite                      suite.csv equals the reference

Strict twist cannot hold from depth 3 up (the deepest w-symbol meets only
x0, so the first cross-difference is 0 >= 0); at depth 2 the kernel is
W(w, x) = A(w0 x0) - A(w0 0), so it holds iff A(00) + A(11) < A(01) + A(10).

Anything else is *failed*.  A failed job is also *wrong* when the
program claimed something false: exit 4, a success the contract rules
out, or an artifact that breaks an exact property or a pinned
reference.  Refusals (exit 2/3) and tracebacks are failed, not wrong.

References pinned at the seed commit are used where it answers.  Where
it does not, the artifact's own exact properties stand in: every b-row
is >= 0 and holds a zero, and the planted m is matched.  summary.txt and
stdout prose are never compared, only the `m = <rational>` value.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from corpus import DEFAULT_BETAS, Job, Potential, words

ANSWERED, FAILED, WRONG = "answered", "failed", "wrong"
SCAN_RTOL = 1e-9
_M_VALUE = re.compile(r"\bm = (-?\d+(?:/\d+)?)\b")


@dataclass(frozen=True)
class Verdict:
    status: str
    reason: str = ""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def pin_key(job: Job, name: str) -> str:
    return f"{job.command}:{job.target}:{name}"


def _rotations(word) -> set[tuple]:
    return {tuple(word[i:] + word[:i]) for i in range(len(word))}


def _stated_mean(text: str) -> Fraction | None:
    found = _M_VALUE.search(text)
    return Fraction(found.group(1)) if found else None


def read_b_table(path: Path, depth: int) -> list[list[Fraction]]:
    """Parse b_table.csv, checking its node labels; raises ValueError."""
    lines = path.read_text(encoding="utf-8").splitlines()
    labels = ["".join(map(str, w)) or "-" for w in words(depth - 1)]
    if lines[0].split(",") != ["x\\w"] + labels or len(lines) != len(labels) + 1:
        raise ValueError("b_table.csv header or row count is wrong")
    rows = []
    for label, line in zip(labels, lines[1:]):
        cells = line.split(",")
        if cells[0] != label or len(cells) != len(labels) + 1:
            raise ValueError(f"b_table.csv row {label} is malformed")
        rows.append([Fraction(c) for c in cells[1:]])
    return rows


def b_table_fault(path: Path, depth: int) -> str | None:
    """Exact properties of any b-table: every row >= 0 with a zero."""
    try:
        rows = read_b_table(path, depth)
    except (OSError, ValueError, ZeroDivisionError) as exc:
        return f"unreadable b_table.csv: {exc}"
    for i, row in enumerate(rows):
        if min(row) != 0:
            return f"b-row {i} has minimum {min(row)}, not 0"
    return None


@functools.lru_cache(maxsize=None)
def pressure_reference(pot: Potential, beta: float) -> float:
    """P(beta)/beta from the dense transfer matrix exp(beta(A - m)),
    whose Perron root is computed by LAPACK, not by the library.
    Cached, since every sample of a scan job is checked."""
    n = pot.nodes
    m = float(pot.mean) if pot.mean is not None else max(map(float, pot.values))
    mat = np.zeros((n, n))
    for e, v in enumerate(pot.values):
        mat[e % n, e // 2] += math.exp(beta * (float(v) - m))
    rho = float(np.max(np.abs(np.linalg.eigvals(mat))))
    return m + math.log(rho) / beta


def read_scan(path: Path) -> list[tuple[float, float]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].split(",")[:2] != ["beta", "pressure_over_beta"]:
        raise ValueError("scan.csv header is wrong")
    return [(float(c[0]), float(c[1])) for c in (ln.split(",") for ln in lines[1:])]


def scan_fault(path: Path, pot: Potential, pinned: list[float] | None) -> str | None:
    try:
        rows = read_scan(path)
    except (OSError, ValueError, IndexError) as exc:
        return f"unreadable scan.csv: {exc}"
    if [b for b, _ in rows] != [float(b) for b in DEFAULT_BETAS]:
        return "scan.csv does not hold the default beta ladder"
    m = float(pot.mean) if pot.mean is not None else 0.0
    for i, (beta, p_over_b) in enumerate(rows):
        if pot.mean is None:                 # the constant-zero table: P = log 2
            ref = math.log(2) / beta
        elif pinned is not None:
            ref = pinned[i]
        else:
            ref = pressure_reference(pot, beta)
        if p_over_b < m - 1e-12 * max(1.0, abs(m)):
            return f"pressure/beta {p_over_b!r} below m = {m!r} at beta {beta:g}"
        if not math.isclose(p_over_b, ref, rel_tol=SCAN_RTOL, abs_tol=1e-12):
            return f"pressure/beta {p_over_b!r} != reference {ref!r} at beta {beta:g}"
    return None


def strict_twist_possible(pot: Potential) -> bool:
    if pot.depth != 2:
        return False
    a00, a01, a10, a11 = pot.values
    return a00 + a11 < a01 + a10


def _pinned_fault(job: Job, out: Path, name: str, pins: dict) -> str | None:
    want = pins.get(pin_key(job, name))
    if want is not None and sha256(out / name) != want:
        return f"{name} differs from the reference pinned at the seed commit"
    return None


def check(job: Job, pot: Potential | None, rc, out: Path, stdout: str,
          pins: dict) -> Verdict:
    """Classify one job from its exit code (or exception name), its
    artifacts in `out` and the `m = ...` value in its stdout."""
    if rc == 4:
        return Verdict(WRONG, "exit 4: invariant violated on a sound input")
    if not isinstance(rc, int):
        return Verdict(FAILED, f"raised {rc}")

    if job.command == "suite":
        if rc != 0:
            return Verdict(FAILED, f"exit {rc}")
        return Verdict(WRONG, fault) if (fault := _pinned_fault(
            job, out, "suite.csv", pins)) else Verdict(ANSWERED)

    unique = pot.mean is not None
    if not unique and job.command in ("analyze", "verify"):
        if rc == 3:
            return Verdict(ANSWERED)
        return Verdict(WRONG if rc == 0 else FAILED,
                       f"exit {rc} on a table whose maximizer is not unique")

    if job.command == "scan":
        if rc != 0:
            return Verdict(FAILED, f"exit {rc}")
        fault = scan_fault(out / "scan.csv", pot,
                           pins.get(pin_key(job, "pressure_over_beta")))
        return Verdict(WRONG, fault) if fault else Verdict(ANSWERED)

    if job.command == "verify":
        if rc != 0:
            return Verdict(FAILED, f"exit {rc}")
        try:
            text = (out / "verify.txt").read_text(encoding="utf-8")
        except OSError:
            return Verdict(WRONG, "exit 0 without verify.txt")
        status = [ln.strip()[:6] for ln in text.splitlines() if ln.strip().startswith("[")]
        if any(s not in ("[ok ] ", "[ -- ]") for s in status) or \
                sum(s == "[ok ] " for s in status) < 8:
            return Verdict(WRONG, "an identity line is not ok")
        if _stated_mean(text) != pot.mean:
            return Verdict(WRONG, f"verify states m = {_stated_mean(text)}, "
                                  f"planted {pot.mean}")
        return Verdict(ANSWERED)

    # analyze on a unique maximizer
    stated = _stated_mean(stdout)
    if stated is not None and stated != pot.mean:
        return Verdict(WRONG, f"analyze states m = {stated}, planted {pot.mean}")
    if not strict_twist_possible(pot):
        if rc == 0:
            return Verdict(WRONG, "exit 0 although strict twist fails")
        if rc != 3 or not (out / "b_table.csv").exists() or (out / "intervals.txt").exists():
            return Verdict(FAILED, f"exit {rc} before the twist step")
        fault = b_table_fault(out / "b_table.csv", pot.depth) \
            or _pinned_fault(job, out, "b_table.csv", pins)
        if fault:
            return Verdict(WRONG, fault)
        if stated is None:
            return Verdict(FAILED, "no m = value in the output")
        return Verdict(ANSWERED)
    if rc != 0:
        return Verdict(FAILED, f"exit {rc}")
    try:
        doc = json.loads((out / "analysis.json").read_text(encoding="utf-8"))
        for name in ("analysis.json", "intervals.txt", "transport_plan.csv"):
            if fault := _pinned_fault(job, out, name, pins):
                return Verdict(WRONG, fault)
    except (OSError, ValueError) as exc:
        return Verdict(WRONG, f"exit 0 with a missing artifact: {exc}")
    if Fraction(doc["mean"]) != pot.mean or \
            tuple(map(int, doc["orbit_word"])) not in _rotations(pot.word):
        return Verdict(WRONG, "analysis.json misses the planted orbit")
    return Verdict(ANSWERED)

