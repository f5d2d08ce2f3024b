"""Outside-in layer tracer: spans around the library's public functions.

Each public function of a layer module is replaced, in every shiftopt
module namespace that binds it, by a wrapper that records a span (id,
parent id, name, start, end) and, for a few functions, counts read off
the return value.  Calls the library makes to itself are caught too,
because `duality.max_mean_cycle` is rebound as well as
`maxplus.max_mean_cycle`.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("potentials", "graph", "maxplus", "duality", "twist", "transport",
          "thermo", "genericity")


def _counts(name: str, args: tuple, kwargs: dict, result) -> dict | None:
    """Work counts carried by return values (and the β list of a scan)."""
    if name == "duality.fundamental_relation_check":
        return {"fr_pairs_checked": result.pairs_checked}
    if name == "duality.build_duality_report":
        return {"b_table_entries": sum(len(row) for row in result.b_table)}
    if name == "thermo.leading_eigs":
        return {"perron_steps": result.iterations}
    if name == "thermo.beta_scan":
        return {"beta_points": len(args[1] if len(args) > 1 else kwargs["betas"])}
    if name == "thermo.verify_kernel_identity":
        return {"beta_points": 1}
    if name == "twist.certify_twist":
        return {"checked_pairs": result.checked_pairs, "certified": int(result.holds)}
    if name == "transport.solve_transport":
        return {"atoms": len(result.atoms_x), "lp_only": int(result.lp_only)}
    if name == "genericity.sample_generic_suite":
        return {"samples": len(result.rows)}
    return None


class Tracer:
    """Installs the wrappers on creation; one tracer per process."""

    def __init__(self):
        self.spans: list[tuple] = []       # (id, parent, name, start, end, counts)
        self._stack: list[int] = []
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"shiftopt.{layer}")
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrapped[fn] = self._wrap(f"{layer}.{name}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname == "shiftopt" or modname.startswith("shiftopt."):
                for name, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        setattr(mod, name, wrapped[obj])

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.enter(name)
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(sid)
            counts = _counts(name, args, kwargs, result)
            if counts:
                self.spans[sid] = self.spans[sid][:5] + (counts,)
            return result
        return traced

    def enter(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        self.spans.append((sid, parent, name, perf_counter(), None, None))
        return sid

    def exit(self, sid: int) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans[sid] = self.spans[sid][:4] + (end, None)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
