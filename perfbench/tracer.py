"""Layer tracing from outside the program.

`Tracer.install()` replaces chainplan's public layer functions with timing
wrappers at every place they are bound: the defining module, every module
that imported the name (cli, simulate, planner, oracle, ...), and module-level
dispatch tables such as `simulate._PLANNERS`. `uninstall()` puts the
originals back, so timed and traced rounds can alternate in one process.

Spans of the coarse layers (one per call of cli.main, load_scenario, plan_*,
verify_plan, run_trace, ...) are kept in memory with name, start, end, parent
and op id and written out at the end of the run. The fine, per-step calls
(utilization, count_crossings, estimate_latency, max_chain_throughput,
with_placement) run up to millions of times per round, so they are summed
into per-name call counts and times instead of stored one by one; their time
still counts as child time of the enclosing span. Self time is a span's
duration minus the time of the calls made inside it.

There is one caller and one thread, so no span ever waits for another:
waiting time is zero by construction.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter
from types import ModuleType

# (layer name, module, attribute, kept as individual spans?)
LAYERS = (
    ("cli.main", "cli", "main", True),
    ("scenario_io.load_scenario", "scenario_io", "load_scenario", True),
    ("scenario_io.load_trace", "scenario_io", "load_trace", True),
    ("model.validate", "model", "validate", True),
    ("planner.plan", "planner", "plan_pam", True),
    ("planner.plan", "planner", "plan_naive", True),
    ("oracle.verify_plan", "oracle", "verify_plan", True),
    ("oracle.enumerate_placements", "oracle", "enumerate_placements", True),
    ("simulate.run_trace", "simulate", "run_trace", True),
    ("simulate.compare", "simulate", "compare", True),
    ("reports.emit_report", "reports", "emit_report", True),
    ("reports.timeline_csv", "reports", "timeline_to_csv", True),
    ("reports.timeline_svg", "reports", "timeline_svg", True),
    ("reports.comparison_svg", "reports", "comparison_svg", True),
    ("resources.utilization", "resources", "utilization", False),
    ("resources.max_chain_throughput", "resources", "max_chain_throughput", False),
    ("perf.count_crossings", "perf", "count_crossings", False),
    ("perf.estimate_latency", "perf", "estimate_latency", False),
)
CLOSURE = ("oracle.border_peel_closure", "oracle", "border_peel_closure")


class Tracer:
    def __init__(self, package: ModuleType):
        self.package = package
        self.modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == package.__name__ or name.startswith(package.__name__ + ".")
        }
        self.spans: list[tuple | None] = []  # (name, start, end, parent, op, self_s)
        # Open frames: [start, child_s, own span index or -1, nearest kept span].
        self.stack: list[list] = []
        self.stats: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.op = -1
        self._patches: list[tuple[object, str, object, object]] = []
        self._build()

    # -- recording -----------------------------------------------------------

    def _enter(self, keep: bool) -> list:
        parent = self.stack[-1][3] if self.stack else -1
        index = -1
        if keep:
            index = len(self.spans)
            self.spans.append(None)
        frame = [0.0, 0.0, index, index if keep else parent]
        self.stack.append(frame)
        frame[0] = time.perf_counter()
        return frame

    def _exit(self, name: str, frame: list) -> None:
        end = time.perf_counter()
        self.stack.pop()
        start, child, index, _ = frame
        duration = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child
        if self.stack:
            self.stack[-1][1] += duration
        if index >= 0:
            parent = self.stack[-1][3] if self.stack else -1
            self.spans[index] = (name, start, end, parent, self.op, duration - child)

    def _wrap(self, name: str, keep: bool, fn, after=None):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter(keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, frame)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_closure(self, fn):
        tracer = self
        name = CLOSURE[0]

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = tracer._enter(False)
                try:
                    state = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._exit(name, frame)
                tracer.counts["oracle.closure_states"] += 1
                yield state

        return traced

    # -- counts taken from results ---------------------------------------------

    def _after_plan(self, args, plan) -> None:
        c = self.counts
        c["planner.steps"] += len(plan.steps)
        c["planner.rejected"] += len(plan.rejected_candidates)
        c["planner.not_overloaded"] += plan.outcome.value == "NotOverloaded"

    def _after_verify(self, args, report) -> None:
        for assertion in report.assertions:
            if not assertion.passed:
                self.counts[f"oracle.rejects.{assertion.name}"] += 1

    def _after_enumerate(self, args, records) -> None:
        chain = args[0]
        on_nic = sum(1 for v in chain.vnfs if v.placement.value == "SmartNIC")
        self.counts["oracle.placements_examined"] += len(records)
        self.counts["oracle.reachable_subsets"] += 1 << on_nic

    def _after_load(self, args, result) -> None:
        self.counts["scenario_io.bytes_parsed"] += os.path.getsize(args[0])

    def _after_run_trace(self, args, records) -> None:
        self.counts["simulate.points"] += len(args[1])

    def _after_report(self, args, text) -> None:
        self.counts["reports.bytes"] += len(text.encode())

    # -- patching ----------------------------------------------------------------

    def _build(self) -> None:
        after = {
            "plan_pam": self._after_plan,
            "plan_naive": self._after_plan,
            "verify_plan": self._after_verify,
            "enumerate_placements": self._after_enumerate,
            "load_scenario": self._after_load,
            "load_trace": self._after_load,
            "run_trace": self._after_run_trace,
            "timeline_to_csv": self._after_report,
            "timeline_svg": self._after_report,
            "comparison_svg": self._after_report,
        }
        replacements: dict[int, object] = {}
        pkg = self.package.__name__
        for name, module, attr, keep in LAYERS:
            fn = getattr(self.modules[f"{pkg}.{module}"], attr)
            replacements[id(fn)] = self._wrap(name, keep, fn, after.get(attr))
        closure = getattr(self.modules[f"{pkg}.{CLOSURE[1]}"], CLOSURE[2])
        replacements[id(closure)] = self._wrap_closure(closure)

        # Every binding of an original, including names imported into other
        # modules and values of module-level dicts (simulate._PLANNERS).
        for mod in self.modules.values():
            for attr, value in vars(mod).items():
                if id(value) in replacements:
                    self._patches.append((mod, attr, value, replacements[id(value)]))
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in value.items():
                        if id(item) in replacements:
                            self._patches.append((value, key, item, replacements[id(item)]))

        chain_cls = self.modules[f"{pkg}.model"].ServiceChain
        original = chain_cls.with_placement

        def with_placement(chain, index, placement):
            self.counts["model.with_placement"] += 1
            return original(chain, index, placement)

        self._patches.append((chain_cls, "with_placement", original, with_placement))

    def install(self) -> None:
        for target, key, _, new in self._patches:
            _set(target, key, new)

    def uninstall(self) -> None:
        for target, key, old, _ in self._patches:
            _set(target, key, old)

    def write_spans(self, path: str) -> int:
        with open(path, "w") as f:
            for span in self.spans:
                name, start, end, parent, op, self_s = span
                f.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                    "op": op, "self_s": self_s}) + "\n")
        return len(self.spans)


def _set(target, key, value) -> None:
    if isinstance(target, dict):
        target[key] = value
    else:
        setattr(target, key, value)
