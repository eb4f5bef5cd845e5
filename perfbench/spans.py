"""Span recorder for the traced run.

The engine has no instrumentation of its own, so the traced run wraps the
public functions of each module from here: every call becomes a span with a
name, start, end and parent. ``install`` swaps the wrappers in everywhere the
function object is bound (module attributes, names imported into other
``skillmine`` modules, class attributes) and ``uninstall`` puts the originals
back, so traced and untraced rounds can alternate in one process.

A target that no longer exists raises at install time, so a rename in the
engine shows up as a broken trace rather than as a silent zero.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

# (span name, module, attribute path, workload that must hit it). The layer
# is the part of the span name before the dot. A target no workload reaches
# carries None and is listed in the README.
TARGETS = [
    ("harness.subprocess", "subprocess", "run", "mine-fresh"),
    ("harness.execution", "skillmine.harness", "ValidationHarness.execution_test", "mine-fresh"),
    ("harness.synthetic", "skillmine.harness", "ValidationHarness.synthetic_test", "mine-fresh"),
    ("harness.system", "skillmine.harness", "ValidationHarness.system_test", "mine-fresh"),
    ("harness.benchmark", "skillmine.harness", "ValidationHarness.benchmark_compare", "mine-fresh"),
    ("harness.repair", "skillmine.harness", "ValidationHarness.repair_loop", "mine-fresh"),
    ("harness.optimize", "skillmine.harness", "ValidationHarness.optimize_loop", "mine-fresh"),
    ("registry.load", "skillmine.registry", "open_registry", "browse-grown"),
    ("registry.load", "skillmine.registry", "Registry.load_tree_snapshot", "browse-grown"),
    ("registry.append", "skillmine.registry", "Registry.upsert_skill", "mine-grown"),
    ("registry.append", "skillmine.registry", "Registry.record_resource", "mine-grown"),
    ("registry.append", "skillmine.registry", "Registry.transition_skill", "mine-grown"),
    ("registry.append", "skillmine.registry", "Registry.relocate_skill", None),
    ("registry.append", "skillmine.registry", "Registry.set_novelty_decision", "mine-grown"),
    ("registry.append", "skillmine.registry", "Registry.set_verification", "mine-grown"),
    ("registry.integrity", "skillmine.registry", "Registry.integrity_check", "mine-grown"),
    ("registry.compact", "skillmine.registry", "Registry.compact_index", "mine-grown"),
    ("registry.save_tree", "skillmine.registry", "Registry.save_tree", "mine-grown"),
    ("novelty.search", "skillmine.novelty", "search_catalogs", "mine-grown"),
    ("novelty.local_catalog", "skillmine.novelty", "local_catalog_entries", "mine-grown"),
    ("novelty.apply", "skillmine.novelty", "apply_verdict", "mine-grown"),
    ("novelty.catalog_load", "skillmine.novelty", "load_catalog_snapshot", "browse-grown"),
    ("workers.checkpoint", "skillmine.workers", "checkpoint_campaign", "mine-grown"),
    ("workers.state_digest", "skillmine.workers", "state_digest", "browse-grown"),
    ("site.export", "skillmine.site", "export_site", "browse-grown"),
    ("contracts.compile", "skillmine.contracts", "compile_package", "mine-fresh"),
    ("contracts.lint", "skillmine.contracts", "lint_package", "mine-fresh"),
    ("contracts.load_contract", "skillmine.contracts", "load_contract", "mine-grown"),
    ("tree.prioritize", "skillmine.tree", "prioritize_branches", None),
    ("tree.prioritize", "skillmine.tree", "score_leaf", "mine-fresh"),
    ("tree.ops", "skillmine.tree", "insert_leaf", "mine-fresh"),
    ("tree.ops", "skillmine.tree", "merge_leaves", None),
    ("tree.ops", "skillmine.tree", "prune_leaf", None),
    ("tree.ops", "skillmine.tree", "split_branch", None),
    ("tree.ops", "skillmine.tree", "link_resource", "mine-fresh"),
    ("tree.ops", "skillmine.tree", "link_skill", "mine-fresh"),
    ("tree.ops", "skillmine.tree", "record_verification", "mine-fresh"),
    ("tree.ops", "skillmine.tree", "set_node_status", None),
    ("tree.invariants", "skillmine.tree", "check_invariants", "mine-fresh"),
    ("pipeline.stage", "skillmine.pipeline", "Pipeline.run_stage", "mine-fresh"),
    ("pipeline.design", "skillmine.pipeline", "Pipeline.design_skill", "mine-grown"),
    ("gateway.call", "skillmine.gateway", "Gateway.call", "mine-fresh"),
    ("io.fsync", "os", "fsync", "mine-fresh"),
]

# Stage spans report inclusive time (the stage view); everything else self time.
STAGES = ("tree_check", "resource_search", "skill_build", "skill_test", "refresh")
INCLUSIVE = {f"pipeline.{s}" for s in STAGES} | {"pipeline.design"}
# Registry mutators: append_n and bytes_per_append count outermost calls only.
APPEND = "registry.append"


def read_io() -> tuple[int, int]:
    """(rchar, wchar) of this process; zeros where /proc/self/io is absent."""
    try:
        with open("/proc/self/io", "rb") as handle:
            fields = dict(line.split(b":") for line in handle.read().splitlines())
        return int(fields[b"rchar"]), int(fields[b"wchar"])
    except (OSError, KeyError, ValueError):
        return 0, 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, start, end, attrs]
        self.hits: dict[str, int] = {}  # "module.attr" -> calls, for the smoke test
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------------

    def _wrap(self, name: str, target: str, fn):
        tracer = self
        clock = time.perf_counter
        hits = self.hits
        hits.setdefault(target, 0)

        def wrapper(*args, **kwargs):
            hits[target] += 1
            attrs = None
            span_name = name
            if name == "pipeline.stage":
                span_name = f"pipeline.{args[1] if len(args) > 1 else kwargs['stage']}"
            elif name == "gateway.call":
                attrs = {"stage": args[1] if len(args) > 1 else kwargs["stage"]}
            elif name == "novelty.search":
                catalogs = args[0] if args else kwargs["catalogs"]
                attrs = {"entries": sum(len(v) for v in catalogs.values())}
            elif name == "harness.execution":
                attrs = {"skill": args[2] if len(args) > 2 else kwargs["skill_id"]}
            stack = tracer._stack
            parent = stack[-1] if stack else None
            outer_append = name == APPEND and (
                parent is None or tracer.spans[parent][2] != APPEND
            )
            if outer_append:
                wchar0 = read_io()[1]
            record = [len(tracer.spans), parent, span_name, clock(), 0.0, attrs]
            tracer.spans.append(record)
            stack.append(record[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
            if name == "harness.repair":
                record[5] = {"fix_rounds": result.attempts - 1}
            if outer_append:
                record[5] = {"outer": 1, "bytes": read_io()[1] - wchar0}
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------------

    def install(self) -> None:
        import importlib

        for name, module_name, attr, _workload in TARGETS:
            module = importlib.import_module(module_name)
            owner = module
            parts = attr.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            if not hasattr(owner, parts[-1]):
                raise AttributeError(f"trace target {module_name}.{attr} no longer exists")
            original = getattr(owner, parts[-1])
            wrapped = self._wrap(name, f"{module_name}.{attr}", original)
            self._set(owner, parts[-1], wrapped)
            if len(parts) == 1:
                # Names imported into other engine modules are separate bindings.
                for other_name, other in list(sys.modules.items()):
                    if other_name.startswith("skillmine") and other is not module:
                        for key, value in list(vars(other).items()):
                            if value is original:
                                self._set(other, key, wrapped)

    def _set(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- summaries -------------------------------------------------------------------

    def summarize(self, first: int = 0) -> dict:
        """Per-layer metrics over spans[first:] (one traced round)."""
        spans = self.spans[first:]
        child_time: dict[int, float] = {}
        for sid, parent, _name, start, end, _attrs in spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        self_s: dict[str, float] = {}
        incl_s: dict[str, float] = {}
        count: dict[str, int] = {}
        for sid, _parent, name, start, end, _attrs in spans:
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time.get(sid, 0.0)
            incl_s[name] = incl_s.get(name, 0.0) + (end - start)
            count[name] = count.get(name, 0) + 1

        def attr_sum(name: str, key: str) -> float:
            return sum((s[5] or {}).get(key, 0) for s in spans if s[2] == name)

        def secs(name: str) -> float:
            return (incl_s if name in INCLUSIVE else self_s).get(name, 0.0)

        tested = {s[5]["skill"] for s in spans if s[2] == "harness.execution"}
        appends = attr_sum(APPEND, "outer")
        searches = count.get("novelty.search", 0)
        metrics = {
            "harness.subprocess_n": count.get("harness.subprocess", 0),
            "harness.repair_attempts_n": attr_sum("harness.repair", "fix_rounds"),
            "harness.spawns_per_skill": count.get("harness.subprocess", 0) / len(tested) if tested else 0.0,
            "registry.append_n": appends,
            "registry.bytes_per_append": attr_sum(APPEND, "bytes") / appends if appends else 0.0,
            "registry.integrity_n": count.get("registry.integrity", 0),
            "novelty.search_n": searches,
            "novelty.entries_classified": attr_sum("novelty.search", "entries"),
            "novelty.entries_per_search": attr_sum("novelty.search", "entries") / searches if searches else 0.0,
            "workers.state_digest_n": count.get("workers.state_digest", 0),
            "contracts.load_contract_n": count.get("contracts.load_contract", 0),
            "gateway.call_n": count.get("gateway.call", 0),
            "io.fsync_n": count.get("io.fsync", 0),
        }
        for name in ("harness.subprocess", "harness.execution", "harness.synthetic", "harness.system",
                     "harness.benchmark", "harness.repair", "harness.optimize", "registry.load",
                     "registry.append", "registry.integrity", "registry.compact", "registry.save_tree",
                     "novelty.search", "novelty.local_catalog", "novelty.apply", "novelty.catalog_load",
                     "workers.checkpoint", "workers.state_digest", "site.export", "contracts.compile",
                     "contracts.lint", "contracts.load_contract", "tree.prioritize", "tree.ops",
                     "tree.invariants", "gateway.call", *sorted(INCLUSIVE)):
            metrics[f"{name}_s"] = secs(name)
        layers: dict[str, float] = {}
        for name, value in self_s.items():
            if name not in INCLUSIVE:
                layer = name.split(".")[0]
                layers[layer] = layers.get(layer, 0.0) + value
        return {"metrics": metrics, "layer_self_s": layers}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, start, end, attrs in self.spans:
                handle.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                         "start": start, "end": end, "attrs": attrs}) + "\n")


def median_metrics(rounds: list[dict]) -> dict:
    """Per-name median over rounds; a name missing from a round counts as zero."""
    names = sorted({name for r in rounds for name in r})
    return {name: statistics.median(r.get(name, 0.0) for r in rounds) for name in names}

