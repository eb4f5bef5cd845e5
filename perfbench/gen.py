"""Seeded input generator for the benchmark workloads.

Everything the engine sees in a benchmark run comes from here: the taxonomy,
the mock provider scripts with their planted outcomes, the external catalog,
the design prompts, and (for the grown workloads) a pre-grown library with a
completed campaign checkpoint. The same seed always gives the same inputs.

The pre-grown library is written straight to disk in the registry's record
format (going through the registry's mutators would cost O(n^2) appends);
``prepare`` then opens it with ``open_registry`` and requires an empty
``integrity_check`` before any timing starts. Grown inputs are cached per
seed under ``perfbench/_work/cache`` because they take seconds to write.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import shutil
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
CACHE_KEEP = 4  # cached grown input sets kept on disk (oldest evicted first)

# Sizes per scale. "full" is what BENCHMARK.json runs; "tiny" is the smoke test.
SCALES = {
    "full": {
        "fresh": {"domains": 4, "subdomains": 6, "leaves": 10, "branches": 3,
                  "focus": 3, "catalog": 200, "designs": 24, "read_passes": 24},
        "grown": {"domains": 6, "subdomains": 8, "leaves": 8, "skills": 2000,
                  "catalog": 20000, "branches": 1, "focus": 4, "designs": 6, "read_passes": 1},
    },
    "tiny": {
        "fresh": {"domains": 2, "subdomains": 2, "leaves": 4, "branches": 1,
                  "focus": 3, "catalog": 20, "designs": 2, "read_passes": 1},
        "grown": {"domains": 2, "subdomains": 3, "leaves": 4, "skills": 40,
                  "catalog": 200, "branches": 1, "focus": 4, "designs": 2, "read_passes": 1},
    },
}
# On the small fresh library a design takes ~0.1 s and a read pass ~0.1 s, so
# both are repeated until each covers a few seconds of every round: the
# machine's speed drifts, and a short timed window samples only a moment of it.

# Planted outcome per mined candidate on mine-fresh, in skill_build order for
# each focus leaf (three candidates per leaf, the engine's candidate cap).
FRESH_KINDS = ("bench_pass", "fixed", "exhausted", "ignored", "system",
               "weak_opt", "weak_review", "pass", "pass")
# Planted novelty outcome per mined candidate on mine-grown.
GROWN_KINDS = ("novel", "redundant_catalog", "merge_catalog", "merge_local")
DESIGN_KINDS = ("novel", "merge_catalog")  # alternated over the design requests

# Final (status, novelty decision) each planted kind implies.
EXPECTED = {
    "bench_pass": ("verified", "novel"),
    "pass": ("verified", "novel"),
    "fixed": ("verified", "novel"),
    "exhausted": ("removed", None),
    "ignored": ("review", None),
    "system": ("verified", "novel"),
    "weak_opt": ("verified", "novel"),
    "weak_review": ("review", "novel"),
    "novel": ("verified", "novel"),
    "redundant_catalog": ("removed", "redundant"),
    "merge_catalog": ("verified", "merge"),
    "merge_local": ("removed", "merge"),
}

# Verification records each mine-fresh kind leaves, in log order.
VERIFICATIONS = {
    "bench_pass": ["execution:pass", "benchmark:pass"],
    "pass": ["execution:pass"],
    "fixed": ["execution:fail", "execution:pass"],
    "exhausted": ["execution:fail", "execution:fail", "execution:fail"],
    "ignored": ["execution:pass"],
    "system": ["execution:pass", "system:pass"],
    "weak_opt": ["execution:pass", "benchmark:fail"],
    "weak_review": ["execution:pass", "benchmark:fail"],
}

FILLERS = ("the", "of", "and", "for", "with", "into", "from")
CATALOG_ID = "hub"


def slug(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-") or "x"


def leaf_key(path: str) -> str:
    return "--".join(slug(p) for p in path.split("/"))


def dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def record_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"


class Words:
    """Seeded pseudo-word source; every word handed out is distinct."""

    _ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
               "br", "dr", "kl", "pr", "st", "tr")
    _VOWELS = ("a", "e", "i", "o", "u", "ai", "eo")
    _CODAS = ("", "", "n", "r", "s", "l", "x")

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def word(self) -> str:
        while True:
            syllables = self.rng.randint(2, 3)
            text = "".join(
                self.rng.choice(self._ONSETS) + self.rng.choice(self._VOWELS)
                for _ in range(syllables)
            ) + self.rng.choice(self._CODAS)
            if text not in self.used:
                self.used.add(text)
                return text

    def phrase(self, n: int, pool: list[str] | None = None) -> str:
        """n content words plus two function words, so stop-word removal matters."""
        if pool is not None:
            words = self.rng.sample(pool, n)
        else:
            words = [self.word() for _ in range(n)]
        for filler in self.rng.sample(FILLERS, 2):
            words.insert(self.rng.randint(1, len(words) - 1), filler)
        return " ".join(words).capitalize()


# -- taxonomy ------------------------------------------------------------------


def make_taxonomy(words: Words, size: dict) -> tuple[str, dict]:
    root = "lab"
    lines = ["# generated benchmark taxonomy", root]
    layout: dict[str, dict[str, list[str]]] = {}
    for _ in range(size["domains"]):
        domain = words.word()
        lines.append(f"  {domain}")
        layout[domain] = {}
        for _ in range(size["subdomains"]):
            sub = words.word()
            lines.append(f"    {sub}")
            leaves = sorted(words.word() for _ in range(size["leaves"]))
            layout[domain][sub] = [f"{root}/{domain}/{sub}/{leaf}" for leaf in leaves]
            lines.extend(f"      {leaf} *" for leaf in leaves)
    return "\n".join(lines) + "\n", layout


# -- package artifacts -----------------------------------------------------------

TOOL_OK = '''import sys
from pathlib import Path

data = Path(sys.argv[1]).read_text() if len(sys.argv) > 1 else ""
Path("out").mkdir(exist_ok=True)
Path("out/result.txt").write_text(f"{tag} chars={{len(data)}} lines={{len(data.splitlines())}}\\n")
print(f"{tag} ok {{len(data)}}")
'''

TOOL_BROKEN = '''import sys

# {tag}: {note}
sys.stderr.write("{tag}: unsupported input layout\\n")
raise SystemExit({code})
'''

SMOKE = '''import os
import runpy
import sys
from pathlib import Path

assert os.environ.get("SF_NTASKS", "{ntasks}") == "{ntasks}"
Path("data").mkdir(exist_ok=True)
Path("data/sample.txt").write_text("alpha\\nbeta\\n")
sys.argv = ["scripts/tool.py", "data/sample.txt"]
runpy.run_path("scripts/tool.py", run_name="__main__")
text = Path("out/result.txt").read_text()
assert "chars=11" in text, text
print("ok")
'''

NOOP = 'print("baseline")\n'
SCORE_STRONG = 'from pathlib import Path\n\nprint("0.9" if Path("out/result.txt").exists() else "0.5")\n'


def score_fixed(value: str) -> str:
    return f'print("{value}")\n'


BENCH_CASES = dump({
    "cases": [{
        "id": "case-1",
        "with_command": "python3 scripts/tool.py case.txt",
        "baseline_command": "python3 scripts/noop.py",
        "score_command": "python3 scripts/score.py",
        "fixtures": {"case.txt": "gamma\ndelta\nepsilon\n"},
    }]
})


def contract_doc(name: str, task: str, steps: list[str], tag: str, kind: str = "pass") -> dict:
    """One skill_build candidate (or design contract) with its artifacts; the
    provenance links are filled in once the resources are known."""
    ntasks = "2" if kind == "system" else "1"
    tool = TOOL_OK.format(tag=tag)
    if kind in ("fixed", "exhausted"):
        tool = TOOL_BROKEN.format(tag=tag, note="first draft", code=3)
    inputs = [{"name": "input_file", "kind": "file", "required": True,
               "description": "plain-text records, one per line"}]
    invocation = "python3 scripts/tool.py {input_file}"
    if kind == "ignored":
        inputs.append({"name": "mode", "kind": "argument", "required": True,
                       "description": "processing mode label"})
        invocation = "python3 scripts/tool.py {input_file} {mode}"
    environment = ["python3 on PATH"]
    if kind == "system":
        environment.append("slurm scheduler with ntasks=2")
    artifacts = {
        "scripts/tool.py": tool,
        "tests/smoke.py": SMOKE.format(ntasks=ntasks),
    }
    if kind in ("bench_pass", "weak_opt", "weak_review"):
        artifacts["scripts/noop.py"] = NOOP
        artifacts["scripts/score.py"] = SCORE_STRONG if kind == "bench_pass" else score_fixed("0.5")
        artifacts["tests/benchmark.json"] = BENCH_CASES
    return {
        "name": name,
        "task_scope": task,
        "inputs": inputs,
        "outputs": [{"name": "out/result.txt", "kind": "file", "description": "record summary"}],
        "environment_assumptions": environment,
        "execution_steps": steps,
        "provenance_links": [],
        "follow_up_guidance": f"Batch large inputs for {tag}.",
        "example_invocations": [invocation],
        "test_commands": ["python3 tests/smoke.py"],
        "artifacts": artifacts,
    }


def steps_for(words: Words, pool: list[str] | None = None) -> list[str]:
    return [
        f"Run scripts/tool.py on {{input_file}} to {words.phrase(4, pool).lower()}",
        words.phrase(5, pool),
    ]


def write_script(script_dir: Path, stage: str, key: str, n: int, payload: dict) -> None:
    (script_dir / f"{stage}__{key}__{n}.json").write_text(dump(payload), "utf-8")


def catalog_entry(ref: str, task: str, scope: str, topic: str) -> dict:
    return {"entry_ref": ref, "task_description": task, "scope_summary": scope,
            "topic_path": topic, "provenance": [f"https://hub.example.org/{ref}"]}


def _rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"skillmine-bench:{seed}:{purpose}")


def _resources(words: Words, leaf: str, n: int) -> list[dict]:
    kinds = ("repository", "paper", "documentation", "notebook")
    return [
        {"kind": kinds[i % len(kinds)], "leaf_path": leaf, "authority_rank": 3 - i,
         "locator": f"https://example.org/{kinds[i % len(kinds)]}/{words.word()}-{words.word()}"}
        for i in range(n)
    ]


def _mining_scripts(words: Words, script_dir: Path, branch: str, focus: list[str],
                    candidates: dict[str, list[dict]], edits: list[dict] = ()) -> None:
    key = slug(branch)
    write_script(script_dir, "tree_check", key, 1,
                 {"focus_leaves": focus, "rationale": "uncovered leaves with no mined resources",
                  "proposed_edits": list(edits)})
    resources = []
    for leaf in focus:
        resources.extend(_resources(words, leaf, 2))
    write_script(script_dir, "resource_search", key, 1, {"resources": resources})
    for leaf in focus:
        links = [r["locator"] for r in resources if r["leaf_path"] == leaf]
        for doc in candidates[leaf]:
            doc["provenance_links"] = links
        write_script(script_dir, "skill_build", leaf_key(leaf), 1, {"candidates": candidates[leaf]})


# -- mine-fresh ----------------------------------------------------------------------


def generate_fresh(seed: int, scale: str, dest: Path) -> dict:
    size = SCALES[scale]["fresh"]
    words = Words(_rng(seed, "fresh"))
    taxonomy, layout = make_taxonomy(words, size)
    scripts = dest / "scripts"
    scripts.mkdir(parents=True)

    # Each cycle mines a different subdomain, so every focus leaf is untouched
    # and the engine's priority ranking (ties broken by path) is predictable.
    subdomains = [(d, s) for d in layout for s in layout[d]]
    branches = [f"lab/{d}/{s}" for d, s in subdomains[:: max(1, len(subdomains) // size["branches"])]]
    branches = branches[: size["branches"]]
    planted: list[dict] = []
    for branch in branches:
        _d, _s = branch.split("/")[1:]
        focus = layout[_d][_s][: size["focus"]]
        kinds = list(FRESH_KINDS)
        _rng(seed, f"kinds:{branch}").shuffle(kinds)
        candidates: dict[str, list[dict]] = {}
        for li, leaf in enumerate(focus):
            candidates[leaf] = []
            for kind in kinds[3 * li: 3 * li + 3]:
                name = f"{kind.replace('_', '-')}-{words.word()}"
                tag = words.word()
                doc = contract_doc(name, words.phrase(8), steps_for(words), tag, kind)
                candidates[leaf].append(doc)
                skill_id = f"{slug(leaf.rsplit('/', 1)[-1])}-{slug(name)}"
                planted.append({"skill_id": skill_id, "kind": kind, "leaf": leaf,
                                "task": doc["task_scope"],
                                "scope": " ".join(doc["execution_steps"])})
                _fresh_followups(scripts, skill_id, kind, tag)
        # One provider-proposed tree edit per cycle: a new leaf in the mined branch.
        edits = [{"op": "insert", "parent": branch, "label": words.word()}]
        _mining_scripts(words, scripts, branch, focus, candidates, edits)

    catalog: list[dict] = []

    def add_catalog(task: str, scope: str) -> None:
        catalog.append(catalog_entry(f"{CATALOG_ID}/{words.word()}-{len(catalog)}", task, scope,
                                     f"{words.word()}/{words.word()}"))

    # Design requests attach to leaves outside the mined branches, so they
    # leave the campaign's priority ranking alone.
    other_leaves = [leaf for d, s in subdomains if f"lab/{d}/{s}" not in branches
                    for leaf in layout[d][s]]
    designs = _designs(words, scripts, size["designs"], other_leaves, None, add_catalog)
    while len(catalog) < size["catalog"]:
        add_catalog(words.phrase(8), words.phrase(9))
    (dest / f"{CATALOG_ID}.ndjson").write_text("".join(record_line(e) for e in catalog), "utf-8")
    (dest / "taxonomy.txt").write_text(taxonomy, "utf-8")
    return {
        "workload": "mine-fresh",
        "taxonomy": str(dest / "taxonomy.txt"),
        "scripts": str(scripts),
        "catalog": str(dest / f"{CATALOG_ID}.ndjson"),
        "branches": branches,
        "planted": planted,
        "designs": designs,
        "mined_reads": _mined_reads(planted, designs),
        "catalog_entries": [[e["entry_ref"], e["task_description"], e["scope_summary"]] for e in catalog],
        "domains": size["domains"],
        "subdomains": size["domains"] * size["subdomains"],
        "leaves": size["domains"] * size["subdomains"] * size["leaves"],
        "focus_k": size["focus"],
        "read_passes": size["read_passes"],
    }


def _designs(words: Words, scripts: Path, count: int, leaves: list[str],
             pool: list[str] | None, add_catalog) -> list[dict]:
    """design_skill responses, alternating novel designs and merges into a catalog entry."""
    designs = []
    for i in range(count):
        kind = DESIGN_KINDS[i % len(DESIGN_KINDS)]
        prompt = f"{words.word()} {words.phrase(6, pool).lower()}"
        leaf = leaves[(i * 7) % len(leaves)]
        name = f"design-{words.word()}"
        task, steps = words.phrase(9, pool), steps_for(words, pool)
        if kind == "merge_catalog":
            add_catalog(task, words.phrase(9, pool))
        doc = contract_doc(name, task, steps, words.word())
        write_script(scripts, "design_skill", slug(prompt)[:48], 1, {
            "contract": doc, "resources_used": _resources(words, leaf, 2),
            "target_leaf": leaf, "test_plan": "smoke test then novelty review"})
        designs.append({"prompt": prompt, "skill_id": f"{slug(leaf.rsplit('/', 1)[-1])}-{slug(name)}",
                        "kind": kind, "leaf": leaf, "task": task, "scope": " ".join(steps)})
    return designs


def _mined_reads(planted: list[dict], designs: list[dict]) -> dict[str, str]:
    """Skills the post-campaign read pass reviews, with their expected decision."""
    novel = next(p for p in planted if p["kind"] in ("pass", "novel"))
    merged = next(d for d in designs if d["kind"] == "merge_catalog")
    return {novel["skill_id"]: "novel", merged["skill_id"]: "merge"}


def _fresh_followups(scripts: Path, skill_id: str, kind: str, tag: str) -> None:
    """Repair and optimization responses, keyed by the skill id they target."""
    if kind == "fixed":
        write_script(scripts, "layer1_fix", skill_id, 1, {
            "diagnosis": "tool exits before reading its input", "retest": True,
            "edits": [{"path": "scripts/tool.py", "content": TOOL_OK.format(tag=tag)}]})
    elif kind == "exhausted":
        for n in (1, 2):
            write_script(scripts, "layer1_fix", skill_id, n, {
                "diagnosis": "input layout unsupported", "retest": True,
                "edits": [{"path": "scripts/tool.py",
                           "content": TOOL_BROKEN.format(tag=tag, note=f"attempt {n}", code=3 + n)}]})
    elif kind == "weak_opt":
        write_script(scripts, "layer2_optimize", skill_id, 1, {
            "rebenchmark": True,
            "actions": [{"path": "scripts/score.py", "content": SCORE_STRONG}]})
    elif kind == "weak_review":
        for n, value in ((1, "0.52"), (2, "0.53")):
            write_script(scripts, "layer2_optimize", skill_id, n, {
                "rebenchmark": True,
                "actions": [{"path": "scripts/score.py", "content": score_fixed(value)}]})


# -- grown library -----------------------------------------------------------------


def _package_files(doc: dict) -> dict[str, str]:
    """The files compile_package would write for ``doc`` (without its fsyncs)."""
    inputs = [
        {"name": i["name"], "description": i["description"], "required": i["required"], "kind": i["kind"]}
        for i in doc["inputs"]
    ]
    outputs = [{"name": o["name"], "description": o["description"], "kind": o["kind"]} for o in doc["outputs"]]
    metadata = {
        "task_scope": doc["task_scope"], "inputs": inputs, "outputs": outputs,
        "environment_assumptions": doc["environment_assumptions"],
        "execution_steps": doc["execution_steps"], "provenance_links": doc["provenance_links"],
        "follow_up_guidance": doc["follow_up_guidance"],
        "example_invocations": doc["example_invocations"], "test_commands": doc["test_commands"],
    }
    spec = [f"# {doc['name']}", "", "## Scope", "", doc["task_scope"], "", "## Inputs", ""]
    spec += [f"- `{i['name']}` ({i['kind']}, required): {i['description']}" for i in inputs]
    spec += ["", "## Outputs", ""]
    spec += [f"- `{o['name']}` ({o['kind']}): {o['description']}" for o in outputs]
    spec += ["", "## Environment", ""] + [f"- {a}" for a in doc["environment_assumptions"]]
    spec += ["", "## Steps", ""] + [f"{n}. {s}" for n, s in enumerate(doc["execution_steps"], 1)]
    spec += ["", "## Provenance", ""] + ([f"- {p}" for p in doc["provenance_links"]] or ["- none"])
    spec += ["", "## Follow-up", "", doc["follow_up_guidance"], "", "## Examples", ""]
    spec += [f"- `{c}`" for c in doc["example_invocations"]]
    spec += ["", "## Tests", ""] + [f"- `{c}`" for c in doc["test_commands"]] + [""]
    files = {
        "SKILL.md": "\n".join(spec),
        "skill.json": dump(metadata),
        "PROVENANCE.md": "\n".join(["# Provenance", ""] + [f"- {p}" for p in doc["provenance_links"]]) + "\n",
    }
    files.update(doc["artifacts"])
    return files


def _write_grown_library(lib: Path, taxonomy: str, skills: list[dict]) -> None:
    """Registry logs, packages, tree snapshot and index of a grown library."""
    sys.path.insert(0, str(ROOT / "src"))
    from skillmine import tree as treemod
    from skillmine.registry import open_registry

    lib.mkdir(parents=True)
    skill_lines, resource_lines, verification_lines = [], [], []
    by_leaf: dict[str, list[dict]] = {}
    for s in skills:
        package = lib / s["package_path"]
        for rel, text in _package_files(s["doc"]).items():
            target = package / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text, "utf-8")
            if rel.startswith("scripts/"):
                target.chmod(0o755)
        record = {
            "id": s["id"], "name": s["doc"]["name"], "leaf_path": s["leaf"], "status": "untested",
            "package_path": s["package_path"], "smoke_target": "python3 tests/smoke.py",
            "provenance": sorted(r["id"] for r in s["resources"]), "created_cycle": s["cycle"],
            "updated_cycle": s["cycle"], "confidence": "standard",
        }
        skill_lines.append(record_line(record))
        skill_lines.append(record_line(dict(record, novelty_decision="novel")))
        skill_lines.append(record_line(dict(record, novelty_decision="novel", status="verified")))
        for r in s["resources"]:
            resource_lines.append(record_line({
                "id": r["id"], "kind": r["kind"], "locator": r["locator"], "leaf_paths": [s["leaf"]],
                "retrieved_cycle": s["cycle"], "authority_rank": r["authority_rank"]}))
        verification_lines.append(record_line({
            "skill_id": s["id"], "layer": "execution", "outcome": "pass", "attempt": 1,
            "report_locator": "", "cycle": s["cycle"]}))
        by_leaf.setdefault(s["leaf"], []).append(s)
    (lib / "skills.ndjson").write_text("".join(skill_lines), "utf-8")
    (lib / "resources.ndjson").write_text("".join(resource_lines), "utf-8")
    (lib / "verifications.ndjson").write_text("".join(verification_lines), "utf-8")

    tree = treemod.load_tree(taxonomy)
    nodes = dict(tree.nodes)
    for leaf, rows in by_leaf.items():
        path = treemod.parse_path(leaf)
        history = tuple((s["id"], "pass", s["cycle"]) for s in sorted(rows, key=lambda s: s["cycle"]))
        node = replace(
            nodes[path],
            linked_skills=frozenset(s["id"] for s in rows),
            linked_resources=frozenset(r["id"] for s in rows for r in s["resources"]),
            recent_verifications=history[-treemod.VERIFICATION_HISTORY_LIMIT:],
        )
        nodes[path] = replace(node, coverage_flag=treemod.compute_coverage(node))
    tree = treemod.DomainTree(nodes=nodes)
    registry = open_registry(lib)
    registry.save_tree(tree)
    registry.compact_index(tree)


def generate_grown(seed: int, scale: str, dest: Path) -> dict:
    size = SCALES[scale]["grown"]
    rng = _rng(seed, "grown")
    words = Words(rng)
    taxonomy, layout = make_taxonomy(words, size)
    scripts = dest / "scripts"
    scripts.mkdir(parents=True)
    vocabulary = [words.word() for _ in range(3000 if scale == "full" else 400)]

    subdomains = [(d, s) for d in layout for s in layout[d]]
    reserved = subdomains[-size["branches"]:]  # left empty for the mining campaign
    grown_leaves = [leaf for d, s in subdomains[: -size["branches"]] for leaf in layout[d][s]]
    branches = [f"lab/{d}/{s}" for d, s in reserved]

    def phrase(n: int) -> str:
        return words.phrase(n, vocabulary)

    catalog: list[dict] = []

    def add_catalog(task: str, scope: str) -> dict:
        entry = catalog_entry(f"{CATALOG_ID}/{words.word()}-{len(catalog)}", task, scope,
                              f"{words.word()}/{words.word()}")
        catalog.append(entry)
        return entry

    # The grown library. A few skills are planted as read targets whose
    # novelty review has a known answer.
    skills: list[dict] = []
    for i in range(size["skills"]):
        leaf = grown_leaves[i % len(grown_leaves)]
        name = f"skill-{words.word()}"
        doc = contract_doc(name, phrase(9), steps_for(words, vocabulary), words.word())
        resources = [dict(r, id=f"res-{slug(r['locator'].rsplit('/', 1)[-1])[:32]}-"
                          f"{hashlib.sha256(r['locator'].encode()).hexdigest()[:6]}")
                     for r in _resources(words, leaf, 1 + i % 2)]
        doc["provenance_links"] = [r["locator"] for r in resources]
        skill_id = f"{slug(leaf.rsplit('/', 1)[-1])}-{slug(name)}"
        skills.append({"id": skill_id, "doc": doc, "leaf": leaf, "resources": resources,
                       "cycle": 1 + i * 40 // size["skills"],
                       "package_path": f"skills/{'/'.join(slug(p) for p in leaf.split('/'))}/{skill_id}"})

    def texts(s: dict) -> tuple[str, str]:
        return s["doc"]["task_scope"], " ".join(s["doc"]["execution_steps"])

    read_targets = {}
    # redundant: a catalog entry with the same task and scope
    task, scope = texts(skills[1])
    add_catalog(task, scope)
    read_targets[skills[1]["id"]] = "redundant"
    # merge with a catalog entry: same task, another scope
    task, _ = texts(skills[2])
    add_catalog(task, phrase(9))
    read_targets[skills[2]["id"]] = "merge"
    # merge with a local skill: skill 4 repeats skill 3's task with its own steps
    skills[4]["doc"]["task_scope"] = skills[3]["doc"]["task_scope"]
    read_targets[skills[3]["id"]] = "merge"
    read_targets[skills[5]["id"]] = "novel"

    # Mined candidates for the campaign on the reserved subdomains.
    planted: list[dict] = []
    local_pool = skills[6:]
    slot = 0
    for branch in branches:
        _d, _s = branch.split("/")[1:]
        focus = layout[_d][_s][: size["focus"]]
        candidates: dict[str, list[dict]] = {}
        for leaf in focus:
            candidates[leaf] = []
            for _ in range(3):
                kind = GROWN_KINDS[slot % len(GROWN_KINDS)]
                slot += 1
                name = f"{kind.replace('_', '-')}-{words.word()}"
                task, steps = phrase(9), steps_for(words, vocabulary)
                merged_into = None
                if kind == "redundant_catalog":
                    add_catalog(task, " ".join(steps))
                elif kind == "merge_catalog":
                    add_catalog(task, phrase(9))
                elif kind == "merge_local":
                    survivor = local_pool[(slot * 37) % len(local_pool)]
                    task = survivor["doc"]["task_scope"]
                    merged_into = survivor["id"]
                doc = contract_doc(name, task, steps, words.word())
                candidates[leaf].append(doc)
                planted.append({"skill_id": f"{slug(leaf.rsplit('/', 1)[-1])}-{slug(name)}",
                                "kind": kind, "leaf": leaf, "task": task, "scope": " ".join(steps),
                                "merged_into": merged_into})
        _mining_scripts(words, scripts, branch, focus, candidates)

    designs = _designs(words, scripts, size["designs"], grown_leaves, vocabulary, add_catalog)

    while len(catalog) < size["catalog"]:
        add_catalog(phrase(9), phrase(10))
    _rng(seed, "catalog-order").shuffle(catalog)

    (dest / "taxonomy.txt").write_text(taxonomy, "utf-8")
    (dest / f"{CATALOG_ID}.ndjson").write_text("".join(record_line(e) for e in catalog), "utf-8")
    _write_grown_library(dest / "library", taxonomy, skills)
    return {
        "taxonomy": str(dest / "taxonomy.txt"),
        "scripts": str(scripts),
        "catalog": str(dest / f"{CATALOG_ID}.ndjson"),
        "library": str(dest / "library"),
        "branches": branches,
        "planted": planted,
        "designs": designs,
        "read_targets": read_targets,
        "mined_reads": _mined_reads(planted, designs),
        "checkpoint_campaign": "c1",
        "local_skills": [[s["id"], *texts(s)] for s in skills],
        "catalog_entries": [[e["entry_ref"], e["task_description"], e["scope_summary"]] for e in catalog],
        "domains": size["domains"],
        "subdomains": size["domains"] * size["subdomains"],
        "leaves": size["domains"] * size["subdomains"] * size["leaves"],
        "skills": size["skills"],
        "focus_k": size["focus"],
        "read_passes": size["read_passes"],
    }


def _finish_grown(manifest: dict) -> None:
    """Check the grown library and put a completed campaign checkpoint in place."""
    sys.path.insert(0, str(ROOT / "src"))
    from skillmine.config import EngineConfig
    from skillmine.pipeline import Pipeline
    from skillmine.registry import open_registry
    from skillmine.workers import CampaignConfig, checkpoint_campaign

    lib = Path(manifest["library"])
    registry = open_registry(lib)
    tree = registry.load_tree_snapshot()
    violations = registry.integrity_check(tree)
    if violations:
        raise SystemExit(f"generated library fails integrity_check: {violations[:3]}")
    if len(registry.skills()) != manifest["skills"]:
        raise SystemExit("generated library lost skills on load")
    config = EngineConfig(registry_root=lib, provider="mock", script_dir=Path(manifest["scripts"]))
    pipeline = Pipeline(config, registry=registry, tree=tree)
    campaign = CampaignConfig(campaign_id=manifest["checkpoint_campaign"],
                              branch_schedule=(manifest["branches"][0],))
    plan = campaign.phase_plan()
    phases = [{"kind": kind, "branch": branch} for kind, branch in plan]
    checkpoint = checkpoint_campaign(pipeline, campaign, cursor=len(plan), phases=phases,
                                     completed_cycles=[1], failures_in_row=0)
    manifest["checkpoint_phases"] = len(plan)
    # Runs compare the cached library against this to prove they left it alone.
    manifest["library_digest"] = checkpoint.registry_digest


# -- entry -------------------------------------------------------------------------


def prepare(workload: str, seed: int, scale: str, work: Path) -> dict:
    """Inputs for one workload; returns the manifest.

    mine-fresh inputs are small and written into the run's ``work`` directory.
    Grown inputs are reused from the cache when this version of the generator
    already wrote them for the seed.
    """
    if workload == "mine-fresh":
        return generate_fresh(seed, scale, work / "inputs")
    version = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:10]
    cache = WORK / "cache"
    dest = cache / f"grown-{scale}-{seed}-{version}"
    done = dest / "manifest.json"
    if done.is_file():
        done.touch()
        return json.loads(done.read_text("utf-8"))
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    manifest = generate_grown(seed, scale, dest)
    _finish_grown(manifest)
    done.write_text(json.dumps(manifest), "utf-8")
    kept = sorted((p for p in cache.iterdir() if (p / "manifest.json").is_file()),
                  key=lambda p: (p / "manifest.json").stat().st_mtime, reverse=True)
    for old in kept[CACHE_KEEP:]:
        shutil.rmtree(old, ignore_errors=True)
    return manifest
