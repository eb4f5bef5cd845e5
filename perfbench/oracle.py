"""Expected results computed apart from the engine.

``NoveltyOracle`` applies the method's novelty ladder from its definition:
lower-cased alphanumeric tokens, a fixed stop-word list, unigrams plus
bigrams over the surviving tokens, Jaccard overlap, and the 0.6 thresholds
for "same task" and "same scope". ``replay_library`` re-derives library
statistics from the raw record logs with its own parser.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

SAME_TASK = 0.6
SAME_SCOPE = 0.6
MATCH_LIMIT = 5

STOP_WORDS = frozenset(
    """
    a an and are as at be but by for from has have in into is it its of on or
    that the their them then these they this to was were what when where which
    while who will with would can could should do does not no nor if than
    """.split()
)
_TOKEN = re.compile(r"[a-z0-9]+")


def keywords(text: str) -> frozenset[str]:
    tokens = [t for t in _TOKEN.findall(text.lower()) if t not in STOP_WORDS]
    return frozenset(tokens) | frozenset(f"{a} {b}" for a, b in zip(tokens, tokens[1:]))


def normalized(text: str) -> str:
    return " ".join(_TOKEN.findall(text.lower()))


def jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return len(a & b) / len(a | b)


class NoveltyOracle:
    """Brute-force ladder over (catalog id, entry ref, task, scope) rows."""

    def __init__(self, external: list[tuple[str, str, str, str]]):
        self.external = [self._prepare(row) for row in external]

    @staticmethod
    def _prepare(row):
        catalog_id, ref, task, scope = row
        return catalog_id, ref, task, scope, keywords(task), keywords(scope)

    def decide(self, task: str, scope: str, local: list[tuple[str, str, str]]) -> str:
        """Decision for a candidate against the external rows plus ``local``
        rows of (skill id, task, scope)."""
        task_kw = keywords(task)
        scope_kw = keywords(scope) or task_kw
        rows = self.external + [self._prepare(("local", *row)) for row in local]
        matches = []
        for catalog_id, ref, e_task, e_scope, e_task_kw, e_scope_kw in rows:
            score = jaccard(task_kw, e_task_kw)
            if not (score >= SAME_TASK or normalized(e_task) == normalized(task)):
                if score > 0:
                    matches.append((-score, catalog_id, ref, "related"))
                continue
            same_scope = jaccard(scope_kw, e_scope_kw) >= SAME_SCOPE or (
                bool(e_scope) and normalized(e_scope) == normalized(scope or task)
            )
            matches.append((-score, catalog_id, ref, "same_scope" if same_scope else "diff_scope"))
        top = [m[3] for m in sorted(matches)[:MATCH_LIMIT]]
        if "same_scope" in top:
            return "redundant"
        if "diff_scope" in top:
            return "merge"
        return "novel"


def read_records(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text("utf-8").splitlines() if line.strip()]


def replay_library(root: Path, domains: int, subdomains: int) -> dict:
    """Current skills, stats and verification facts from the record logs alone."""
    skills: dict[str, dict] = {}
    for record in read_records(root / "skills.ndjson"):
        skills[record["id"]] = record
    resources = {r["id"] for r in read_records(root / "resources.ndjson")}
    verifications: dict[str, list[str]] = {}
    for v in read_records(root / "verifications.ndjson"):
        verifications.setdefault(v["skill_id"], []).append(f"{v['layer']}:{v['outcome']}")
    passing_exec = {sid for sid, rows in verifications.items() if "execution:pass" in rows}
    present = [s for s in skills.values() if s["status"] != "removed"]
    adjudicated = [s for s in skills.values() if s.get("novelty_decision") is not None]
    novel = [s for s in adjudicated if s["novelty_decision"] == "novel"]
    stats = {
        "skill_count": len(present),
        "verified_count": sum(1 for s in present if s["status"] == "verified"),
        "domain_count": domains,
        "subdomain_count": subdomains,
        "resource_count": len(resources),
        "novel_fraction": len(novel) / len(adjudicated) if adjudicated else 0.0,
    }
    status_line = (
        f"skills={stats['skill_count']} verified={stats['verified_count']} "
        f"domains={domains} subdomains={subdomains} resources={stats['resource_count']} "
        f"novel={stats['novel_fraction'] * 100:.1f}%"
    )
    unbacked = sorted(
        sid for sid, s in skills.items() if s["status"] == "verified" and sid not in passing_exec
    )
    return {"skills": skills, "stats": stats, "status_line": status_line,
            "verifications": verifications, "verified_without_pass": unbacked}
