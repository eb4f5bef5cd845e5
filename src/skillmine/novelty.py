"""Novelty and redundancy review against local and external skill catalogs.

The deterministic ladder decides: any same-task-same-scope match makes a
candidate redundant; otherwise any same-task-different-scope match makes it a
merge; otherwise it is novel. A provider response may only downgrade toward
review or deprioritize, never upgrade toward novel.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

from . import tree as treemod
from .contracts import SkillContract, parse_contract
from .errors import CatalogReadError, EmptyKeywordsError
from .registry import Registry
from .util import read_bytes_at

SAME_TASK_JACCARD = 0.6
SAME_SCOPE_JACCARD = 0.6

OVERLAP_LEVELS = ("same_task_same_scope", "same_task_diff_scope", "related", "none")
DECISIONS = ("novel", "redundant", "merge", "review", "deprioritize")

# Fixed 50-entry English function-word list; determinism over sophistication.
STOP_WORDS = frozenset(
    """
    a an and are as at be but by for from has have in into is it its of on or
    that the their them then these they this to was were what when where which
    while who will with would can could should do does not no nor if than
    """.split()
)

_TOKEN = re.compile(r"[a-z0-9]+")


@dataclass(frozen=True)
class KeywordSet:
    terms: tuple[str, ...]

    def as_set(self) -> frozenset[str]:
        return frozenset(self.terms)


@dataclass(frozen=True)
class CatalogEntry:
    catalog_id: str
    entry_ref: str
    task_description: str
    scope_summary: str = ""
    topic_path: str = ""
    provenance: tuple[str, ...] = ()


@dataclass(frozen=True)
class CatalogMatch:
    catalog_id: str
    entry_ref: str
    entry_task_description: str
    entry_scope_summary: str
    overlap: str
    score: float = 0.0


@dataclass(frozen=True)
class NoveltyVerdict:
    skill_id: str
    decision: str
    rationale: str
    supporting_matches: tuple[CatalogMatch, ...] = ()


def _normalize_text(text: str) -> str:
    return " ".join(_TOKEN.findall(text.lower()))


def derive_keywords(contract: SkillContract) -> KeywordSet:
    """Lowercased unigrams (stop-words removed, first-occurrence order)
    followed by bigrams over the surviving token sequence."""
    return keywords_from_text(contract.task_scope)


def _content_tokens(text: str) -> list[str]:
    """Lowercased tokens with stop words removed, in text order."""
    return [t for t in _TOKEN.findall(text.lower()) if t not in STOP_WORDS]


def keywords_from_text(text: str) -> KeywordSet:
    tokens = _content_tokens(text)
    if not tokens:
        raise EmptyKeywordsError(f"no keywords survive stop-word filtering: {text!r}")
    unigrams: list[str] = []
    seen: set[str] = set()
    for token in tokens:
        if token not in seen:
            unigrams.append(token)
            seen.add(token)
    bigrams: list[str] = []
    for left, right in zip(tokens, tokens[1:]):
        bigram = f"{left} {right}"
        if bigram not in seen:
            bigrams.append(bigram)
            seen.add(bigram)
    return KeywordSet(terms=tuple(unigrams + bigrams))


def jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return len(a & b) / len(a | b)


def _safe_keywords(text: str) -> frozenset[str]:
    try:
        return keywords_from_text(text).as_set()
    except EmptyKeywordsError:
        return frozenset()


def classify_entry(
    entry: CatalogEntry,
    task_keywords: KeywordSet,
    candidate_task_text: str,
    scope_keywords: KeywordSet | None = None,
    candidate_scope_text: str = "",
) -> tuple[str, float]:
    """Overlap class plus a ranking score for one catalog entry."""
    entry_task = _safe_keywords(entry.task_description)
    score = jaccard(task_keywords.as_set(), entry_task)
    same_task = score >= SAME_TASK_JACCARD or (
        _normalize_text(entry.task_description) == _normalize_text(candidate_task_text)
    )
    if not same_task:
        return ("related", score) if score > 0 else ("none", score)

    scope_terms = (scope_keywords or task_keywords).as_set()
    entry_scope = _safe_keywords(entry.scope_summary)
    scope_score = jaccard(scope_terms, entry_scope)
    scope_text = candidate_scope_text or candidate_task_text
    same_scope = scope_score >= SAME_SCOPE_JACCARD or (
        bool(entry.scope_summary)
        and _normalize_text(entry.scope_summary) == _normalize_text(scope_text)
    )
    return ("same_task_same_scope" if same_scope else "same_task_diff_scope", score)


class CatalogIndex:
    """One catalog's entries with a unigram -> positions map over their task texts.

    Only unigrams are indexed: a map over every term, or a cached keyword set
    per entry, costs about ten times the memory on a 20,000-entry catalog.
    Positions keep the catalog's order, so a search visits entries in the
    order a scan would. ``unindexed`` lists the entries whose task text has
    no unigram at all.
    """

    def __init__(self, entries: Sequence[CatalogEntry]):
        self.entries = tuple(entries)
        self.postings: dict[str, list[int]] = {}
        self.unindexed: list[int] = []
        for position, entry in enumerate(self.entries):
            unigrams = set(_content_tokens(entry.task_description))
            if not unigrams:
                self.unindexed.append(position)
            for term in unigrams:
                self.postings.setdefault(term, []).append(position)

    def __len__(self) -> int:
        return len(self.entries)

    def sharing(self, unigrams: set[str]) -> list[CatalogEntry]:
        """Entries, in catalog order, that share one of ``unigrams`` or have none."""
        positions = set(self.unindexed)
        for term in unigrams:
            positions.update(self.postings.get(term, ()))
        return [self.entries[p] for p in sorted(positions)]


def search_catalogs(
    catalogs: Mapping[str, Sequence[CatalogEntry] | CatalogIndex],
    keywords: KeywordSet,
    limit: int,
    candidate_task_text: str = "",
    scope_keywords: KeywordSet | None = None,
    candidate_scope_text: str = "",
    skip: Callable[[CatalogEntry], bool] | None = None,
) -> list[CatalogMatch]:
    """Classify the entries that can overlap the candidate; return the top matches.

    A catalog given as a ``CatalogIndex`` is reused; a plain sequence is
    indexed here. Only the entries that share a unigram with the keywords or
    with ``candidate_task_text``, plus those with no unigram, are classified,
    and the result equals classifying every entry. A Jaccard score above zero
    needs a shared term, and every term of an entry, unigram or bigram, is
    made of the entry's own unigrams. Equal normalized task texts have equal
    unigram sets; when those are empty the entry is one with no unigram.

    An entry for which ``skip`` is true is passed over before classification
    and before the cut, so the result equals searching the catalogs with
    those entries left out.
    """
    query = {part for term in keywords.terms for part in term.split()}
    query.update(_content_tokens(candidate_task_text))
    matches: list[CatalogMatch] = []
    for catalog_id in sorted(catalogs):
        catalog = catalogs[catalog_id]
        index = catalog if isinstance(catalog, CatalogIndex) else CatalogIndex(catalog)
        for entry in index.sharing(query):
            if skip is not None and skip(entry):
                continue
            overlap, score = classify_entry(
                entry, keywords, candidate_task_text, scope_keywords, candidate_scope_text
            )
            if overlap == "none":
                continue
            matches.append(
                CatalogMatch(
                    catalog_id=entry.catalog_id or catalog_id,
                    entry_ref=entry.entry_ref,
                    entry_task_description=entry.task_description,
                    entry_scope_summary=entry.scope_summary,
                    overlap=overlap,
                    score=score,
                )
            )
    matches.sort(key=lambda m: (-m.score, m.catalog_id, m.entry_ref))
    return matches[:limit]


def adjudicate(
    contract: SkillContract,
    matches: Sequence[CatalogMatch],
    provider_response=None,
    skill_id: str = "",
) -> NoveltyVerdict:
    """Apply the decision ladder; the provider may only downgrade."""
    same_scope = [m for m in matches if m.overlap == "same_task_same_scope"]
    diff_scope = [m for m in matches if m.overlap == "same_task_diff_scope"]

    if same_scope:
        decision = "redundant"
        supporting = tuple(same_scope)
        rationale = f"existing entry completes the same task with the same scope: {same_scope[0].entry_ref}"
    elif diff_scope:
        decision = "merge"
        supporting = tuple(diff_scope)
        rationale = f"existing entry completes the same task with a different scope: {diff_scope[0].entry_ref}"
    else:
        decision = "novel"
        supporting = ()
        rationale = "no existing entry completes the same task"

    if provider_response is not None and decision in ("novel", "merge"):
        fields = getattr(provider_response, "fields", provider_response)
        provider_decision = fields.get("decision")
        uncertain = bool(fields.get("uncertain"))
        if provider_decision in ("review", "deprioritize"):
            decision = provider_decision
            rationale += f"; provider downgraded to {provider_decision}"
        elif uncertain:
            decision = "review"
            rationale += "; provider flagged uncertainty"

    return NoveltyVerdict(
        skill_id=skill_id,
        decision=decision,
        rationale=rationale,
        supporting_matches=supporting,
    )


def promote_if_pending(registry: Registry, skill_id: str, cycle: int) -> None:
    """Pending candidates (pass recorded, promotion deferred) become verified."""
    if registry.skill(skill_id).status in ("untested", "repaired"):
        registry.transition_skill(skill_id, "verified", cycle)


def _ensure_leaf(
    tree: treemod.DomainTree, leaf_path: treemod.NodePath
) -> tuple[treemod.DomainTree, treemod.NodePath]:
    node = tree.nodes.get(leaf_path)
    if node is None or node.status == "pruned":
        tree = treemod.insert_leaf(tree, leaf_path[:-1], leaf_path[-1])
        return tree, leaf_path
    if node.status == "merged" and node.merged_into is not None:
        return tree, node.merged_into
    return tree, leaf_path


def apply_verdict(
    tree: treemod.DomainTree,
    registry: Registry,
    verdict: NoveltyVerdict,
    cycle: int = 0,
) -> treemod.DomainTree:
    """Write a verdict back to the tree and registry; returns the new tree.

    The registry is mutated in place (it is the durable side); the tree is a
    fresh snapshot for the caller to commit.
    """
    entry = registry.skill(verdict.skill_id)
    leaf_path = treemod.parse_path(entry.leaf_path)
    registry.set_novelty_decision(verdict.skill_id, verdict.decision, cycle)

    if verdict.decision == "novel":
        promote_if_pending(registry, verdict.skill_id, cycle)
        tree, target = _ensure_leaf(tree, leaf_path)
        tree = treemod.link_skill(tree, target, verdict.skill_id)
        tree = treemod.record_verification(tree, target, verdict.skill_id, "pass", cycle)
        return tree

    if verdict.decision == "redundant":
        registry.transition_skill(verdict.skill_id, "removed", cycle)
        return tree

    if verdict.decision == "merge":
        survivor = _local_survivor(registry, verdict)
        if survivor is not None:
            merged = sorted(set(survivor.provenance) | set(entry.provenance))
            registry.upsert_skill(replace(survivor, provenance=merged, updated_cycle=cycle))
            registry.transition_skill(
                verdict.skill_id, "removed", cycle, merged_into=survivor.id
            )
        else:
            # External complement: the candidate survives and absorbs the
            # external reference into its provenance as a workflow resource.
            from .registry import ResourceEntry

            best = verdict.supporting_matches[0]
            receipt = registry.record_resource(
                ResourceEntry(
                    id="",
                    kind="workflow",
                    locator=best.entry_ref,
                    leaf_paths=[entry.leaf_path],
                    retrieved_cycle=cycle,
                    authority_rank=1,
                )
            )
            refreshed = registry.skill(verdict.skill_id)
            provenance = sorted(set(refreshed.provenance) | {receipt.id})
            registry.upsert_skill(replace(refreshed, provenance=provenance, updated_cycle=cycle))
            promote_if_pending(registry, verdict.skill_id, cycle)
            tree, target = _ensure_leaf(tree, leaf_path)
            tree = treemod.link_skill(tree, target, verdict.skill_id)
            tree = treemod.record_verification(tree, target, verdict.skill_id, "pass", cycle)
        return tree

    if verdict.decision == "review":
        promote_if_pending(registry, verdict.skill_id, cycle)
        if registry.skill(verdict.skill_id).status == "verified":
            registry.transition_skill(verdict.skill_id, "review", cycle)
        if leaf_path in tree.nodes:
            tree = treemod.set_node_status(tree, leaf_path, "review")
        return tree

    if verdict.decision == "deprioritize":
        promote_if_pending(registry, verdict.skill_id, cycle)
        tree, target = _ensure_leaf(tree, leaf_path)
        tree = treemod.link_skill(tree, target, verdict.skill_id)
        # The stale marker is the zero-priority review status on the leaf.
        tree = treemod.set_node_status(tree, target, "review")
        return tree

    raise ValueError(f"unknown novelty decision: {verdict.decision}")


def _local_survivor(registry: Registry, verdict: NoveltyVerdict):
    for match in verdict.supporting_matches:
        if match.catalog_id == "local" and registry.has_skill(match.entry_ref):
            survivor = registry.skill(match.entry_ref)
            if survivor.status not in ("removed",) and survivor.id != verdict.skill_id:
                return survivor
    return None


def load_catalog_snapshot(path: str | Path, catalog_id: str | None = None) -> list[CatalogEntry]:
    """Read a newline-delimited catalog snapshot file."""
    path = Path(path)
    name = catalog_id or path.stem
    entries: list[CatalogEntry] = []
    try:
        text = path.read_text("utf-8")
    except OSError as exc:
        raise CatalogReadError(f"unreadable catalog snapshot {path}: {exc}") from None
    # Entries end at "\n" alone: str.splitlines() would also split at U+0085
    # or U+2028, which JSON allows unescaped inside a string.
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CatalogReadError(f"{path}:{line_no}: {exc}") from None
        if "entry_ref" not in record or "task_description" not in record:
            raise CatalogReadError(f"{path}:{line_no}: entry_ref and task_description are required")
        entries.append(
            CatalogEntry(
                catalog_id=name,
                entry_ref=record["entry_ref"],
                task_description=record["task_description"],
                scope_summary=record.get("scope_summary", ""),
                topic_path=record.get("topic_path", ""),
                provenance=tuple(record.get("provenance", [])),
            )
        )
    return entries


def _contract_texts(data: bytes) -> tuple[str, str] | None:
    """(task text, scope text) of a skill.json document; None when it is invalid."""
    try:
        contract = parse_contract(json.loads(data.decode("utf-8")))
    except Exception:  # any unreadable or invalid contract: the caller falls back
        return None
    return contract.task_scope, candidate_scope_text(contract)


def local_catalog_entries(
    registry: Registry,
    packages_root: Path,
    texts: dict[str, tuple[bytes, tuple[str, str] | None]] | None = None,
) -> list[CatalogEntry]:
    """Expose the local library through the catalog view.

    ``texts`` caches, per skill id, the digest of its ``skill.json`` bytes
    with the texts derived from them; a caller that keeps it across calls
    re-parses only files whose bytes changed. The file is read and hashed on
    every call, because repair edits rewrite it in place, and an edit can
    keep its size and its timestamp. Entries of skills no longer in the
    catalog are dropped.

    A pipeline calls this once per commit, not once per review: no review
    or verdict writes a ``skill.json``, so every review in one commit would
    read the same bytes. Its reviews search one index over these entries and
    skip the candidate and any skill a verdict has removed since.
    """
    if texts is None:
        texts = {}
    top = os.fspath(packages_root)
    entries: list[CatalogEntry] = []
    for skill in registry.skills():
        if skill.status in ("removed",):
            continue
        task_text = skill.name
        scope_text = ""
        try:
            data = read_bytes_at(top, os.path.join(skill.package_path, "skill.json"))
        except OSError:
            data = None
        if data is not None:
            digest = hashlib.sha256(data).digest()
            cached = texts.get(skill.id)
            if cached is None or cached[0] != digest:
                cached = texts[skill.id] = (digest, _contract_texts(data))
            if cached[1] is not None:
                task_text, scope_text = cached[1]
        entries.append(
            CatalogEntry(
                catalog_id="local",
                entry_ref=skill.id,
                task_description=task_text,
                scope_summary=scope_text,
                topic_path=skill.leaf_path,
                provenance=tuple(skill.provenance),
            )
        )
    for gone in texts.keys() - {entry.entry_ref for entry in entries}:
        del texts[gone]
    return entries


def candidate_scope_text(contract: SkillContract) -> str:
    """The candidate's method-scope comparand: its steps, else its scope."""
    return " ".join(contract.execution_steps) or contract.task_scope
