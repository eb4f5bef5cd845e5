"""Novelty and redundancy review against local and external skill catalogs.

The deterministic ladder decides: any same-task-same-scope match makes a
candidate redundant; otherwise any same-task-different-scope match makes it a
merge; otherwise it is novel. A provider response may only downgrade toward
review or deprioritize, never upgrade toward novel.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import os
import re
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

from . import tree as treemod
from .contracts import SkillContract, parse_contract
from .errors import CatalogReadError, EmptyKeywordsError
from .registry import Registry, SkillEntry
from .util import json_objects

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


class CatalogEntry(NamedTuple):
    """One entry of a catalog. A tuple, not a dataclass: a cold review
    builds one per line of a 20,000-entry catalog file."""

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


def _term_set(text: str) -> frozenset[str]:
    """``keywords_from_text(text).as_set()``, or empty when no keyword survives."""
    tokens = _content_tokens(text)
    return frozenset(tokens).union([f"{left} {right}" for left, right in zip(tokens, tokens[1:])])


class _Candidate(NamedTuple):
    """The candidate's side of a classification, prepared once per search."""

    task_terms: frozenset[str]
    task_text: str  # normalized
    scope_terms: frozenset[str]
    scope_text: str  # normalized


def _candidate(
    task_keywords: KeywordSet,
    candidate_task_text: str,
    scope_keywords: KeywordSet | None,
    candidate_scope_text: str,
) -> _Candidate:
    return _Candidate(
        task_keywords.as_set(),
        _normalize_text(candidate_task_text),
        (scope_keywords or task_keywords).as_set(),
        _normalize_text(candidate_scope_text or candidate_task_text),
    )


def classify_entry(
    entry: CatalogEntry,
    task_keywords: KeywordSet,
    candidate_task_text: str,
    scope_keywords: KeywordSet | None = None,
    candidate_scope_text: str = "",
    candidate: _Candidate | None = None,
) -> tuple[str, float]:
    """Overlap class plus a ranking score for one catalog entry.

    ``candidate`` is the candidate's side as ``_candidate`` prepares it from
    the other arguments; a search passes it to prepare it once.
    """
    if candidate is None:
        candidate = _candidate(
            task_keywords, candidate_task_text, scope_keywords, candidate_scope_text
        )
    score = jaccard(candidate.task_terms, _term_set(entry.task_description))
    same_task = (
        score >= SAME_TASK_JACCARD
        or _normalize_text(entry.task_description) == candidate.task_text
    )
    if not same_task:
        return ("related", score) if score > 0 else ("none", score)

    scope_score = jaccard(candidate.scope_terms, _term_set(entry.scope_summary))
    same_scope = scope_score >= SAME_SCOPE_JACCARD or (
        bool(entry.scope_summary)
        and _normalize_text(entry.scope_summary) == candidate.scope_text
    )
    return ("same_task_same_scope" if same_scope else "same_task_diff_scope", score)


class CatalogIndex:
    """One catalog's entries with a unigram -> positions map over their task texts.

    Only unigrams are indexed: a map over every term, or a cached keyword set
    per entry, costs about ten times the memory on a 20,000-entry catalog.
    Positions keep the catalog's order, so a search visits entries in the
    order a scan would, until ``update`` appends entries out of that order.
    ``unindexed`` lists the entries whose task text has no unigram at all.
    """

    def __init__(self, entries: Sequence[CatalogEntry]):
        self.entries: list[CatalogEntry] = []
        self.postings: dict[str, list[int]] = {}
        self.unindexed: list[int] = []
        for entry in entries:
            self._append(entry)

    def _append(self, entry: CatalogEntry) -> None:
        position = len(self.entries)
        self.entries.append(entry)
        unigrams = set(_content_tokens(entry.task_description))
        if not unigrams:
            self.unindexed.append(position)
        for term in unigrams:
            self.postings.setdefault(term, []).append(position)

    def update(self, entries: Sequence[CatalogEntry]) -> bool:
        """Bring the index to ``entries`` in place; False, untouched, if it cannot.

        It can when refs are unique and every indexed entry is still there
        under its ``entry_ref`` with the same task text: those entries are
        swapped in place, as postings depend on task texts only, and entries
        with new refs are appended. Positions then differ from
        ``CatalogIndex(entries)``, but search results do not: matches are
        sorted on score, catalog and ref, and the refs are unique.
        """
        positions = {entry.entry_ref: p for p, entry in enumerate(self.entries)}
        if len(positions) != len(self.entries):
            return False
        if len({entry.entry_ref for entry in entries}) != len(entries):
            return False
        added = 0
        for entry in entries:
            position = positions.get(entry.entry_ref)
            if position is None:
                added += 1
            elif self.entries[position].task_description != entry.task_description:
                return False
        if len(entries) - added != len(self.entries):
            return False  # an indexed entry is gone
        for entry in entries:
            position = positions.get(entry.entry_ref)
            if position is None:
                self._append(entry)
            else:
                self.entries[position] = entry
        return True

    def __len__(self) -> int:
        return len(self.entries)

    def sharing(self, unigrams: set[str]) -> list[CatalogEntry]:
        """Entries, in catalog order, that share one of ``unigrams`` or have none."""
        positions = set(self.unindexed)
        for term in unigrams:
            positions.update(self.postings.get(term, ()))
        return [self.entries[p] for p in sorted(positions)]


_TOKEN_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789")
# A token that is not a stop word.
_CONTENT_TOKEN = re.compile(
    "(?<![a-z0-9])(?!(?:%s)(?![a-z0-9]))[a-z0-9]+" % "|".join(sorted(STOP_WORDS))
)


def scan_sharing(entries: Sequence[CatalogEntry], unigrams: set[str]) -> list[CatalogEntry]:
    """``CatalogIndex(entries).sharing(unigrams)``, found without the index.

    Building an index tokenizes every task text, which costs several scans,
    so one search over a catalog is cheaper without it. The lowercased task
    texts are joined by "\\n" and each unigram is found in the joined text
    with ``str.find``; a hit counts when it is a whole token, with no
    [a-z0-9] on either side. Only the unigrams an index can hold are looked
    for: a stop word, or a term with any other character, is in no posting.
    An entry has no unigram when no token of its task text is outside the
    stop words.
    """
    texts = [entry.task_description.lower() for entry in entries]
    found = {
        position
        for position, content in enumerate(map(_CONTENT_TOKEN.search, texts))
        if content is None
    }
    joined = "\n".join(texts)
    # starts[p] is where text p begins in ``joined``.
    starts = [0, *itertools.accumulate(len(text) + 1 for text in texts)]
    size = len(joined)
    for term in unigrams:
        if term in STOP_WORDS or not _TOKEN.fullmatch(term):
            continue
        at = joined.find(term)
        while at >= 0:
            end = at + len(term)
            if (at == 0 or joined[at - 1] not in _TOKEN_CHARS) and (
                end == size or joined[end] not in _TOKEN_CHARS
            ):
                found.add(bisect.bisect_right(starts, at) - 1)
            at = joined.find(term, end)
    return [entries[position] for position in sorted(found)]


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

    A catalog given as a ``CatalogIndex`` is searched through it; a plain
    sequence is scanned by ``scan_sharing``, which finds the same entries
    without building an index. Only the entries that share a unigram with
    the keywords or with ``candidate_task_text``, plus those with no
    unigram, are classified, and the result equals classifying every entry.
    A Jaccard score above zero needs a shared term, and every term of an
    entry, unigram or bigram, is made of the entry's own unigrams. Equal
    normalized task texts have equal unigram sets; when those are empty the
    entry is one with no unigram.

    An entry for which ``skip`` is true is passed over before classification
    and before the cut, so the result equals searching the catalogs with
    those entries left out.
    """
    query = {part for term in keywords.terms for part in term.split()}
    query.update(_content_tokens(candidate_task_text))
    candidate = _candidate(keywords, candidate_task_text, scope_keywords, candidate_scope_text)
    matches: list[CatalogMatch] = []
    for catalog_id in sorted(catalogs):
        catalog = catalogs[catalog_id]
        if isinstance(catalog, CatalogIndex):
            sharing = catalog.sharing(query)
        else:
            sharing = scan_sharing(catalog, query)
        for entry in sharing:
            if skip is not None and skip(entry):
                continue
            overlap, score = classify_entry(
                entry, keywords, candidate_task_text, scope_keywords, candidate_scope_text,
                candidate,
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
    """Read a newline-delimited catalog snapshot file.

    Lines are decoded by ``util.json_objects``, as the registry decodes its
    logs: each to what ``json.loads`` gives it. A line that is not a JSON
    object, or lacks ``entry_ref`` or ``task_description``, raises
    ``CatalogReadError`` naming the file and line.
    """
    path = Path(path)
    name = catalog_id or path.stem
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise CatalogReadError(f"unreadable catalog snapshot {path}: {exc}") from None

    def unreadable(line_no: int, detail: str) -> CatalogReadError:
        return CatalogReadError(f"{path}:{line_no}: {detail}")

    entries: list[CatalogEntry] = []
    # Not read_text: its universal newlines would end a line at a bare "\r".
    for line_no, record in json_objects(data.decode("utf-8"), unreadable):
        if "entry_ref" not in record or "task_description" not in record:
            raise unreadable(line_no, "entry_ref and task_description are required")
        entries.append(
            CatalogEntry(
                name,
                record["entry_ref"],
                record["task_description"],
                record.get("scope_summary", ""),
                record.get("topic_path", ""),
                tuple(record.get("provenance", ())),
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


class LocalText(NamedTuple):
    """What ``local_catalog_entries`` keeps of one skill's ``skill.json``,
    with the registry entry and the catalog entry last built from them."""

    package_path: str
    path: str
    key: tuple[int, int, int, int]  # st_ino, st_size, st_mtime_ns, st_ctime_ns
    trusted: bool  # the key may stand for the bytes without a read
    digest: bytes
    texts: tuple[str, str] | None
    skill: SkillEntry | None = None
    entry: CatalogEntry | None = None


def filesystem_time(directory: str) -> int | None:
    """The ctime of a probe file made and removed in ``directory``: a
    timestamp of that filesystem's clock, or None when no probe can be made."""
    try:
        fd, name = tempfile.mkstemp(dir=directory, prefix=".probe-")
    except OSError:
        return None
    try:
        return os.fstat(fd).st_ctime_ns
    finally:
        os.close(fd)
        os.unlink(name)


def local_catalog_entries(
    registry: Registry,
    packages_root: Path,
    texts: dict[str, LocalText] | None = None,
    probe_dir: str | Path | None = None,
) -> list[CatalogEntry]:
    """Expose the local library through the catalog view.

    ``texts`` caches, per skill id, the texts derived from its ``skill.json``
    with the digest of the bytes they came from and the file's stat key
    ``(st_ino, st_size, st_mtime_ns, st_ctime_ns)``. A caller that keeps it
    across calls has each file stat-ed, and read only when its key changed or
    cannot be trusted; a file whose bytes are unchanged is not re-parsed.
    When the file was not read and the registry still holds the same
    ``SkillEntry`` object, the catalog entry built last time is returned:
    every registry mutation replaces the object. Entries of skills no longer
    in the catalog are dropped.

    A key is trusted only when its mtime and ctime are strictly older than
    a filesystem timestamp taken before the ``fstat`` that recorded it (git's
    racy-git rule). ctime moves on every write and every ``utime``, and a
    replaced file has a new inode, so a trusted key that still matches means
    the bytes are the ones read; an edit in the same clock tick as the read
    would keep the key, which is why such keys are not trusted. The timestamp
    is the ctime of a probe file made in ``probe_dir``, a directory on the
    library's filesystem that the state digest skips (a pipeline passes its
    harness sandbox); without one nothing is trusted and every file is read.

    A pipeline calls this once per commit, not once per review: no review
    or verdict writes a ``skill.json``, so every review in one commit would
    read the same bytes. Its reviews search one index over these entries and
    skip the candidate and any skill a verdict has removed since.
    """
    top = os.fspath(packages_root)
    fence = None
    if texts is None:
        texts = {}
    elif probe_dir is not None:
        fence = filesystem_time(os.fspath(probe_dir))
    entries: list[CatalogEntry] = []
    for skill in registry.skills():
        if skill.status in ("removed",):
            continue
        task_text = skill.name
        scope_text = ""
        cached = texts.get(skill.id)
        if (
            cached is None
            or not cached.trusted
            or cached.package_path != skill.package_path
            or _stat_key(cached.path) != cached.key
        ):
            cached = _read_local_text(top, skill.package_path, cached, fence)
        elif cached.skill is skill:
            entries.append(cached.entry)
            continue
        if cached is not None and cached.texts is not None:
            task_text, scope_text = cached.texts
        entry = CatalogEntry(
            catalog_id="local",
            entry_ref=skill.id,
            task_description=task_text,
            scope_summary=scope_text,
            topic_path=skill.leaf_path,
            provenance=tuple(skill.provenance),
        )
        if cached is None:
            texts.pop(skill.id, None)
        else:
            texts[skill.id] = cached._replace(skill=skill, entry=entry)
        entries.append(entry)
    for gone in texts.keys() - {entry.entry_ref for entry in entries}:
        del texts[gone]
    return entries


def _key(stat: os.stat_result) -> tuple[int, int, int, int]:
    return (stat.st_ino, stat.st_size, stat.st_mtime_ns, stat.st_ctime_ns)


def _stat_key(path: str) -> tuple[int, int, int, int] | None:
    try:
        return _key(os.stat(path))
    except OSError:
        return None


def _read_local_text(
    top: str, package_path: str, cached: LocalText | None, fence: int | None
) -> LocalText | None:
    """Read one package's ``skill.json``; None when it is unreadable.

    The key comes from the open file before the read, and is trusted only
    when its times are strictly older than ``fence``.
    """
    path = os.path.join(top, package_path, "skill.json")
    try:
        with open(path, "rb") as handle:
            key = _key(os.fstat(handle.fileno()))
            data = handle.read()
    except OSError:
        return None
    digest = hashlib.sha256(data).digest()
    if cached is not None and cached.digest == digest:
        parsed = cached.texts
    else:
        parsed = _contract_texts(data)
    trusted = fence is not None and key[2] < fence and key[3] < fence
    return LocalText(package_path, path, key, trusted, digest, parsed)


def candidate_scope_text(contract: SkillContract) -> str:
    """The candidate's method-scope comparand: its steps, else its scope."""
    return " ".join(contract.execution_steps) or contract.task_scope
