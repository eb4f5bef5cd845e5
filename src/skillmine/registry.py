"""Durable, auditable store for skills, resources, and verification records.

Storage is one append-only newline-delimited JSON file per record class plus a
compacted ``index/`` rewritten only by the refresh stage. All writes go
through a single-writer lock, an ``flock`` on the registry root directory
that the kernel releases when its holder dies. A record is appended to its
log with one ``O_APPEND`` write of the line and its newline, then an
``fsync``; it is committed once its newline is in the file. A writer killed
mid-write can leave an unterminated tail: readers ignore it and the next
append cuts it off. Every other file is written temp-file-then-rename.
"""

from __future__ import annotations

import fcntl
import json
import logging
import os
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import tree as treemod
from .errors import (
    CorruptRecordError,
    IdCollisionError,
    IllegalTransitionError,
    InconsistencyError,
    InvalidStatusError,
    LockHeldError,
    RegistryError,
    UnknownSkillError,
)
from .util import (
    OMIT_NONE,
    REQUIRED,
    Record,
    atomic_write_text,
    canonical_json,
    dump_json_doc,
    json_objects,
    slugify,
)

SKILL_STATUSES = ("untested", "repaired", "verified", "review", "deprecated", "removed")

# verified->removed is required by novelty write-back (redundant/merge verdicts
# apply to already-verified candidates); deprecated and removed are terminal.
LEGAL_TRANSITIONS: dict[str, frozenset[str]] = {
    "untested": frozenset({"repaired", "verified", "removed"}),
    "repaired": frozenset({"verified", "removed"}),
    "verified": frozenset({"review", "deprecated", "removed"}),
    "review": frozenset({"verified", "deprecated"}),
    "deprecated": frozenset(),
    "removed": frozenset(),
}

RESOURCE_KINDS = (
    "repository",
    "paper",
    "notebook",
    "documentation",
    "api",
    "database",
    "workflow",
    "service",
)

LAYERS = ("execution", "synthetic", "system", "benchmark")
OUTCOMES = ("pass", "fail", "error")
CONFIDENCES = ("starter", "standard")

_log = logging.getLogger(__name__)

SKILLS_FILE = "skills.ndjson"
RESOURCES_FILE = "resources.ndjson"
VERIFICATIONS_FILE = "verifications.ndjson"
RECORD_LOGS = (SKILLS_FILE, RESOURCES_FILE, VERIFICATIONS_FILE)
TREE_SNAPSHOT = "tree.snapshot"
INDEX_DIR = "index"


@dataclass
class SkillEntry(Record):
    id: str
    name: str
    leaf_path: str
    # A log line without a status is corrupt, although new entries default it.
    status: str = field(default="untested", metadata=REQUIRED)
    package_path: str = ""
    smoke_target: str | None = None
    provenance: list[str] = field(default_factory=list)
    created_cycle: int = 0
    updated_cycle: int = 0
    confidence: str = "standard"
    novelty_decision: str | None = field(default=None, metadata=OMIT_NONE)
    merged_into: str | None = field(default=None, metadata=OMIT_NONE)


@dataclass
class ResourceEntry(Record):
    id: str
    kind: str
    locator: str
    leaf_paths: list[str] = field(default_factory=list)  # sorted
    retrieved_cycle: int = 0
    authority_rank: int = 0


@dataclass
class VerificationRecord(Record):
    skill_id: str
    layer: str
    outcome: str
    attempt: int
    report_locator: str = ""
    cycle: int = 0


@dataclass(frozen=True)
class LibraryStats(Record):
    skill_count: int
    verified_count: int
    domain_count: int
    subdomain_count: int
    resource_count: int
    novel_fraction: float


@dataclass(frozen=True)
class Receipt:
    id: str
    created: bool
    file: str
    line: int


def resource_id_for(locator: str) -> str:
    """Stable, human-readable id derived from the locator alone."""
    from .util import sha256_hex

    tail = locator.rstrip("/").rsplit("/", 1)[-1]
    return f"res-{slugify(tail)[:32]}-{sha256_hex(locator.encode('utf-8'))[:6]}"


def skill_id_for(leaf_path: str, name: str, taken: set[str]) -> str:
    """Slug from leaf tail + short name, collision-suffixed deterministically."""
    leaf_tail = leaf_path.rsplit("/", 1)[-1]
    base = f"{slugify(leaf_tail)}-{slugify(name)}"
    if base not in taken:
        return base
    n = 2
    while f"{base}-{n}" in taken:
        n += 1
    return f"{base}-{n}"


class RegistryLock:
    """Single-writer lock: a thread-reentrant lock in process, an exclusive
    ``flock`` on the registry root directory across processes.

    The ``flock`` belongs to the open file description taken at the outermost
    acquire, so a second ``Registry`` on the same root, in this process or
    another, is refused, and a holder that dies releases it with its fds.
    """

    def __init__(self, path: Path, wait: str = "block", timeout: float = 10.0):
        if wait not in ("block", "fail"):
            raise RegistryError(f"unknown lock wait mode: {wait}")
        self.path = path
        self.wait = wait
        self.timeout = timeout
        self._depth = 0  # guarded by holding _rlock
        self._fd: int | None = None  # guarded by holding _rlock
        self._rlock = threading.RLock()

    def acquire(self) -> None:
        if self.wait == "fail":
            acquired = self._rlock.acquire(blocking=False)
        else:
            acquired = self._rlock.acquire(timeout=self.timeout)
        if not acquired:
            raise LockHeldError(f"writer lock contended in-process for {self.path}")
        if self._depth == 0:
            try:
                self._acquire_file_lock()
            except BaseException:
                self._rlock.release()
                raise
        self._depth += 1

    def _acquire_file_lock(self) -> None:
        deadline = time.monotonic() + self.timeout
        fd = os.open(self.path, os.O_RDONLY)
        try:
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    break
                except BlockingIOError:
                    if self.wait == "fail" or time.monotonic() >= deadline:
                        raise LockHeldError(f"writer lock held at {self.path}") from None
                time.sleep(0.01)
        except BaseException:
            os.close(fd)
            raise
        self._fd = fd

    def release(self) -> None:
        if self._depth == 0:
            return
        self._depth -= 1
        if self._depth == 0:
            fd, self._fd = self._fd, None
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)
        self._rlock.release()

    def __enter__(self) -> "RegistryLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class Registry:
    """In-memory view over the append-only record files."""

    def __init__(self, root: str | Path, lock_wait: str = "block", lock_timeout: float = 10.0):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / INDEX_DIR).mkdir(exist_ok=True)
        for name in RECORD_LOGS:
            path = self.root / name
            if not path.exists():
                path.touch()
        self.lock = RegistryLock(self.root, wait=lock_wait, timeout=lock_timeout)
        self._skills: dict[str, SkillEntry] = {}
        self._skill_history: dict[str, list[dict]] = {}
        self._resources: dict[str, ResourceEntry] = {}
        self._locator_index: dict[str, str] = {}
        self._verifications: list[VerificationRecord] = []
        # (skill_id, layer) -> that pair's records in log order.
        self._attempts: dict[tuple[str, str], list[VerificationRecord]] = {}
        # Per index file, record id -> its rendered fragment. Every mutator
        # drops the fragments of the records it writes and ``_reload`` drops
        # them all, so the records to render are those without one.
        self._rendered: dict[str, dict[str, str]] = {"skills.json": {}, "resources.json": {}}
        # tree.snapshot fragments: node path -> (the node rendered, its fragment).
        self._tree_fragments: dict[treemod.NodePath, tuple[treemod.TreeNode, str]] = {}
        self._leaf_paths: dict[str, treemod.NodePath] = {}
        # Per log, (st_ino, st_size, st_mtime_ns) as last read or written here,
        # the byte length of its committed records and their line count.
        self._log_keys: dict[str, tuple[int, int, int]] = {}
        self._committed: dict[str, int] = {}
        self._lines: dict[str, int] = {}
        self._reload()

    # -- loading --------------------------------------------------------------

    def _read_records(self, name: str) -> list[tuple[int, dict]]:
        """Parse a log's committed records, the bytes up to its last newline,
        as ``(line number, record)`` pairs.

        A record is committed once its newline is in the file, and a record
        and its newline are written by one append, so an unterminated tail is
        a write that was never acknowledged (a writer killed mid-write, or
        one still writing). It is ignored, with a warning, and cut by the
        next append. A corrupt line before the last newline raises
        ``CorruptRecordError``. Sets the committed length and line count
        that ``_append`` continues from.

        Lines are decoded by ``util.json_objects``: each one on its own, to
        what ``json.loads`` gives it, but a record line without the cost of
        ``json.loads``' wrappers.
        """
        path = self.root / name
        try:
            with open(path, "rb") as handle:
                # The key of the bytes read, taken before the read: a write
                # racing the read then differs from it at the next resync.
                self._log_keys[name] = _log_key(os.fstat(handle.fileno()))
                data = handle.read()
        except FileNotFoundError:
            self._log_keys.pop(name, None)
            data = b""
        committed = data.rfind(b"\n") + 1
        if committed < len(data):
            _log.warning(
                "%s: ignoring %d bytes of an unterminated record at the end",
                path, len(data) - committed,
            )
            data = data[:committed]
        self._committed[name] = committed
        self._lines[name] = data.count(b"\n")

        def corrupt(line_no: int, detail: str) -> CorruptRecordError:
            return CorruptRecordError(name, line_no, detail)

        return list(json_objects(data.decode("utf-8"), corrupt))

    def _reload(self) -> None:
        """Rebuild the view from the three logs.

        Every skill line is checked as decoding it would check it
        (``Record.check_record``): a missing field is named by its line, and
        a field that does not convert raises. A skill's lines are kept, as
        read, as its history, and only its last line is decoded into its
        ``SkillEntry``: one entry per skill, not one per line. Resource and
        verification lines are each decoded.
        """
        for cache in self._rendered.values():
            cache.clear()
        self._skills.clear()
        self._skill_history.clear()
        self._resources.clear()
        self._locator_index.clear()
        self._verifications = []
        self._attempts = {}
        history = self._skill_history
        for line_no, record in self._read_records(SKILLS_FILE):
            _decode(SkillEntry.check_record, SKILLS_FILE, line_no, record)
            history.setdefault(record["id"], []).append(record)
        for skill_id, records in history.items():
            self._skills[skill_id] = SkillEntry.from_record(records[-1])
        for line_no, record in self._read_records(RESOURCES_FILE):
            self._add_resource(_decode(ResourceEntry.from_record, RESOURCES_FILE, line_no, record))
        for line_no, record in self._read_records(VERIFICATIONS_FILE):
            self._add_verification(
                _decode(VerificationRecord.from_record, VERIFICATIONS_FILE, line_no, record)
            )

    def _add_skill(self, entry: SkillEntry, record: dict) -> None:
        """Make ``entry``, whose record is ``record``, the skill's current state."""
        self._skills[entry.id] = entry
        self._rendered["skills.json"].pop(entry.id, None)
        self._skill_history.setdefault(entry.id, []).append(record)

    def _add_resource(self, entry: ResourceEntry) -> None:
        self._resources[entry.id] = entry
        self._rendered["resources.json"].pop(entry.id, None)
        self._locator_index[entry.locator] = entry.id

    def _add_verification(self, record: VerificationRecord) -> None:
        self._verifications.append(record)
        self._attempts.setdefault((record.skill_id, record.layer), []).append(record)

    def _resync_if_stale(self) -> None:
        """Reload when a log is not the file this registry last read or wrote.

        The key holds the inode, so a same-size replacement by another
        process shows even when it lands in the same mtime tick.
        """
        for name in RECORD_LOGS:
            try:
                key = _log_key(os.stat(self.root / name))
            except FileNotFoundError:
                key = None
            if key != self._log_keys.get(name):
                self._reload()
                return

    def _append(self, name: str, record: dict) -> int:
        """Append one record line; returns the log's line count, which is
        the record's line number. Caller holds the lock.

        The line and its newline go out in one ``O_APPEND`` write (continued
        after a short write), then one ``fsync``. A tail past the committed
        records, left by a writer killed mid-write, is cut off first: the
        lock is held, so no live append is cut.
        """
        path = self.root / name
        data = (canonical_json(record) + "\n").encode("utf-8")
        committed = self._committed[name]
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            size = os.fstat(fd).st_size
            if size > committed:
                _log.warning(
                    "%s: cutting %d bytes of an unterminated record at the end",
                    path, size - committed,
                )
                os.ftruncate(fd, committed)
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            os.fsync(fd)
            stat = os.fstat(fd)
        finally:
            os.close(fd)
        self._log_keys[name] = _log_key(stat)
        self._committed[name] = stat.st_size
        self._lines[name] += 1
        return self._lines[name]

    # -- accessors -------------------------------------------------------------

    def skills(self) -> list[SkillEntry]:
        return [self._skills[k] for k in sorted(self._skills)]

    def skill(self, skill_id: str) -> SkillEntry:
        entry = self._skills.get(skill_id)
        if entry is None:
            raise UnknownSkillError(f"unknown skill: {skill_id}")
        return entry

    def has_skill(self, skill_id: str) -> bool:
        return skill_id in self._skills

    def resources(self) -> list[ResourceEntry]:
        return [self._resources[k] for k in sorted(self._resources)]

    def resource(self, resource_id: str) -> ResourceEntry:
        entry = self._resources.get(resource_id)
        if entry is None:
            raise RegistryError(f"unknown resource: {resource_id}")
        return entry

    def resource_by_locator(self, locator: str) -> ResourceEntry | None:
        resource_id = self._locator_index.get(locator)
        return self._resources.get(resource_id) if resource_id else None

    def verifications(self, skill_id: str | None = None, layer: str | None = None) -> list[VerificationRecord]:
        if skill_id is not None and layer is not None:
            return list(self._attempts.get((skill_id, layer), ()))
        records = self._verifications
        if skill_id is not None:
            records = [r for r in records if r.skill_id == skill_id]
        if layer is not None:
            records = [r for r in records if r.layer == layer]
        return list(records)

    def skill_history(self, skill_id: str) -> list[dict]:
        return list(self._skill_history.get(skill_id, []))

    def replay_status(self, skill_id: str) -> str:
        """Status as reproduced by replaying the skill's history lines."""
        history = self._skill_history.get(skill_id)
        if not history:
            raise UnknownSkillError(f"unknown skill: {skill_id}")
        return history[-1]["status"]

    # -- mutations ---------------------------------------------------------------

    def _validate_entry(self, entry: SkillEntry) -> None:
        if not entry.id or any(c.isspace() for c in entry.id) or entry.id != entry.id.lower():
            raise InvalidStatusError(f"invalid skill id: {entry.id!r}")
        if entry.status not in SKILL_STATUSES:
            raise InvalidStatusError(f"invalid status: {entry.status!r}")
        if entry.confidence not in CONFIDENCES:
            raise InvalidStatusError(f"invalid confidence: {entry.confidence!r}")
        if not entry.name:
            raise InvalidStatusError("skill name must be non-empty")

    def _commit_skill(self, entry: SkillEntry) -> int:
        """Append the entry's record and make it current; returns the line.

        The one place a skill record changes. Caller holds the lock.
        """
        record = entry.to_record()
        line = self._append(SKILLS_FILE, record)
        self._add_skill(entry, record)
        return line

    def upsert_skill(self, entry: SkillEntry) -> Receipt:
        """Durable append of the full entry snapshot; one history line per call."""
        self._validate_entry(entry)
        with self.lock:
            self._resync_if_stale()
            current = self._skills.get(entry.id)
            if current is None:
                if entry.status != "untested":
                    raise InvalidStatusError(
                        f"new skill {entry.id} must enter as untested, not {entry.status}"
                    )
                created = True
            else:
                if current.leaf_path != entry.leaf_path:
                    raise IdCollisionError(
                        f"skill id {entry.id} already bound to leaf {current.leaf_path}"
                    )
                if entry.status != current.status and entry.status not in LEGAL_TRANSITIONS[current.status]:
                    raise IllegalTransitionError(entry.id, current.status, entry.status)
                created = False
            line = self._commit_skill(entry)
            return Receipt(id=entry.id, created=created, file=SKILLS_FILE, line=line)

    def record_resource(self, resource: ResourceEntry) -> Receipt:
        """Record a resource; duplicate locators collapse to one entry."""
        if resource.kind not in RESOURCE_KINDS:
            raise RegistryError(f"unknown resource kind: {resource.kind!r}")
        if not resource.locator:
            raise RegistryError("resource locator must be non-empty")
        with self.lock:
            self._resync_if_stale()
            existing = self.resource_by_locator(resource.locator)
            if existing is None:
                entry = replace(
                    resource,
                    id=resource.id or resource_id_for(resource.locator),
                    leaf_paths=sorted(resource.leaf_paths),
                )
                created = True
            else:
                merged_leaves = sorted(set(existing.leaf_paths) | set(resource.leaf_paths))
                if merged_leaves == existing.leaf_paths:
                    # Nothing new to say; keep history append-only but skip noise.
                    return Receipt(id=existing.id, created=False, file=RESOURCES_FILE, line=0)
                entry = replace(existing, leaf_paths=merged_leaves)
                created = False
            line = self._append(RESOURCES_FILE, entry.to_record())
            self._add_resource(entry)
            return Receipt(id=entry.id, created=created, file=RESOURCES_FILE, line=line)

    def _change(self, skill_id: str, cycle: int, **fields) -> SkillEntry:
        """Commit new ``fields`` of one skill at ``cycle``; returns the entry.

        A change that leaves every field as it is writes nothing. A status
        change must be a legal transition.
        """
        with self.lock:
            self._resync_if_stale()
            current = self.skill(skill_id)
            if all(getattr(current, name) == value for name, value in fields.items()):
                return current
            status = fields.get("status", current.status)
            if status != current.status and status not in LEGAL_TRANSITIONS[current.status]:
                raise IllegalTransitionError(skill_id, current.status, status)
            entry = replace(current, updated_cycle=cycle, **fields)
            self._commit_skill(entry)
            return entry

    def transition_skill(self, skill_id: str, status: str, cycle: int, merged_into: str | None = None) -> SkillEntry:
        """Explicit status transition; rejects anything off the machine."""
        if status not in SKILL_STATUSES:
            raise InvalidStatusError(f"invalid status: {status!r}")
        if merged_into is None:
            return self._change(skill_id, cycle, status=status)
        return self._change(skill_id, cycle, status=status, merged_into=merged_into)

    def relocate_skill(self, skill_id: str, new_leaf_path: str, cycle: int) -> SkillEntry:
        """Move a skill to another leaf.

        Only tree write-backs (merge and split commits) relocate skills;
        ordinary upserts treat a changed leaf_path as an id collision.
        """
        return self._change(skill_id, cycle, leaf_path=new_leaf_path)

    def set_novelty_decision(self, skill_id: str, decision: str, cycle: int) -> SkillEntry:
        return self._change(skill_id, cycle, novelty_decision=decision)

    def set_verification(
        self, skill_id: str, record: VerificationRecord, promote: bool = True
    ) -> SkillEntry:
        """Append a verification record; a passing execution promotes by default.

        With ``promote=False`` the outcome is recorded without a status change,
        which is how the pipeline defers promotion to the refresh stage.
        """
        if record.layer not in LAYERS:
            raise RegistryError(f"unknown layer: {record.layer!r}")
        if record.outcome not in OUTCOMES:
            raise RegistryError(f"unknown outcome: {record.outcome!r}")
        with self.lock:
            self._resync_if_stale()
            current = self.skill(skill_id)
            if record.skill_id != skill_id:
                raise RegistryError("record names a different skill")
            prior = len(self._attempts.get((skill_id, record.layer), ()))
            if record.attempt != prior + 1:
                raise RegistryError(
                    f"attempt {record.attempt} for {skill_id}/{record.layer} "
                    f"is not consecutive (expected {prior + 1})"
                )
            self._append(VERIFICATIONS_FILE, record.to_record())
            self._add_verification(record)
            if (
                promote
                and record.outcome == "pass"
                and record.layer == "execution"
                and current.status in ("untested", "repaired", "review")
            ):
                return self.transition_skill(skill_id, "verified", record.cycle)
            return current

    # -- views and checks -----------------------------------------------------------

    def view(self, current_cycle: int) -> "RegistryViewAdapter":
        return RegistryViewAdapter(self, current_cycle)

    def snapshot_stats(self, tree: treemod.DomainTree) -> LibraryStats:
        """Library statistics; raises ``InconsistencyError`` at the first skill
        whose leaf is missing, or pruned while the skill is still live."""
        for entry in self.skills():
            violation = self._leaf_violation(entry, tree)
            if violation is not None:
                raise InconsistencyError(violation)
        return self._stats(tree)

    def _stats(self, tree: treemod.DomainTree) -> LibraryStats:
        summary = treemod.coverage_summary(tree)
        present = [e for e in self._skills.values() if e.status != "removed"]
        adjudicated = [e for e in self._skills.values() if e.novelty_decision is not None]
        novel = [e for e in adjudicated if e.novelty_decision == "novel"]
        fraction = len(novel) / len(adjudicated) if adjudicated else 0.0
        return LibraryStats(
            skill_count=len(present),
            verified_count=sum(1 for e in present if e.status == "verified"),
            domain_count=summary["domains"],
            subdomain_count=summary["subdomains"],
            resource_count=len(self._resources),
            novel_fraction=fraction,
        )

    def _leaf_path(self, text: str) -> treemod.NodePath:
        """``parse_path`` of a skill's leaf path, memoised per distinct text."""
        path = self._leaf_paths.get(text)
        if path is None:
            path = self._leaf_paths[text] = treemod.parse_path(text)
        return path

    def _leaf_violation(self, entry: SkillEntry, tree: treemod.DomainTree) -> str | None:
        """Why ``entry``'s leaf reference is broken: its leaf is missing, or
        pruned while the skill is still live. None when it is sound."""
        node = tree.nodes.get(self._leaf_path(entry.leaf_path))
        if node is None:
            return f"skill {entry.id} references missing leaf {entry.leaf_path}"
        if node.status == "pruned" and entry.status not in ("deprecated", "removed"):
            return f"skill {entry.id} points at pruned leaf {entry.leaf_path} without deprecation"
        return None

    def integrity_check(self, tree: treemod.DomainTree) -> list[str]:
        """Cross-reference and state-machine scan; violations are data.

        Every skill, node and attempt key is examined; only the offending
        ids and keys are sorted, so a healthy library costs one pass.
        """
        violations: list[str] = []
        violations.extend(treemod.check_invariants(tree))

        for entry in self.skills():
            leaf_violation = self._leaf_violation(entry, tree)
            if leaf_violation is not None:
                violations.append(leaf_violation)
            history = self._skill_history.get(entry.id, [])
            if history:
                if history[0]["status"] != "untested":
                    violations.append(f"skill {entry.id} history does not start at untested")
                prev = history[0]["status"]
                for record in history[1:]:
                    status = record["status"]
                    if status != prev and status not in LEGAL_TRANSITIONS[prev]:
                        violations.append(
                            f"skill {entry.id} history contains illegal transition {prev} -> {status}"
                        )
                    prev = status
                if prev != entry.status:
                    violations.append(f"skill {entry.id} replay mismatch: {prev} != {entry.status}")
            if entry.status == "verified" and not any(
                r.outcome == "pass" for r in self._attempts.get((entry.id, "execution"), ())
            ):
                violations.append(f"verified skill {entry.id} has no passing execution record")

        for node in tree.nodes.values():
            for skill_id in sorted(s for s in node.linked_skills if s not in self._skills):
                violations.append(
                    f"node {treemod.format_path(node.path)} links unknown skill {skill_id}"
                )
            for resource_id in sorted(r for r in node.linked_resources if r not in self._resources):
                violations.append(
                    f"node {treemod.format_path(node.path)} links unknown resource {resource_id}"
                )

        found: list[tuple[tuple[str, str], str]] = []
        for (skill_id, layer), records in self._attempts.items():
            attempts = [r.attempt for r in records]
            if attempts != list(range(1, len(attempts) + 1)):
                found.append(
                    ((skill_id, layer),
                     f"attempts for {skill_id}/{layer} are not consecutive from 1: {attempts}")
                )
            if skill_id not in self._skills:
                found.append(
                    ((skill_id, layer), f"verification records reference unknown skill {skill_id}")
                )
        found.sort(key=lambda item: item[0])  # stable: a key's messages keep their order
        violations.extend(message for _, message in found)

        return violations

    # -- refresh-owned persistence ------------------------------------------------

    def save_tree(self, tree: treemod.DomainTree) -> None:
        with self.lock:
            atomic_write_text(self.root / TREE_SNAPSHOT, self._render_tree(tree))

    def _render_tree(self, tree: treemod.DomainTree) -> str:
        """``dump_json_doc(tree_to_document(tree))``, re-rendering only the
        nodes that are not the very ``TreeNode`` objects rendered last time.

        Tree operations are copy-on-write over frozen nodes, so a node object
        that was rendered before still has the same document.
        """
        if not tree.nodes:
            return dump_json_doc(treemod.tree_to_document(tree))
        cache = self._tree_fragments
        stale = [
            (path, node)
            for path, node in tree.nodes.items()
            if (cached := cache.get(path)) is None or cached[0] is not node
        ]
        if stale:
            fragments = _render_records([treemod.node_to_document(node) for _, node in stale])
            for (path, node), fragment in zip(stale, fragments):
                # One level deeper than a top-level list's elements.
                cache[path] = (node, "  " + fragment.replace("\n", "\n  "))
        if len(cache) != len(tree.nodes):
            self._tree_fragments = cache = {path: cache[path] for path in tree.nodes}
        body = ",\n".join([cache[path][1] for path in tree.nodes])
        return '{\n  "nodes": [\n' + body + "\n  ]\n}\n"

    def load_tree_snapshot(self) -> treemod.DomainTree | None:
        path = self.root / TREE_SNAPSHOT
        if not path.exists():
            return None
        return treemod.tree_from_document(json.loads(path.read_text("utf-8")))

    def compact_index(self, tree: treemod.DomainTree | None = None) -> None:
        """Rewrite the compacted views: at initialization, when refresh or a
        design commits, and after an evaluation phase changed a skill's status.

        The stats are not checked against the tree here: a commit runs
        ``integrity_check``, which makes the same leaf checks, before this."""
        with self.lock:
            index = self.root / INDEX_DIR
            atomic_write_text(
                index / "skills.json", self._render_index("skills.json", self._skills)
            )
            atomic_write_text(
                index / "resources.json", self._render_index("resources.json", self._resources)
            )
            if tree is not None:
                atomic_write_text(
                    index / "stats.json", dump_json_doc(self._stats(tree).to_record())
                )

    def _render_index(
        self, name: str, table: dict[str, SkillEntry] | dict[str, ResourceEntry]
    ) -> str:
        """``dump_json_doc`` of the records in id order, rendering only the
        records written since the last compaction (those without a fragment)."""
        if not table:
            return "[]\n"
        cache = self._rendered[name]
        ids = sorted(table)
        stale = [record_id for record_id in ids if record_id not in cache]
        if stale:
            fragments = _render_records([table[record_id].to_record() for record_id in stale])
            cache.update(zip(stale, fragments))
        return "[\n" + ",\n".join([cache[record_id] for record_id in ids]) + "\n]\n"


# ``dump_json_doc``'s settings, in an encoder built once.
_PRETTY = json.JSONEncoder(sort_keys=True, indent=2, ensure_ascii=False)


def _render_records(records: list[dict]) -> list[str]:
    """Each record as ``dump_json_doc`` prints it as an element of a list.

    One encoding of the whole list, split between its elements: JSON escapes
    newlines inside strings, so ``",\\n  {"`` (a line at the list's indent
    opening an object) occurs only where one element ends and the next begins.
    """
    first, *rest = _PRETTY.encode(records)[2:-2].split(",\n  {")
    return [first] + ["  {" + fragment for fragment in rest]


def _decode(decode, name: str, line_no: int, record: dict):
    """``decode(record)``; a missing field is a ``CorruptRecordError`` at its line."""
    try:
        return decode(record)
    except KeyError as exc:
        raise CorruptRecordError(name, line_no, f"missing field {exc}") from None


def _log_key(stat: os.stat_result) -> tuple[int, int, int]:
    return (stat.st_ino, stat.st_size, stat.st_mtime_ns)


def open_registry(root_dir: str | Path, lock_wait: str = "block", lock_timeout: float = 10.0) -> Registry:
    """Open (or initialize) a registry directory."""
    return Registry(root_dir, lock_wait=lock_wait, lock_timeout=lock_timeout)


class RegistryViewAdapter:
    """Read-only adapter satisfying the tree module's RegistryView protocol."""

    def __init__(self, registry: Registry, current_cycle: int):
        self._registry = registry
        self.current_cycle = current_cycle

    def skill_status(self, skill_id: str) -> str | None:
        entry = self._registry._skills.get(skill_id)
        return entry.status if entry else None

    def skill_confidence(self, skill_id: str) -> str | None:
        entry = self._registry._skills.get(skill_id)
        return entry.confidence if entry else None

    def skill_activity_cycle(self, skill_id: str) -> int:
        entry = self._registry._skills.get(skill_id)
        return entry.updated_cycle if entry else 0

    def resource_activity_cycle(self, resource_id: str) -> int:
        entry = self._registry._resources.get(resource_id)
        return entry.retrieved_cycle if entry else 0
