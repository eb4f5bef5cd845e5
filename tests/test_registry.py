"""Registry store: durability, history, state machine, integrity."""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillmine import registry as registrymod
from skillmine import tree as treemod
from skillmine.errors import (
    CorruptRecordError,
    IdCollisionError,
    IllegalTransitionError,
    InconsistencyError,
    InvalidStatusError,
    LockHeldError,
    RegistryError,
    TreeOperationError,
    UnknownSkillError,
)
from skillmine.registry import (
    LAYERS,
    LEGAL_TRANSITIONS,
    OUTCOMES,
    RESOURCE_KINDS,
    SKILL_STATUSES,
    ResourceEntry,
    SkillEntry,
    VerificationRecord,
    open_registry,
    skill_id_for,
)
from skillmine.util import canonical_json, dump_json_doc


def entry(skill_id="align-reads", leaf="science/genomics/alignment/short-read-alignment", **kw):
    base = dict(
        id=skill_id,
        name="Align reads",
        leaf_path=leaf,
        status="untested",
        package_path=f"skills/{skill_id}",
        smoke_target="python3 tests/smoke.py",
        provenance=["res-1"],
        created_cycle=1,
        updated_cycle=1,
        confidence="standard",
    )
    base.update(kw)
    return SkillEntry(**base)


@pytest.fixture
def registry(tmp_path):
    return open_registry(tmp_path / "library")


def test_open_empty_directory(registry):
    assert registry.skills() == []
    assert registry.resources() == []


def test_upsert_round_trips_field_for_field(tmp_path, registry):
    original = entry()
    registry.upsert_skill(original)
    reopened = open_registry(tmp_path / "library")
    assert reopened.skill("align-reads") == original


def test_upsert_appends_history_line(registry):
    registry.upsert_skill(entry())
    registry.upsert_skill(entry(status="verified"))
    assert len(registry.skills()) == 1
    assert len(registry.skill_history("align-reads")) == 2


def test_new_skill_must_start_untested(registry):
    with pytest.raises(InvalidStatusError):
        registry.upsert_skill(entry(status="verified"))


def test_id_collision_on_different_leaf(registry):
    registry.upsert_skill(entry())
    with pytest.raises(IdCollisionError):
        registry.upsert_skill(entry(leaf="science/imaging/microscopy/segmentation"))


def test_corrupt_record_names_file_and_line(tmp_path):
    root = tmp_path / "library"
    registry = open_registry(root)
    for i in range(3):
        registry.upsert_skill(entry(skill_id=f"ok-{i}"))
    skills_file = root / "skills.ndjson"
    good = canonical_json(entry(skill_id="ok-3").to_record()).encode("utf-8")
    skills_file.write_bytes(skills_file.read_bytes() + b'{"id": "trunc\n' + good + b"\n")
    with pytest.raises(CorruptRecordError) as excinfo:
        open_registry(root)
    assert "skills.ndjson" in str(excinfo.value)
    assert excinfo.value.line == 4


def test_record_missing_a_field_is_named_by_its_line_not_its_position(tmp_path):
    root = tmp_path / "library"
    root.mkdir()
    (root / "skills.ndjson").write_text('\n\n{"id": "x"}\n', encoding="utf-8")
    with pytest.raises(CorruptRecordError, match="missing field") as excinfo:
        open_registry(root)
    assert excinfo.value.line == 3


@pytest.mark.parametrize(
    "tail",
    [
        b'{"id": "trunc',  # unterminated JSON
        canonical_json(entry(skill_id="torn").to_record()).encode("utf-8"),  # no newline
    ],
    ids=["unterminated-json", "complete-json-without-newline"],
)
def test_a_torn_tail_is_ignored_at_open_and_cut_by_the_next_append(tmp_path, caplog, tail):
    root = tmp_path / "library"
    registry = open_registry(root)
    for i in range(3):
        registry.upsert_skill(entry(skill_id=f"ok-{i}"))
    skills_file = root / "skills.ndjson"
    committed = skills_file.read_bytes()
    skills_file.write_bytes(committed + tail)

    with caplog.at_level("WARNING", logger="skillmine.registry"):
        reopened = open_registry(root)
    assert [s.id for s in reopened.skills()] == ["ok-0", "ok-1", "ok-2"]
    assert [r.getMessage() for r in caplog.records] == [
        f"{skills_file}: ignoring {len(tail)} bytes of an unterminated record at the end"
    ]
    assert skills_file.read_bytes() == committed + tail  # a reader never cuts

    caplog.clear()
    with caplog.at_level("WARNING", logger="skillmine.registry"):
        receipt = reopened.upsert_skill(entry(skill_id="ok-3"))
    assert [r.getMessage() for r in caplog.records] == [
        f"{skills_file}: cutting {len(tail)} bytes of an unterminated record at the end"
    ]
    new_line = canonical_json(entry(skill_id="ok-3").to_record()) + "\n"
    assert skills_file.read_bytes() == committed + new_line.encode("utf-8")
    assert receipt.line == 4
    assert [s.id for s in open_registry(root).skills()] == ["ok-0", "ok-1", "ok-2", "ok-3"]


def test_a_registry_open_before_a_crash_cuts_the_tail_it_left(tmp_path):
    root = tmp_path / "library"
    registry = open_registry(root)
    registry.upsert_skill(entry(skill_id="ok-0"))
    log = root / "verifications.ndjson"
    log.write_bytes(b'{"skill_id": "ok-0", "la')  # a writer killed mid-write
    registry.set_verification("ok-0", VerificationRecord("ok-0", "execution", "pass", 1))
    assert log.read_bytes() == (
        canonical_json(VerificationRecord("ok-0", "execution", "pass", 1).to_record()) + "\n"
    ).encode("utf-8")
    assert open_registry(root).skill("ok-0").status == "verified"


def test_receipt_line_is_the_log_line_count(tmp_path):
    root = tmp_path / "library"
    skills_file = root / "skills.ndjson"
    first = open_registry(root)

    def line_count() -> int:
        return skills_file.read_bytes().count(b"\n")

    assert first.upsert_skill(entry(skill_id="s-0")).line == 1 == line_count()
    assert first.upsert_skill(entry(skill_id="s-0", name="Renamed")).line == 2 == line_count()
    with skills_file.open("ab") as handle:
        handle.write(b"\n")  # a blank line is a line, though not a record
    reloaded = open_registry(root)
    assert reloaded.upsert_skill(entry(skill_id="s-1")).line == 4 == line_count()
    # ``first`` resyncs before its next append and counts the lines it missed.
    assert first.upsert_skill(entry(skill_id="s-2")).line == 5 == line_count()
    resources = root / "resources.ndjson"
    receipt = first.record_resource(ResourceEntry("", "paper", "https://example.org/p", ["a/b"]))
    assert receipt.line == 1 == resources.read_bytes().count(b"\n")


def test_durability_after_simulated_kill(tmp_path):
    root = tmp_path / "library"
    registry = open_registry(root)
    registry.upsert_skill(entry())
    # a new process-like reader sees the entry without any close/flush step
    fresh = open_registry(root)
    assert fresh.has_skill("align-reads")


def test_names_with_unicode_line_separators_survive_a_reload(tmp_path):
    root = tmp_path / "library"
    registry = open_registry(root)
    for i, name in enumerate(("next\x85line", "line\u2028separator", "para\u2029graph")):
        registry.upsert_skill(entry(skill_id=f"s-{i}", name=name))
    reloaded = open_registry(root)
    assert [e.name for e in reloaded.skills()] == [e.name for e in registry.skills()]


# -- resources -----------------------------------------------------------------


def test_record_resource_and_dedup(registry):
    first = registry.record_resource(
        ResourceEntry(id="", kind="repository", locator="https://x/repo", leaf_paths=["a/b"])
    )
    duplicate = registry.record_resource(
        ResourceEntry(id="", kind="repository", locator="https://x/repo", leaf_paths=["a/b"])
    )
    assert first.id == duplicate.id
    assert len(registry.resources()) == 1


def test_record_resource_unions_leaves(registry):
    registry.record_resource(
        ResourceEntry(id="", kind="paper", locator="https://x/p", leaf_paths=["a/b"])
    )
    receipt = registry.record_resource(
        ResourceEntry(id="", kind="paper", locator="https://x/p", leaf_paths=["a/c"])
    )
    assert sorted(registry.resource(receipt.id).leaf_paths) == ["a/b", "a/c"]


def test_resource_kind_validated(registry):
    with pytest.raises(RegistryError):
        registry.record_resource(ResourceEntry(id="", kind="blog", locator="https://x"))


def test_paper_shaped_resource_count(registry):
    for i in range(394):
        registry.record_resource(
            ResourceEntry(id="", kind="repository", locator=f"https://x/repo-{i}", leaf_paths=["a"])
        )
    assert len(registry.resources()) == 394


# -- verification state machine ---------------------------------------------------


def test_pass_promotes_untested_to_verified(registry):
    registry.upsert_skill(entry())
    updated = registry.set_verification(
        "align-reads",
        VerificationRecord(
            skill_id="align-reads", layer="execution", outcome="pass", attempt=1, cycle=1
        ),
    )
    assert updated.status == "verified"


def test_fail_keeps_status_and_records(registry):
    registry.upsert_skill(entry())
    updated = registry.set_verification(
        "align-reads",
        VerificationRecord(
            skill_id="align-reads", layer="execution", outcome="fail", attempt=1, cycle=1
        ),
    )
    assert updated.status == "untested"
    assert len(registry.verifications("align-reads")) == 1


def test_verified_to_untested_is_illegal(registry):
    registry.upsert_skill(entry())
    registry.transition_skill("align-reads", "verified", cycle=1)
    with pytest.raises(IllegalTransitionError) as excinfo:
        registry.transition_skill("align-reads", "untested", cycle=2)
    assert excinfo.value.source == "verified"
    assert excinfo.value.target == "untested"


def test_attempts_must_be_consecutive(registry):
    registry.upsert_skill(entry())
    with pytest.raises(RegistryError):
        registry.set_verification(
            "align-reads",
            VerificationRecord(
                skill_id="align-reads", layer="execution", outcome="fail", attempt=2, cycle=1
            ),
        )


def test_unknown_skill_rejected(registry):
    with pytest.raises(UnknownSkillError):
        registry.set_verification(
            "ghost",
            VerificationRecord(skill_id="ghost", layer="execution", outcome="pass", attempt=1),
        )


def test_no_path_back_to_verified_from_terminal_states():
    reachable = {"untested"}
    frontier = ["untested"]
    while frontier:
        status = frontier.pop()
        for target in LEGAL_TRANSITIONS[status]:
            if target not in reachable:
                reachable.add(target)
                frontier.append(target)
    assert reachable == set(SKILL_STATUSES)
    for terminal in ("deprecated", "removed"):
        assert not LEGAL_TRANSITIONS[terminal]


def test_history_replay_matches_current(registry):
    registry.upsert_skill(entry())
    registry.transition_skill("align-reads", "repaired", cycle=1)
    registry.transition_skill("align-reads", "verified", cycle=2)
    registry.transition_skill("align-reads", "review", cycle=3)
    assert registry.replay_status("align-reads") == "review"
    assert registry.skill("align-reads").status == "review"


# -- stats and integrity ------------------------------------------------------------


@pytest.fixture
def tree():
    return treemod.load_tree(
        "root\n  alpha\n    one *\n    two *\n  beta\n    three *\n"
    )


def test_snapshot_stats_counts(registry, tree):
    for i, leaf in enumerate(["root/alpha/one", "root/alpha/one", "root/beta/three"]):
        registry.upsert_skill(entry(skill_id=f"s-{i}", leaf=leaf))
    registry.set_novelty_decision("s-0", "novel", 1)
    registry.set_novelty_decision("s-1", "novel", 1)
    registry.set_novelty_decision("s-2", "redundant", 1)
    stats = registry.snapshot_stats(tree)
    assert stats.skill_count == 3
    assert stats.domain_count == 2
    assert stats.novel_fraction == pytest.approx(2 / 3)


def test_snapshot_stats_rejects_missing_leaf(registry, tree):
    registry.upsert_skill(entry(skill_id="lost", leaf="root/alpha/ghost"))
    with pytest.raises(InconsistencyError):
        registry.snapshot_stats(tree)


def test_snapshot_stats_rejects_pruned_leaf_without_deprecation(registry, tree):
    registry.upsert_skill(entry(skill_id="s", leaf="root/alpha/one"))
    pruned = treemod.prune_leaf(tree, treemod.parse_path("root/alpha/one"), "stale")
    with pytest.raises(InconsistencyError):
        registry.snapshot_stats(pruned)


def test_integrity_clean_on_fresh_state(registry, tree):
    assert registry.integrity_check(tree) == []


def test_integrity_flags_verified_without_pass_record(tmp_path, tree):
    root = tmp_path / "library"
    registry = open_registry(root)
    registry.upsert_skill(entry(skill_id="sneaky", leaf="root/alpha/one"))
    registry.transition_skill("sneaky", "verified", cycle=1)
    violations = registry.integrity_check(tree)
    assert any("sneaky" in v and "passing execution" in v for v in violations)


def test_integrity_flags_unknown_tree_links(registry, tree):
    linked = treemod.link_skill(tree, treemod.parse_path("root/alpha/one"), "phantom")
    violations = registry.integrity_check(linked)
    assert any("phantom" in v for v in violations)


def reference_integrity_check(registry, tree) -> list[str]:
    """The full scan ``integrity_check`` replaced: one filter over every
    verification record per verified skill, then a per-check attempt map."""
    violations: list[str] = []
    violations.extend(treemod.check_invariants(tree))
    all_records = registry.verifications()
    for item in registry.skills():
        node = tree.nodes.get(treemod.parse_path(item.leaf_path))
        if node is None:
            violations.append(f"skill {item.id} references missing leaf {item.leaf_path}")
        elif node.status == "pruned" and item.status not in ("deprecated", "removed"):
            violations.append(
                f"skill {item.id} points at pruned leaf {item.leaf_path} without deprecation"
            )
        history = registry.skill_history(item.id)
        if history:
            if history[0]["status"] != "untested":
                violations.append(f"skill {item.id} history does not start at untested")
            prev = history[0]["status"]
            for record in history[1:]:
                status = record["status"]
                if status != prev and status not in LEGAL_TRANSITIONS[prev]:
                    violations.append(
                        f"skill {item.id} history contains illegal transition {prev} -> {status}"
                    )
                prev = status
            if prev != item.status:
                violations.append(f"skill {item.id} replay mismatch: {prev} != {item.status}")
        if item.status == "verified":
            passes = [
                r
                for r in all_records
                if r.skill_id == item.id and r.layer == "execution" and r.outcome == "pass"
            ]
            if not passes:
                violations.append(f"verified skill {item.id} has no passing execution record")
    for node in tree.nodes.values():
        for skill_id in sorted(node.linked_skills):
            if not registry.has_skill(skill_id):
                violations.append(
                    f"node {treemod.format_path(node.path)} links unknown skill {skill_id}"
                )
        for resource_id in sorted(node.linked_resources):
            if resource_id not in {r.id for r in registry.resources()}:
                violations.append(
                    f"node {treemod.format_path(node.path)} links unknown resource {resource_id}"
                )
    by_key: dict[tuple[str, str], list[int]] = {}
    for record in all_records:
        by_key.setdefault((record.skill_id, record.layer), []).append(record.attempt)
    for (skill_id, layer), attempts in sorted(by_key.items()):
        if attempts != list(range(1, len(attempts) + 1)):
            violations.append(
                f"attempts for {skill_id}/{layer} are not consecutive from 1: {attempts}"
            )
        if not registry.has_skill(skill_id):
            violations.append(f"verification records reference unknown skill {skill_id}")
    return violations


INTEGRITY_TREE = "root\n  alpha\n    one *\n    two *\n  beta\n    three *\n"
LEAVES = ("root/alpha/one", "root/alpha/two", "root/beta/three")
PLANTS = ("gap", "unknown-skill", "illegal-history", "missing-leaf", "pruned-leaf", "phantom-link")

skill_plans = st.lists(
    st.tuples(
        st.sampled_from(LEAVES),
        st.lists(st.integers(0, 2), max_size=4),  # picks among legal next statuses
        st.lists(st.tuples(st.sampled_from(LAYERS), st.sampled_from(OUTCOMES)), max_size=5),
    ),
    max_size=6,
)


def _append_line(path: Path, record: dict) -> None:
    with path.open("a", encoding="utf-8") as handle:
        handle.write(canonical_json(record) + "\n")


@settings(max_examples=120, deadline=None)
@given(plans=skill_plans, plants=st.sets(st.sampled_from(PLANTS)))
def test_integrity_check_equals_the_full_scan(plans, plants):
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch) / "library"
        registry = open_registry(root)
        tree = treemod.load_tree(INTEGRITY_TREE)
        for i, (leaf, steps, checks) in enumerate(plans):
            skill_id = f"s-{i}"
            registry.upsert_skill(entry(skill_id=skill_id, leaf=leaf))
            tree = treemod.link_skill(tree, treemod.parse_path(leaf), skill_id)
            for layer, outcome in checks:
                attempt = len(registry.verifications(skill_id, layer)) + 1
                registry.set_verification(
                    skill_id,
                    VerificationRecord(skill_id, layer, outcome, attempt, cycle=1),
                    promote=False,
                )
            for pick in steps:
                targets = sorted(LEGAL_TRANSITIONS[registry.skill(skill_id).status])
                if targets:
                    registry.transition_skill(skill_id, targets[pick % len(targets)], cycle=2)
        verifications = root / "verifications.ndjson"
        if "gap" in plants:
            skill_id = "s-0" if plans else "ghost"
            attempt = len(registry.verifications(skill_id, "execution")) + 2
            _append_line(verifications, VerificationRecord(skill_id, "execution", "pass", attempt).to_record())
        if "unknown-skill" in plants:
            _append_line(verifications, VerificationRecord("ghost", "system", "fail", 1).to_record())
        if "illegal-history" in plants:
            _append_line(root / "skills.ndjson", entry(skill_id="jumper", status="verified").to_record())
        if "missing-leaf" in plants:
            registry.upsert_skill(entry(skill_id="lost", leaf="root/alpha/ghost"))
        if "pruned-leaf" in plants:
            registry.upsert_skill(entry(skill_id="stranded", leaf="root/beta/three"))
            tree = treemod.prune_leaf(tree, treemod.parse_path("root/beta/three"), "stale")
        if "phantom-link" in plants:
            tree = treemod.link_skill(tree, treemod.parse_path("root/alpha/two"), "phantom")

        for view in (registry, open_registry(root)):
            violations = view.integrity_check(tree)
            assert violations == reference_integrity_check(view, tree)
        planted = {
            "gap": "not consecutive",
            "unknown-skill": "reference unknown skill ghost",
            "illegal-history": "jumper history does not start at untested",
            "missing-leaf": "lost references missing leaf",
            "pruned-leaf": "stranded points at pruned leaf",
            "phantom-link": "links unknown skill phantom",
        }
        for plant in plants:
            assert any(planted[plant] in v for v in violations), plant


def test_verifications_by_skill_and_layer_keep_log_order(registry):
    registry.upsert_skill(entry())
    registry.upsert_skill(entry(skill_id="other"))
    for attempt, outcome in enumerate(("fail", "error", "pass"), start=1):
        registry.set_verification(
            "align-reads",
            VerificationRecord("align-reads", "synthetic", outcome, attempt),
            promote=False,
        )
        registry.set_verification(
            "other", VerificationRecord("other", "synthetic", "fail", attempt), promote=False
        )
    indexed = registry.verifications("align-reads", "synthetic")
    assert [r.outcome for r in indexed] == ["fail", "error", "pass"]
    assert indexed == [
        r for r in registry.verifications() if r.skill_id == "align-reads" and r.layer == "synthetic"
    ]
    indexed.clear()  # callers get a copy
    assert len(registry.verifications("align-reads", "synthetic")) == 3
    assert registry.verifications("align-reads", "execution") == []


# -- locking ---------------------------------------------------------------------


def test_fail_fast_lock(tmp_path):
    root = tmp_path / "library"
    first = open_registry(root, lock_wait="fail")
    second = open_registry(root, lock_wait="fail")
    first.lock.acquire()
    try:
        with pytest.raises(LockHeldError):
            second.lock.acquire()
    finally:
        first.lock.release()


def test_lock_is_reentrant(tmp_path):
    registry = open_registry(tmp_path / "library")
    with registry.lock:
        with registry.lock:
            registry.upsert_skill(entry())
    assert not (tmp_path / "library" / "LOCK").exists()


def _writer_process(root: str, worker: int, count: int) -> None:
    registry = open_registry(root, lock_wait="block", lock_timeout=30.0)
    for i in range(count):
        registry.upsert_skill(
            SkillEntry(
                id=f"w{worker}-s{i}",
                name=f"skill {worker}/{i}",
                leaf_path="root/alpha/one",
                status="untested",
                package_path=f"skills/w{worker}-s{i}",
                provenance=["res-1"],
            )
        )


def test_concurrent_threads_on_one_registry_lose_no_updates(tmp_path):
    import threading

    registry = open_registry(tmp_path / "library", lock_wait="block", lock_timeout=30.0)
    errors: list[Exception] = []

    def writer(thread: int) -> None:
        try:
            for i in range(10):
                registry.upsert_skill(
                    SkillEntry(
                        id=f"t{thread}-s{i}",
                        name=f"skill {thread}/{i}",
                        leaf_path="root/alpha/one",
                        status="untested",
                        package_path=f"skills/t{thread}-s{i}",
                        provenance=["res-1"],
                    )
                )
        except Exception as exc:  # surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(t,)) for t in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert len(registry.skills()) == 40
    lines = (tmp_path / "library" / "skills.ndjson").read_text().splitlines()
    assert len(lines) == 40


def test_concurrent_writers_lose_no_updates(tmp_path):
    root = tmp_path / "library"
    open_registry(root)  # initialize layout
    workers, per_worker = 4, 6
    processes = [
        multiprocessing.Process(target=_writer_process, args=(str(root), w, per_worker))
        for w in range(workers)
    ]
    for proc in processes:
        proc.start()
    for proc in processes:
        proc.join(timeout=60)
        assert proc.exitcode == 0
    merged = open_registry(root)
    assert len(merged.skills()) == workers * per_worker
    lines = (root / "skills.ndjson").read_text().splitlines()
    assert len(lines) == workers * per_worker


def _hold_lock(root: str, ready) -> None:
    registry = open_registry(root)
    registry.lock.acquire()
    ready.set()
    time.sleep(120)


def test_killed_lock_holder_releases_the_lock(tmp_path):
    root = tmp_path / "library"
    open_registry(root)
    context = multiprocessing.get_context("spawn")
    ready = context.Event()
    holder = context.Process(target=_hold_lock, args=(str(root), ready))
    holder.start()
    try:
        assert ready.wait(timeout=60)
        with pytest.raises(LockHeldError):
            open_registry(root, lock_wait="fail").upsert_skill(entry())
    finally:
        holder.kill()
        holder.join(timeout=30)
    assert not holder.is_alive()
    assert holder.exitcode == -signal.SIGKILL
    writer = open_registry(root, lock_wait="fail")
    assert writer.upsert_skill(entry()).created


def test_lock_file_left_by_an_older_registry_does_not_block(tmp_path):
    root = tmp_path / "library"
    open_registry(root)
    (root / "LOCK").write_text("99999")
    registry = open_registry(root, lock_wait="fail")
    assert registry.upsert_skill(entry()).created


# -- ids ------------------------------------------------------------------------


def test_skill_id_for_is_deterministic_and_collision_suffixed():
    taken: set[str] = set()
    first = skill_id_for("a/b/short-read-alignment", "BWA Align", taken)
    assert first == "short-read-alignment-bwa-align"
    taken.add(first)
    second = skill_id_for("a/b/short-read-alignment", "BWA Align", taken)
    assert second == "short-read-alignment-bwa-align-2"


def test_index_compaction_writes_sorted_views(tmp_path, tree):
    root = tmp_path / "library"
    registry = open_registry(root)
    registry.upsert_skill(entry(skill_id="zz", leaf="root/alpha/one"))
    registry.upsert_skill(entry(skill_id="aa", leaf="root/alpha/one"))
    registry.compact_index(tree)
    compacted = json.loads((root / "index" / "skills.json").read_text())
    assert [row["id"] for row in compacted] == ["aa", "zz"]
    stats = json.loads((root / "index" / "stats.json").read_text())
    assert stats["skill_count"] == 2


def _index_bytes(root: Path) -> tuple[bytes, bytes]:
    index = root / "index"
    return (index / "skills.json").read_bytes(), (index / "resources.json").read_bytes()


def _full_render(registry) -> tuple[bytes, bytes]:
    return (
        dump_json_doc([e.to_record() for e in registry.skills()]).encode("utf-8"),
        dump_json_doc([r.to_record() for r in registry.resources()]).encode("utf-8"),
    )


names = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=12)
index_ops = st.lists(
    st.one_of(
        st.tuples(st.just("upsert"), names, st.sampled_from(LEAVES)),
        st.tuples(st.just("transition"), st.integers(0, 9), st.integers(0, 2)),
        st.tuples(st.just("novelty"), st.integers(0, 9), st.sampled_from(["novel", "merge", "redundant"])),
        st.tuples(st.just("toggle"), st.integers(0, 9), st.just("")),
        st.tuples(st.just("relocate"), st.integers(0, 9), st.sampled_from(LEAVES)),
        st.tuples(st.just("resource"), names, st.sampled_from(RESOURCE_KINDS)),
        st.tuples(st.just("compact"), st.just(0), st.just("")),
    ),
    max_size=25,
)


@settings(max_examples=80, deadline=None)
@given(ops=index_ops)
def test_compacted_index_equals_a_full_render(ops):
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch) / "library"
        registry = open_registry(root)
        registry.compact_index()
        assert _index_bytes(root) == (b"[]\n", b"[]\n") == _full_render(registry)

        def pick(n: int) -> str | None:
            ids = [e.id for e in registry.skills()]
            return ids[n % len(ids)] if ids else None

        for kind, arg, value in ops:
            if kind == "upsert":
                skill_id = f"s-{len(registry.skills())}"
                registry.upsert_skill(entry(skill_id=skill_id, name=arg, leaf=value, provenance=[arg]))
            elif kind == "resource":
                registry.record_resource(
                    ResourceEntry(id="", kind=value, locator=f"https://example.org/{arg}", leaf_paths=[arg])
                )
            elif kind == "compact":
                registry.compact_index()
                assert _index_bytes(root) == _full_render(registry)
            elif (skill_id := pick(arg)) is None:
                continue
            elif kind == "transition":
                targets = sorted(LEGAL_TRANSITIONS[registry.skill(skill_id).status])
                if targets:
                    registry.transition_skill(skill_id, targets[value % len(targets)], cycle=3)
            elif kind == "novelty":
                registry.set_novelty_decision(skill_id, value, cycle=4)
            elif kind == "relocate":
                registry.relocate_skill(skill_id, value, cycle=5)
            else:  # a record changed, compacted, then changed back
                before = registry.skill(skill_id)
                registry.set_novelty_decision(skill_id, "toggled", cycle=before.updated_cycle)
                registry.compact_index()
                assert _index_bytes(root) == _full_render(registry)
                registry.set_novelty_decision(skill_id, before.novelty_decision or "novel", cycle=before.updated_cycle)
        registry.compact_index()
        assert _index_bytes(root) == _full_render(registry)
        open_registry(root).compact_index()
        assert _index_bytes(root) == _full_render(registry)


def test_warm_compaction_re_renders_only_changed_records(tmp_path, monkeypatch):
    registry = open_registry(tmp_path / "library")
    for i in range(20):
        registry.upsert_skill(entry(skill_id=f"s-{i:02d}", leaf="root/alpha/one"))
    for i in range(10):
        registry.record_resource(
            ResourceEntry(id="", kind="paper", locator=f"https://example.org/{i}", leaf_paths=["root/alpha/one"])
        )
    rendered: list[str] = []
    render = registrymod._render_records

    def counting_render(records: list[dict]) -> list[str]:
        rendered.extend(record["id"] for record in records)
        return render(records)

    monkeypatch.setattr(registrymod, "_render_records", counting_render)
    registry.compact_index()
    assert len(rendered) == 30
    rendered.clear()
    registry.compact_index()
    assert rendered == []
    registry.transition_skill("s-07", "verified", cycle=2)
    registry.compact_index()
    assert rendered == ["s-07"]



def test_every_mutator_marks_its_records_for_the_next_compaction(tmp_path, monkeypatch):
    root = tmp_path / "library"
    registry = open_registry(root)
    for i in range(6):
        registry.upsert_skill(entry(skill_id=f"s-{i}", leaf="root/alpha/one"))
    for i in range(3):
        registry.record_resource(
            ResourceEntry(id="", kind="paper", locator=f"https://example.org/{i}", leaf_paths=["root/alpha/one"])
        )
    rendered: list[str] = []
    render = registrymod._render_records

    def counting_render(records: list[dict]) -> list[str]:
        rendered.extend(record["id"] for record in records)
        return render(records)

    monkeypatch.setattr(registrymod, "_render_records", counting_render)
    registry.compact_index()
    resource = registry.resources()[0]
    mutations = [
        (lambda: registry.upsert_skill(entry(skill_id="s-1", leaf="root/alpha/one", name="Renamed")), ["s-1"]),
        (lambda: registry.transition_skill("s-2", "removed", cycle=2), ["s-2"]),
        (lambda: registry.relocate_skill("s-3", "root/alpha/two", cycle=2), ["s-3"]),
        (lambda: registry.set_novelty_decision("s-4", "novel", cycle=2), ["s-4"]),
        (lambda: registry.set_verification("s-5", VerificationRecord("s-5", "execution", "pass", 1)), ["s-5"]),
        (lambda: registry.set_verification(
            "s-0", VerificationRecord("s-0", "execution", "fail", 1), promote=False), []),
        (lambda: registry.record_resource(replace(resource, leaf_paths=["root/beta/three"])), [resource.id]),
        (lambda: registry.upsert_skill(entry(skill_id="s-6")), ["s-6"]),
    ]
    for mutate, expected in mutations:
        rendered.clear()
        mutate()
        registry.compact_index()
        assert rendered == expected
        assert _index_bytes(root) == _full_render(registry)

    # A record another registry appends makes the next mutator reload, and a
    # reload leaves every record to be rendered again.
    open_registry(root).set_novelty_decision("s-0", "merge", cycle=3)
    rendered.clear()
    registry.set_novelty_decision("s-1", "novel", cycle=3)
    registry.compact_index()
    assert sorted(rendered) == sorted([e.id for e in registry.skills()] + [r.id for r in registry.resources()])
    assert registry.skill("s-0").novelty_decision == "merge"
    assert _index_bytes(root) == _full_render(registry)


def test_a_same_size_log_replaced_by_another_registry_is_reloaded(tmp_path):
    root = tmp_path / "library"
    first = open_registry(root)
    first.upsert_skill(entry(skill_id="s-1", name="Align reads"))
    second = open_registry(root)
    log = root / "skills.ndjson"
    old = log.read_bytes()
    new = old.replace(b"Align reads", b"Align cells")
    assert len(new) == len(old) and new != old
    stat = log.stat()
    with second.lock:
        swap = root / "skills.ndjson.new"
        swap.write_bytes(new)
        os.utime(swap, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        os.replace(swap, log)
    first.set_novelty_decision("s-1", "novel", cycle=2)
    assert first.skill("s-1").name == "Align cells"
    assert [json.loads(line)["name"] for line in log.read_text().splitlines()] == ["Align cells"] * 2


tree_ops = st.lists(
    st.tuples(
        st.sampled_from(["link", "resource", "verify", "insert", "review", "prune", "rewind", "reopen"]),
        st.integers(0, 40),
        st.sampled_from(["pass", "fail", "error"]),
    ),
    max_size=30,
)


@settings(max_examples=80, deadline=None)
@given(ops=tree_ops)
def test_saved_tree_bytes_equal_a_full_render(ops):
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch) / "library"
        registry = open_registry(root)
        registry.save_tree(treemod.DomainTree(nodes={}))
        assert (root / "tree.snapshot").read_bytes() == b'{\n  "nodes": []\n}\n'
        tree = treemod.load_tree(INTEGRITY_TREE)
        saved = [tree]
        for kind, n, outcome in ops:
            leaves = [path for path, node in tree.nodes.items() if node.kind == "leaf"]
            path = leaves[n % len(leaves)]
            try:
                if kind == "link":
                    tree = treemod.link_skill(tree, path, f"s-{n % 7}")
                elif kind == "resource":
                    tree = treemod.link_resource(tree, path, f"res-{n % 5}")
                elif kind == "verify":
                    tree = treemod.record_verification(tree, path, f"s-{n % 7}", outcome, n)
                elif kind == "insert":
                    tree = treemod.insert_leaf(tree, path[:-1], f"new-{n}")
                elif kind == "review":
                    tree = treemod.set_node_status(tree, path, "review")
                elif kind == "prune":
                    tree = treemod.prune_leaf(tree, path, reason="test")
                elif kind == "rewind":  # an older snapshot after newer ones
                    tree = saved[n % len(saved)]
                else:  # a new registry starts with nothing rendered
                    registry = open_registry(root)
            except TreeOperationError:
                pass
            registry.save_tree(tree)
            saved.append(tree)
            expected = dump_json_doc(treemod.tree_to_document(tree)).encode("utf-8")
            assert (root / "tree.snapshot").read_bytes() == expected


def test_integrity_check_sorts_only_what_it_reports(tmp_path):
    """Several offenders of each kind, planted out of order, come out sorted
    as the full scan gives them."""
    root = tmp_path / "library"
    registry = open_registry(root)
    tree = treemod.load_tree(INTEGRITY_TREE)
    for skill_id in ("s-b", "s-a"):
        registry.upsert_skill(entry(skill_id=skill_id, leaf="root/alpha/one"))
        tree = treemod.link_skill(tree, treemod.parse_path("root/alpha/one"), skill_id)
    for name in ("zeta", "eta", "beta"):
        tree = treemod.link_skill(tree, treemod.parse_path("root/alpha/two"), f"ghost-{name}")
        tree = treemod.link_resource(tree, treemod.parse_path("root/beta"), f"res-{name}")
    verifications = root / "verifications.ndjson"
    for skill_id, layer, attempt in (
        ("s-b", "system", 2), ("zz", "execution", 1), ("s-a", "synthetic", 3),
        ("aa", "system", 1), ("qq", "system", 2),  # qq's key gives both attempt messages
    ):
        _append_line(verifications, VerificationRecord(skill_id, layer, "fail", attempt).to_record())
    reopened = open_registry(root)
    violations = reopened.integrity_check(tree)
    assert violations == reference_integrity_check(reopened, tree)
    assert len(violations) == 6 + 6
