"""Crash points of registry commits.

Following Pillai et al., "All File Systems Are Not Created Equal: On the
Complexity of Crafting Crash-Consistent Applications" (OSDI 2014), one
commit sequence is cut at each of its file operations: before every
``os.fsync`` of an append, and inside every append's ``os.write`` after 0
bytes, 1 byte, half the line and all but the newline. Test-only wrappers
around ``os.write`` and ``os.fsync`` raise there, as a killed process would
stop there. After each cut the library must open, ``integrity_check`` must
report nothing, each log must be a prefix of the uninterrupted run's log,
and the next append must start on a new line. One real ``SIGKILL`` of a
child process that appends in a loop checks the same of a real kill.

A killed process keeps what it wrote to the page cache. Power loss, which
can drop written but unflushed data or reorder it, is not modelled.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from pathlib import Path

import pytest

from skillmine import tree as treemod
from skillmine.registry import (
    RESOURCES_FILE,
    SKILLS_FILE,
    VERIFICATIONS_FILE,
    ResourceEntry,
    SkillEntry,
    VerificationRecord,
    open_registry,
)
from skillmine.util import canonical_json

LOGS = (SKILLS_FILE, VERIFICATIONS_FILE, RESOURCES_FILE)
LEAF = "root/alpha/one"
TREE = "root\n  alpha\n    one *\n"


def skill(skill_id: str) -> SkillEntry:
    return SkillEntry(id=skill_id, name=f"Skill {skill_id}", leaf_path=LEAF,
                      package_path=f"skills/{skill_id}", provenance=["res-1"])


def resource(n: int) -> ResourceEntry:
    return ResourceEntry("", "paper", f"https://example.org/papers/{n}", [LEAF])


def commit_sequence(registry) -> None:
    """Four appends: an upsert, an execution pass with its automatic move to
    verified, and a resource."""
    registry.upsert_skill(skill("align"))
    registry.set_verification("align", VerificationRecord("align", "execution", "pass", 1))
    registry.record_resource(resource(0))


class Crash(BaseException):
    """Where the simulated process stops."""


def cut_at(monkeypatch, root: Path, op: str, index: int, written) -> None:
    """Raise ``Crash`` at the ``index``-th ``op`` ("write" or "fsync") on a
    registry log; a cut write first writes ``written(line)`` bytes of it."""
    inodes = {os.stat(root / name).st_ino for name in LOGS}
    real_write, real_fsync = os.write, os.fsync
    seen = {"write": 0, "fsync": 0}

    def reached(kind: str, fd: int) -> bool:
        if os.fstat(fd).st_ino not in inodes:
            return False
        seen[kind] += 1
        return kind == op and seen[kind] == index + 1

    def write(fd, data):
        if reached("write", fd):
            real_write(fd, bytes(data[: written(bytes(data))]))
            raise Crash
        return real_write(fd, data)

    def fsync(fd):
        if reached("fsync", fd):
            raise Crash
        return real_fsync(fd)

    monkeypatch.setattr(os, "write", write)
    monkeypatch.setattr(os, "fsync", fsync)


def log_bytes(root: Path) -> dict[str, bytes]:
    return {name: (root / name).read_bytes() for name in LOGS}


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory) -> dict[str, bytes]:
    root = tmp_path_factory.mktemp("uninterrupted") / "library"
    commit_sequence(open_registry(root))
    logs = log_bytes(root)
    assert [data.count(b"\n") for data in logs.values()] == [2, 1, 1]
    return logs


CUTS = {
    "before-write": ("write", lambda line: 0),
    "after-1-byte": ("write", lambda line: 1),
    "half-line": ("write", lambda line: len(line) // 2),
    "all-but-newline": ("write", lambda line: len(line) - 1),
    "before-fsync": ("fsync", None),
}


@pytest.mark.parametrize("append", range(4), ids=lambda n: f"append{n}")
@pytest.mark.parametrize("cut", sorted(CUTS))
def test_a_commit_cut_at_any_point_leaves_a_library_that_opens_and_appends(
    tmp_path, monkeypatch, uninterrupted, append, cut
):
    root = tmp_path / "library"
    tree = treemod.load_tree(TREE)
    registry = open_registry(root)
    op, written = CUTS[cut]
    with monkeypatch.context() as patch:
        cut_at(patch, root, op, append, written)
        with pytest.raises(Crash):
            commit_sequence(registry)
    del registry

    left = log_bytes(root)
    for name in LOGS:
        assert uninterrupted[name].startswith(left[name]), name
    assert sum(data.count(b"\n") for data in left.values()) == append + (op == "fsync")

    reopened = open_registry(root)
    assert reopened.integrity_check(tree) == []
    committed = {name: data[: data.rfind(b"\n") + 1] for name, data in left.items()}

    # The next append to every log starts on a new line, after the committed
    # records only.
    reopened.upsert_skill(skill("next"))
    reopened.set_verification("next", VerificationRecord("next", "execution", "fail", 1))
    reopened.record_resource(resource(1))
    lines = {
        SKILLS_FILE: skill("next").to_record(),
        VERIFICATIONS_FILE: VerificationRecord("next", "execution", "fail", 1).to_record(),
        RESOURCES_FILE: reopened.resource_by_locator(resource(1).locator).to_record(),
    }
    for name, data in log_bytes(root).items():
        assert data == committed[name] + (canonical_json(lines[name]) + "\n").encode("utf-8")
    fresh = open_registry(root)
    assert fresh.integrity_check(tree) == []
    assert fresh.skill("next").status == "untested"


def _append_forever(root: str) -> None:
    registry = open_registry(root)
    n = 0
    while True:
        skill_id = f"s-{n}"
        registry.upsert_skill(skill(skill_id))
        registry.set_verification(skill_id, VerificationRecord(skill_id, "execution", "pass", 1))
        registry.record_resource(resource(n))
        n += 1


def test_a_writer_killed_while_appending_leaves_a_library_another_writer_commits_to(tmp_path):
    root = tmp_path / "library"
    open_registry(root)
    context = multiprocessing.get_context("spawn")
    child = context.Process(target=_append_forever, args=(str(root),))
    child.start()
    try:
        deadline = time.monotonic() + 60
        while (root / RESOURCES_FILE).read_bytes().count(b"\n") < 20:
            assert child.is_alive() and time.monotonic() < deadline
            time.sleep(0.01)
    finally:
        os.kill(child.pid, signal.SIGKILL)
        child.join(timeout=30)
    assert child.exitcode == -signal.SIGKILL

    tree = treemod.load_tree(TREE)
    assert open_registry(root).integrity_check(tree) == []
    writer = open_registry(root, lock_wait="fail")
    assert writer.upsert_skill(skill("after-kill")).created
    assert (root / SKILLS_FILE).read_bytes().endswith(
        (canonical_json(skill("after-kill").to_record()) + "\n").encode("utf-8")
    )
    assert open_registry(root).integrity_check(tree) == []
