"""The library walk: one scandir pass, the listing and digest of the rglob walk it replaced."""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from skillmine import workers
from skillmine.pipeline import Pipeline
from skillmine.util import walk_files
from skillmine.workers import (
    STATE_DIGEST_EXCLUDE,
    CampaignConfig,
    resume_campaign,
    run_campaign,
    state_digest,
)

from conftest import make_engine


def reference_files(root: Path, exclude=()) -> list[str]:
    """Reference: the sorted-rglob listing the walk replaced, as relative names."""
    skip = tuple(e.rstrip("/") for e in exclude)
    found = []
    if not root.exists():
        return found
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        rel = path.relative_to(root).as_posix()
        if any(rel == s or rel.startswith(s + "/") for s in skip):
            continue
        found.append(rel)
    return found


def reference_digest(root: Path, exclude=()) -> str:
    digest = hashlib.sha256()
    for rel in reference_files(root, exclude):
        digest.update(rel.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(hashlib.sha256((root / rel).read_bytes()).hexdigest().encode("ascii"))
        digest.update(b"\x00")
    return digest.hexdigest()


# -- the listing against the reference --------------------------------------------

NAMES = ["a", "a-b", "b", ".hidden", ".f.json.tmp", "site", "site2", "é", "日本", "s p"]
KINDS = ["file", "dir", "file_link", "dir_link", "dangling", "loop", "fifo"]
EXCLUDES = ["site", "site/", "a", "a/b", "a-b/", ".hidden", "é/日本/", "missing", ""]

# Every case at once: dotfiles and a temp file, a link to a file and to a
# directory, a dangling link, a link to itself, a FIFO, the "a/b" and "a-b"
# pair, non-ASCII names, and "site" excluded next to "site2".
ALL_CASES = [
    (("a", "b", "f"), "file"),
    (("a-b", "c"), "file"),
    ((".hidden", "x"), "file"),
    (("b", ".f.json.tmp"), "file"),
    (("site", "index.html"), "file"),
    (("site2", "index.html"), "file"),
    (("é", "日本", "s p"), "file"),
    (("b", "a"), "file_link"),
    (("b", "site"), "dir_link"),
    (("b", "b"), "dangling"),
    (("b", "c"), "loop"),
    (("a", "a"), "fifo"),
]


def build_tree(root: Path, entries) -> None:
    """Create each entry whose parents can be directories; later clashes are skipped."""
    files: list[Path] = []
    for parts, kind in entries:
        path = root.joinpath(*parts)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except OSError:
            continue
        if os.path.lexists(path):
            continue
        if kind == "file":
            path.write_text("/".join(parts), encoding="utf-8")
            files.append(path)
        elif kind == "dir":
            path.mkdir()
        elif kind == "file_link" and files:
            path.symlink_to(os.path.relpath(files[0], path.parent))
        elif kind == "dir_link":
            path.symlink_to(os.path.relpath(root / "a", path.parent))
        elif kind == "dangling":
            path.symlink_to("nowhere")
        elif kind == "loop":
            path.symlink_to(path.name)
        elif kind == "fifo":
            os.mkfifo(path)


tree_entries = st.lists(
    st.tuples(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3).map(tuple),
              st.sampled_from(KINDS)),
    max_size=14,
)


@settings(max_examples=120, deadline=None)
@given(entries=tree_entries, exclude=st.lists(st.sampled_from(EXCLUDES), max_size=3))
@example(entries=ALL_CASES, exclude=[])
@example(entries=ALL_CASES, exclude=["site", "a/b/", "é"])
def test_walk_lists_what_the_rglob_walk_listed(entries, exclude):
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch) / "lib"
        root.mkdir()
        build_tree(root, entries)
        assert walk_files(root, exclude) == reference_files(root, exclude)
        assert walk_files(str(root), exclude) == reference_files(root, exclude)


def test_walk_of_all_cases_in_order(tmp_path):
    build_tree(tmp_path, ALL_CASES)
    assert walk_files(tmp_path, ["site"]) == [
        ".hidden/x",
        "a/b/f",
        "a-b/c",
        "b/.f.json.tmp",
        "b/a",
        "site2/index.html",
        "é/日本/s p",
    ]


def test_walk_of_a_missing_root_or_a_file_is_empty(tmp_path):
    (tmp_path / "file").write_text("x")
    assert walk_files(tmp_path / "absent") == []
    assert walk_files(tmp_path / "file") == []


# -- the state digest ---------------------------------------------------------------


def two_branch_config():
    return CampaignConfig(
        campaign_id="camp",
        branch_schedule=("science/genomics", "science/imaging"),
        cycles_per_branch=1,
    )


def test_state_digest_equals_the_reference_and_old_checkpoints_resume(
    tmp_path, campaign_script, monkeypatch
):
    engine = make_engine(tmp_path / "library", campaign_script)
    # A checkpoint written with the reference digest, as by the rglob walk.
    monkeypatch.setattr(
        workers, "state_digest", lambda root: reference_digest(Path(root), STATE_DIGEST_EXCLUDE)
    )
    assert run_campaign(engine, two_branch_config(), stop_after_phases=2).status == "interrupted"
    monkeypatch.undo()
    assert state_digest(engine.root) == reference_digest(engine.root, STATE_DIGEST_EXCLUDE)

    resumed = resume_campaign(Pipeline(engine.config), "camp")
    assert resumed.status == "completed"
    assert len(walk_files(engine.root, STATE_DIGEST_EXCLUDE)) > 20
    assert state_digest(engine.root) == reference_digest(engine.root, STATE_DIGEST_EXCLUDE)


def test_excluded_areas_are_never_scanned(tmp_path, campaign_script, monkeypatch):
    engine = make_engine(tmp_path / "library", campaign_script)
    scans: list[str] = []
    real_scandir = os.scandir

    def counting_scandir(path):
        scans.append(os.fspath(path))
        return real_scandir(path)

    monkeypatch.setattr(os, "scandir", counting_scandir)

    def scans_of_one_digest() -> int:
        scans.clear()
        state_digest(engine.root)
        return len(scans)

    before = scans_of_one_digest()
    assert before > 0
    for n in range(25):
        for area in ("workspaces", "sandbox"):
            (engine.root / area / f"d{n}").mkdir(parents=True)
            (engine.root / area / f"d{n}" / "f.txt").write_text("scratch")
    assert scans_of_one_digest() == before
    (engine.root / "extra").mkdir()
    assert scans_of_one_digest() == before + 1
