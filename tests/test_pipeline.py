"""Pipeline: stage order, stage effects, full cycles, design mode."""

from __future__ import annotations

import json
import os
import shutil
import threading

import pytest

from skillmine import harness as harnessmod
from skillmine import novelty as noveltymod
from skillmine import tree as treemod
from skillmine.contracts import SkillContract, compile_package, load_package
from skillmine.errors import (
    OutOfOrderStageError,
    PipelineError,
    RefreshAbortedError,
    SchemaViolationError,
)
from skillmine.harness import ValidationHarness
from skillmine.pipeline import STAGE_ORDER, Pipeline
from skillmine.registry import Registry, SkillEntry, VerificationRecord
from skillmine.util import digest_dir
from skillmine.workers import state_digest

from conftest import (
    FAILING_SMOKE,
    FIXTURES,
    SLOW_SMOKE,
    make_engine,
    settle_library_clock,
    write_mock,
)

GENOMICS = "science/genomics"
ALIGN_LEAF = "science/genomics/alignment/short-read-alignment"
ANNOTATE_LEAF = "science/genomics/annotation/cell-type-annotation"
ALIGN_ID = "short-read-alignment-align-short-reads"
ANNOTATE_ID = "cell-type-annotation-annotate-cell-types"
ALIGN_BUILD = "skill_build__science--genomics--alignment--short-read-alignment__1.json"


@pytest.fixture
def engine(tmp_path, campaign_script):
    return make_engine(tmp_path / "library", campaign_script)


# -- stage order -------------------------------------------------------------------


@pytest.mark.parametrize("left", ["tree.snapshot", "skills.ndjson", "verifications.ndjson"])
def test_initialize_refuses_a_root_that_holds_a_snapshot_or_a_record(
    tmp_path, campaign_script, left
):
    root = tmp_path / "library"
    make_engine(root, campaign_script)
    if left != "tree.snapshot":
        (root / "tree.snapshot").unlink()
        (root / left).write_text('{"id": "x"}\n', "utf-8")
    before = digest_dir(root)
    with pytest.raises(PipelineError, match="already holds a library"):
        make_engine(root, campaign_script)
    assert digest_dir(root) == before
    # Empty logs, as a failed init used to leave them, hold no record.
    (root / "tree.snapshot").unlink(missing_ok=True)
    for name in ("skills.ndjson", "resources.ndjson", "verifications.ndjson"):
        (root / name).write_bytes(b"")
    make_engine(root, campaign_script)


def test_stage_out_of_order_rejected(engine):
    with pytest.raises(OutOfOrderStageError) as excinfo:
        engine.run_stage("skill_build")
    assert "tree_check" in str(excinfo.value)


def test_stage_cursor_advances_in_fixed_order(engine):
    for stage in STAGE_ORDER:
        outcome = engine.run_stage(stage, focus_branch=GENOMICS)
        assert outcome.stage == stage
    assert engine.state.stage_cursor == "refresh"


# -- tree_check ---------------------------------------------------------------------


def test_tree_check_intersects_priorities_with_suggestions(engine, campaign_script):
    outcome = engine.run_stage("tree_check", focus_branch=GENOMICS)
    assert outcome.stage == "tree_check"

    # Oracle: recompute the intersection from the scripted suggestion and the
    # documented priority formula (all scores zero -> lexicographic order).
    suggested = json.loads(
        (campaign_script / "tree_check__science-genomics__1.json").read_text()
    )["focus_leaves"]
    leaves = sorted(
        treemod.format_path(n.path)
        for n in engine.tree.active_leaves()
        if treemod.format_path(n.path).startswith("science/genomics/")
    )
    expected = [p for p in leaves[:3] if p in suggested]
    assert list(engine.state.focus_leaves) == expected


def test_tree_check_disagreement_falls_back_on_top_priority(tmp_path, campaign_script):
    script = tmp_path / "script"
    for path in campaign_script.glob("*.json"):
        (script / path.name).parent.mkdir(parents=True, exist_ok=True)
        (script / path.name).write_bytes(path.read_bytes())
    write_mock(
        script,
        "tree_check",
        "science-imaging",
        1,
        {"focus_leaves": ["science/imaging/never/there"], "rationale": "nonsense"},
    )
    engine = make_engine(tmp_path / "library", script)
    engine.run_stage("tree_check", focus_branch="science/imaging")
    assert list(engine.state.focus_leaves) == ["science/imaging/microscopy/deconvolution"]
    assert any("disagreement" in note for note in engine._scratch.notes)


# -- resource_search -----------------------------------------------------------------


def test_resource_budget_caps_and_prefers_authority(tmp_path):
    script = tmp_path / "script"
    write_mock(
        script,
        "tree_check",
        "default",
        1,
        {"focus_leaves": [ALIGN_LEAF], "rationale": "seed"},
    )
    offered = [
        {
            "kind": "repository",
            "locator": f"https://example.org/r{i}",
            "leaf_path": ALIGN_LEAF,
            "authority_rank": rank,
        }
        for i, rank in enumerate([3, 1, 2, 3, 1, 2, 3, 1])
    ]
    write_mock(script, "resource_search", "default", 1, {"resources": offered})
    engine = make_engine(tmp_path / "library", script, search_budget=5)
    engine.run_stage("tree_check")
    outcome = engine.run_stage("resource_search")

    assert "budget-exhausted" in outcome.summary
    recorded = engine.registry.resources()
    assert len(recorded) == 5
    ranks = sorted((r.authority_rank for r in recorded), reverse=True)
    assert ranks == [3, 3, 3, 2, 2]  # the top five by authority


# -- full cycle -----------------------------------------------------------------------


def test_cycle_report_lists_five_stages_in_order(engine):
    report = engine.run_cycle(focus_branch=GENOMICS)
    assert [s.stage for s in report.stages] == list(STAGE_ORDER)
    assert engine.state.cycle_index == 2
    assert engine.state.stage_cursor is None


def test_cycle_builds_verifies_and_links_skills(engine):
    report = engine.run_cycle(focus_branch=GENOMICS)
    assert len(report.skills_created) == 2
    assert report.skills_verified == report.skills_created
    align = engine.registry.skill("short-read-alignment-align-short-reads")
    assert align.status == "verified"
    assert align.confidence == "standard"
    node = engine.tree.node(treemod.parse_path(ALIGN_LEAF))
    assert align.id in node.linked_skills
    assert node.coverage_flag == "covered"
    assert engine.registry.integrity_check(engine.tree) == []
    # provenance points at recorded resources
    assert all(rid.startswith("res-") for rid in align.provenance)


def test_cycle_applies_proposed_tree_edit(tmp_path, campaign_script):
    script = tmp_path / "script"
    for path in campaign_script.glob("*.json"):
        (script / path.name).write_bytes(path.read_bytes()) if script.exists() else None
    script.mkdir(exist_ok=True)
    for path in campaign_script.glob("*.json"):
        (script / path.name).write_bytes(path.read_bytes())
    write_mock(
        script,
        "tree_check",
        "science-genomics",
        1,
        {
            "focus_leaves": [ALIGN_LEAF, ANNOTATE_LEAF],
            "rationale": "expand",
            "proposed_edits": [
                {"op": "insert", "parent": "science/genomics/annotation", "label": "doublet-detection"}
            ],
        },
    )
    engine = make_engine(tmp_path / "library", script)
    report = engine.run_cycle(focus_branch=GENOMICS)
    assert report.tree_edits == ["insert science/genomics/annotation/doublet-detection"]
    assert treemod.parse_path("science/genomics/annotation/doublet-detection") in engine.tree.nodes


def test_proposed_edit_does_not_discard_refresh_changes(tmp_path, campaign_script):
    # Regression: applying a tree_check-proposed edit must extend the refresh
    # working tree, not replace it with the pre-refresh snapshot.
    script = tmp_path / "script"
    script.mkdir()
    for path in campaign_script.glob("*.json"):
        (script / path.name).write_bytes(path.read_bytes())
    write_mock(
        script,
        "tree_check",
        "science-genomics",
        1,
        {
            "focus_leaves": [ALIGN_LEAF, ANNOTATE_LEAF],
            "rationale": "expand",
            "proposed_edits": [
                {"op": "insert", "parent": "science/genomics/alignment", "label": "pangenome"}
            ],
        },
    )
    engine = make_engine(tmp_path / "library", script)
    engine.run_cycle(focus_branch=GENOMICS)
    node = engine.tree.node(treemod.parse_path(ALIGN_LEAF))
    assert "short-read-alignment-align-short-reads" in node.linked_skills
    assert node.linked_resources
    assert treemod.parse_path("science/genomics/alignment/pangenome") in engine.tree.nodes


def test_proposed_prune_deprecates_linked_skills_before_commit(tmp_path, campaign_script):
    script = tmp_path / "script"
    script.mkdir()
    for path in campaign_script.glob("*.json"):
        (script / path.name).write_bytes(path.read_bytes())
    # A follow-up cycle focused on an empty branch whose only effect is the
    # provider-proposed prune of the now-verified alignment leaf.
    write_mock(
        script,
        "tree_check",
        "science-retirement",
        1,
        {
            "focus_leaves": [],
            "rationale": "retire the alignment leaf",
            "proposed_edits": [{"op": "prune", "path": ALIGN_LEAF, "reason": "stale"}],
        },
    )
    write_mock(script, "resource_search", "science-retirement", 1, {"resources": []})

    engine = make_engine(tmp_path / "library", script)
    engine.run_cycle(focus_branch=GENOMICS)  # align skill becomes verified
    skill_id = "short-read-alignment-align-short-reads"
    assert engine.registry.skill(skill_id).status == "verified"

    report = engine.run_cycle(focus_branch="science/retirement")
    assert f"prune {ALIGN_LEAF}" in report.tree_edits
    assert engine.tree.node(treemod.parse_path(ALIGN_LEAF)).status == "pruned"
    # the deprecation record landed before the prune committed
    assert engine.registry.skill(skill_id).status == "deprecated"
    assert engine.registry.replay_status(skill_id) == "deprecated"
    assert engine.registry.integrity_check(engine.tree) == []


VARIANT_LEAF = "science/genomics/alignment/variant-calling"


def script_with_follow_up_edits(tmp_path, campaign_script, edits):
    """The campaign script plus a cycle focused on an empty branch whose
    tree_check proposes ``edits``."""
    script = tmp_path / "script"
    shutil.copytree(campaign_script, script)
    write_mock(
        script,
        "tree_check",
        "science-edits",
        1,
        {"focus_leaves": [], "rationale": "reshape", "proposed_edits": edits},
    )
    write_mock(script, "resource_search", "science-edits", 1, {"resources": []})
    return script


def test_proposed_split_and_merge_relocate_linked_skills(tmp_path, campaign_script):
    script = script_with_follow_up_edits(
        tmp_path,
        campaign_script,
        [
            {"op": "split", "path": ANNOTATE_LEAF,
             "partitions": [{"label": "single-cell", "skill_ids": [ANNOTATE_ID]}]},
            {"op": "merge", "path_a": ALIGN_LEAF, "path_b": VARIANT_LEAF, "survivor": VARIANT_LEAF},
        ],
    )
    engine = make_engine(tmp_path / "library", script)
    engine.run_cycle(focus_branch=GENOMICS)

    report = engine.run_cycle(focus_branch="science/edits")
    assert report.tree_edits == [
        f"split {ANNOTATE_LEAF} into 1 leaves",
        f"merge {ALIGN_LEAF} + {VARIANT_LEAF} -> {VARIANT_LEAF}",
    ]
    assert engine.registry.skill(ANNOTATE_ID).leaf_path == f"{ANNOTATE_LEAF}/single-cell"
    assert engine.registry.skill(ALIGN_ID).leaf_path == VARIANT_LEAF
    assert ALIGN_ID in engine.tree.node(treemod.parse_path(VARIANT_LEAF)).linked_skills
    assert engine.tree.node(treemod.parse_path(ALIGN_LEAF)).status == "merged"
    assert engine.registry.integrity_check(engine.tree) == []


def test_an_invalid_edit_and_an_unknown_op_are_each_skipped_with_a_note(
    tmp_path, campaign_script
):
    script = script_with_follow_up_edits(
        tmp_path,
        campaign_script,
        [
            {"op": "split", "path": ALIGN_LEAF},  # no partitions
            {"op": "rotate", "path": ALIGN_LEAF},
            {"op": "insert", "parent": "science/genomics/annotation", "label": "doublets"},
        ],
    )
    engine = make_engine(tmp_path / "library", script)
    engine.run_cycle(focus_branch=GENOMICS)

    report = engine.run_cycle(focus_branch="science/edits")
    assert report.tree_edits == ["insert science/genomics/annotation/doublets"]
    assert report.notes == [
        "proposed edit skipped: 'partitions'",
        "proposed edit skipped: unknown op 'rotate'",
    ]
    assert engine.tree.node(treemod.parse_path(ALIGN_LEAF)).kind == "leaf"


def script_with_align_candidate(tmp_path, campaign_script, **changes):
    """The campaign script with the align candidate's fields replaced."""
    script = tmp_path / "script"
    shutil.copytree(campaign_script, script)
    document = json.loads((script / ALIGN_BUILD).read_text())
    document["candidates"][0].update(changes)
    (script / ALIGN_BUILD).write_text(json.dumps(document))
    return script


NOISE = "import os\n\nprint(os.urandom(8).hex())\n"


@pytest.mark.parametrize(
    "changes, reason",
    [
        ({"outputs": [{"name": "out/counts.txt"}, {"name": "out/never.txt"}]},
         "missing outputs: out/never.txt"),
        ({"inputs": [{"name": "reads_file", "kind": "file"}, {"name": "label"}],
          "execution_steps": ["Run scripts/align.py on {reads_file}, tagged {label}"]},
         "coverage gaps: label"),
        ({"example_invocations": ["python3 scripts/noise.py {reads_file}"], "outputs": [],
          "artifacts": {"scripts/noise.py": NOISE, "tests/smoke.py": "print('ok')\n"}},
         "synthetic instability"),
        ({"example_invocations": ["no-such-command {reads_file}"]},
         "synthetic error: command not found: no-such-command"),
    ],
    ids=["missing-output", "coverage-gap", "unstable", "error"],
)
def test_a_candidate_whose_synthetic_run_is_not_clean_ends_in_review(
    tmp_path, campaign_script, changes, reason
):
    script = script_with_align_candidate(tmp_path, campaign_script, **changes)
    engine = make_engine(tmp_path / "library", script)
    report = engine.run_cycle(focus_branch=GENOMICS)

    assert engine.registry.skill(ALIGN_ID).status == "review"
    assert report.skills_verified == [ANNOTATE_ID]
    assert f"review: {ALIGN_ID}: {reason}" in report.notes
    node = engine.tree.node(treemod.parse_path(ALIGN_LEAF))
    assert ALIGN_ID in node.linked_skills
    assert (ALIGN_ID, "fail", 1) in node.recent_verifications
    assert engine.registry.integrity_check(engine.tree) == []


@pytest.mark.parametrize("ntasks, outcome", [(1, "pass"), (10_000, "fail")])
def test_a_scheduler_candidate_has_its_system_record_committed(
    tmp_path, campaign_script, ntasks, outcome
):
    assumptions = ["python3 on PATH", f"scheduler: slurm ntasks={ntasks}"]
    script = script_with_align_candidate(
        tmp_path, campaign_script, environment_assumptions=assumptions
    )
    engine = make_engine(tmp_path / "library", script)
    report = engine.run_cycle(focus_branch=GENOMICS)

    [system] = engine.registry.verifications(ALIGN_ID, "system")
    assert (system.attempt, system.outcome) == (1, outcome)
    assert (engine.root / system.report_locator).is_file()
    assert engine.registry.verifications(ANNOTATE_ID, "system") == []
    if outcome == "pass":
        assert report.skills_verified == sorted([ALIGN_ID, ANNOTATE_ID])
    else:
        assert engine.registry.skill(ALIGN_ID).status == "review"
        assert f"review: {ALIGN_ID}: system test failure" in report.notes


@pytest.mark.parametrize(
    "response, decision, status",
    [
        ({"decision": "review"}, "review", "review"),
        ({"decision": "deprioritize"}, "deprioritize", "verified"),
        ({"decision": "novel", "uncertain": True}, "review", "review"),
    ],
)
def test_a_provider_novelty_response_only_downgrades(
    tmp_path, campaign_script, response, decision, status
):
    script = tmp_path / "script"
    shutil.copytree(campaign_script, script)
    for skill_id in (ALIGN_ID, ANNOTATE_ID):
        fields = {"matches": [], "decision": "novel", "rationale": "r"}
        if skill_id == ALIGN_ID:
            fields.update(response)
        write_mock(script, "novelty_check", skill_id, 1, fields)
    engine = make_engine(tmp_path / "library", script, novelty_provider=True)
    report = engine.run_cycle(focus_branch=GENOMICS)

    align = engine.registry.skill(ALIGN_ID)
    assert (align.novelty_decision, align.status) == (decision, status)
    node = engine.tree.node(treemod.parse_path(ALIGN_LEAF))
    assert node.status == "review"
    # A skill sent to review is linked to its leaf, as a deprioritized one is.
    assert ALIGN_ID in node.linked_skills
    annotate = engine.registry.skill(ANNOTATE_ID)
    assert (annotate.novelty_decision, annotate.status) == ("novel", "verified")
    verified = [ALIGN_ID, ANNOTATE_ID] if status == "verified" else [ANNOTATE_ID]
    assert report.skills_verified == sorted(verified)
    assert engine.registry.integrity_check(engine.tree) == []


def test_failing_candidates_still_reach_refresh(tmp_path, campaign_script):
    script = tmp_path / "script"
    script.mkdir()
    for path in campaign_script.glob("*.json"):
        (script / path.name).write_bytes(path.read_bytes())
    # Overwrite the align candidate with a failing smoke test and no fixes.
    candidate = json.loads(
        (campaign_script / f"skill_build__science--genomics--alignment--short-read-alignment__1.json").read_text()
    )
    candidate["candidates"][0]["artifacts"]["tests/smoke.py"] = FAILING_SMOKE
    (script / "skill_build__science--genomics--alignment--short-read-alignment__1.json").write_text(
        json.dumps(candidate)
    )
    write_mock(
        script,
        "layer1_fix",
        "short-read-alignment-align-short-reads",
        1,
        {"diagnosis": "still broken", "edits": [], "retest": True},
    )
    engine = make_engine(tmp_path / "library", script)
    report = engine.run_cycle(focus_branch=GENOMICS)

    assert [s.stage for s in report.stages] == list(STAGE_ORDER)
    assert "short-read-alignment-align-short-reads" in report.skills_removed
    removed = engine.registry.skill("short-read-alignment-align-short-reads")
    assert removed.status == "removed"
    # removed package was moved to the graveyard
    assert not (engine.root / removed.package_path).exists()
    assert (engine.root / "graveyard" / removed.id / "skill.json").is_file()
    # the failure is visible on the leaf
    node = engine.tree.node(treemod.parse_path(ALIGN_LEAF))
    outcomes = [o for _s, o, _c in node.recent_verifications]
    assert "fail" in outcomes


def test_a_hung_candidate_costs_only_itself(tmp_path, campaign_script):
    script = tmp_path / "script"
    shutil.copytree(campaign_script, script)
    candidate = json.loads((script / ALIGN_BUILD).read_text())
    candidate["candidates"][0]["artifacts"]["tests/smoke.py"] = SLOW_SMOKE
    (script / ALIGN_BUILD).write_text(json.dumps(candidate))
    # One execution attempt and no repair, so the hung run is all the align
    # skill gets.
    engine = make_engine(tmp_path / "library", script, smoke_timeout=2.0, repair_attempts=1)
    report = engine.run_cycle(focus_branch=GENOMICS)

    assert report.skills_created == sorted([ALIGN_ID, ANNOTATE_ID])
    assert report.skills_removed == [ALIGN_ID]
    assert report.skills_verified == [ANNOTATE_ID]
    [hung] = engine.registry.verifications(ALIGN_ID, "execution")
    assert hung.outcome == "fail"
    attempt = json.loads((engine.root / hung.report_locator).read_text())
    assert attempt["exit_status"] is None  # killed at the timeout
    assert [v.outcome for v in engine.registry.verifications(ANNOTATE_ID, "execution")] == ["pass"]


def test_a_raising_validation_task_raises_after_the_serial_commits(
    tmp_path, campaign_script, monkeypatch
):
    original = ValidationHarness.synthetic_test

    def synthetic_test(self, package, skill_id, *args, **kwargs):
        if skill_id == ALIGN_ID:
            raise RuntimeError("synthetic layer crashed")
        return original(self, package, skill_id, *args, **kwargs)

    monkeypatch.setattr(ValidationHarness, "synthetic_test", synthetic_test)
    logs = []
    for workers in (1, 4):
        monkeypatch.setattr(harnessmod, "available_cpus", lambda n=workers: n)
        engine = make_engine(tmp_path / f"workers-{workers}", campaign_script)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="synthetic layer crashed"):
            engine.run_cycle(focus_branch=GENOMICS)
        assert threading.active_count() == threads
        assert engine.state.stage_cursor is None
        logs.append(
            {
                name: (engine.root / name).read_bytes()
                for name in ("skills.ndjson", "resources.ndjson", "verifications.ndjson")
            }
        )
    assert logs[0] == logs[1]
    # The align skill is built first: its execution record is committed
    # before its layer error is raised, and nothing after it is.
    records = [json.loads(line) for line in logs[0]["verifications.ndjson"].splitlines()]
    assert [(r["skill_id"], r["layer"]) for r in records] == [(ALIGN_ID, "execution")]


def test_a_raise_inside_a_repair_leaves_only_the_first_attempt_recorded(
    tmp_path, campaign_script, monkeypatch
):
    script = tmp_path / "script"
    shutil.copytree(campaign_script, script)
    candidate = json.loads((script / ALIGN_BUILD).read_text())
    candidate["candidates"][0]["artifacts"]["tests/smoke.py"] = FAILING_SMOKE
    (script / ALIGN_BUILD).write_text(json.dumps(candidate))
    # The first fix changes nothing; the second response breaks the schema.
    write_mock(script, "layer1_fix", ALIGN_ID, 1, {"diagnosis": "d", "edits": [], "retest": True})
    write_mock(script, "layer1_fix", ALIGN_ID, 2, {"diagnosis": "d", "retest": True})
    logs = []
    for workers in (1, 4):
        monkeypatch.setattr(harnessmod, "available_cpus", lambda n=workers: n)
        engine = make_engine(tmp_path / f"workers-{workers}", script)
        with pytest.raises(SchemaViolationError):
            engine.run_cycle(focus_branch=GENOMICS)
        assert engine.state.stage_cursor is None
        logs.append(
            {
                name: (engine.root / name).read_bytes()
                for name in ("skills.ndjson", "verifications.ndjson")
            }
        )
        # The repair's first retest ran and wrote its report, which no
        # record points at.
        reports = engine.root / "reports" / "verifications" / ALIGN_ID / "execution"
        assert sorted(p.name for p in reports.iterdir()) == ["attempt-1.json", "attempt-2.json"]
    assert logs[0] == logs[1]
    # The repair returned no outcome, so nothing of it is committed: only the
    # align skill's attempt 1, which the task returned with the error. The
    # skill stays untested, and the annotate skill after it is not committed.
    records = [json.loads(line) for line in logs[0]["verifications.ndjson"].splitlines()]
    assert [(r["skill_id"], r["attempt"], r["outcome"]) for r in records] == [
        (ALIGN_ID, 1, "fail")
    ]
    statuses = [
        (r["id"], r["status"]) for r in map(json.loads, logs[0]["skills.ndjson"].splitlines())
    ]
    assert statuses == [(ALIGN_ID, "untested"), (ANNOTATE_ID, "untested")]


def test_two_runs_from_same_seed_are_byte_identical(tmp_path, campaign_script):
    a = make_engine(tmp_path / "a", campaign_script)
    b = make_engine(tmp_path / "b", campaign_script)
    a.run_cycle(focus_branch=GENOMICS)
    b.run_cycle(focus_branch=GENOMICS)
    assert state_digest(a.root) == state_digest(b.root)


def test_repeat_cycles_skip_duplicates_deterministically(engine):
    first = engine.run_cycle(focus_branch=GENOMICS)
    second = engine.run_cycle(focus_branch=GENOMICS)
    assert len(first.skills_created) == 2
    assert second.skills_created == []
    assert [s.stage for s in second.stages] == list(STAGE_ORDER)


def test_aborted_cycle_leaves_committed_state_untouched(tmp_path, campaign_script, monkeypatch):
    engine = make_engine(tmp_path / "library", campaign_script)
    engine.run_cycle(focus_branch=GENOMICS)  # commit one cycle first
    tree_bytes = (engine.root / "tree.snapshot").read_bytes()
    index_digest = digest_dir(engine.root / "index")

    monkeypatch.setattr(
        Registry, "integrity_check", lambda self, tree: ["injected violation"], raising=True
    )
    with pytest.raises(RefreshAbortedError):
        engine.run_cycle(focus_branch="science/imaging")

    assert (engine.root / "tree.snapshot").read_bytes() == tree_bytes
    assert digest_dir(engine.root / "index") == index_digest
    assert engine.state.stage_cursor is None  # back to idle
    assert engine.state.cycle_index == 2  # aborted cycle did not count


def test_stages_one_to_four_never_mutate_committed_state(tmp_path, campaign_script):
    # File-digest framing: only refresh commits the tree snapshot, compacted
    # index, and site summaries; append-only record files are exempt.
    engine = make_engine(tmp_path / "library", campaign_script)

    def committed():
        site = engine.root / "site"
        return (
            (engine.root / "tree.snapshot").read_bytes(),
            digest_dir(engine.root / "index"),
            digest_dir(site) if site.exists() else "",
        )

    before = committed()
    for stage in STAGE_ORDER[:4]:
        engine.run_stage(stage, focus_branch=GENOMICS)
        assert committed() == before, f"stage {stage} mutated committed state"
    engine.run_stage("refresh", focus_branch=GENOMICS)
    assert committed() != before


def test_history_lines_are_never_rewritten(tmp_path, campaign_script):
    engine = make_engine(tmp_path / "library", campaign_script)
    engine.run_cycle(focus_branch=GENOMICS)
    skills_before = (engine.root / "skills.ndjson").read_bytes()
    verifs_before = (engine.root / "verifications.ndjson").read_bytes()
    engine.run_cycle(focus_branch="science/imaging")
    assert (engine.root / "skills.ndjson").read_bytes().startswith(skills_before)
    assert (engine.root / "verifications.ndjson").read_bytes().startswith(verifs_before)


@pytest.mark.parametrize(
    "name, breakage, error",
    [
        ("bad-escape", {"artifacts": {"../escape.txt": "x"}}, "path escapes its root"),
        ("bad-clobber", {"artifacts": {"skill.json": "{}"}}, "would replace"),
        ("bad-quote", {"test_commands": ["python3 'tests/smoke.py"]}, "unparseable command"),
        ("bad-input", {"inputs": [{"name": "../../../../../escaped", "kind": "file",
                                   "required": False}]}, "name escapes the inputs directory"),
        ("bad-dir", {"artifacts": {"scripts": "x"}}, "make scripts both a file and a directory"),
        ("bad-nest", {"artifacts": {"scripts/x": "a", "scripts/x/y": "b"}}, "make scripts/x both"),
    ],
)
def test_a_malformed_candidate_costs_only_itself(
    tmp_path, campaign_script, name, breakage, error
):
    script = tmp_path / "script"
    shutil.copytree(campaign_script, script)
    document = json.loads((script / ALIGN_BUILD).read_text())
    good = document["candidates"][0]
    document["candidates"].append({**good, "name": name, **breakage})
    (script / ALIGN_BUILD).write_text(json.dumps(document))
    engine = make_engine(tmp_path / "library", script)
    report = engine.run_cycle(focus_branch=GENOMICS)

    assert report.skills_created == sorted([ALIGN_ID, ANNOTATE_ID])
    assert engine.registry.skill(ALIGN_ID).status == "verified"
    [note] = [n for n in report.notes if n.startswith(f"contract-violations: {name}:")]
    assert error in note
    leaf_dir = (engine.root / engine.registry.skill(ALIGN_ID).package_path).parent
    # No orphan package directory and no escaped file beside the good package
    # or anywhere else.
    assert sorted(p.name for p in leaf_dir.iterdir()) == [ALIGN_ID]
    assert list(tmp_path.rglob("escape*")) == []


@pytest.mark.parametrize("refusal", ["lint", "round-trip guard"])
def test_a_candidate_refused_after_compiling_leaves_no_package(
    tmp_path, campaign_script, monkeypatch, refusal
):
    from skillmine import contracts as contractsmod

    script = tmp_path / "script"
    shutil.copytree(campaign_script, script)
    document = json.loads((script / ALIGN_BUILD).read_text())
    good = document["candidates"][0]
    # SKILL.md cannot list an input named with a backtick, so lint finds a divergence.
    inputs = good["inputs"] + [{"name": "a`b", "required": False}]
    document["candidates"].append({**good, "name": "refused", "inputs": inputs})
    (script / ALIGN_BUILD).write_text(json.dumps(document))
    if refusal == "round-trip guard":
        original = contractsmod.load_contract

        def load_contract(path):
            contract = original(path)
            if any(item.name == "a`b" for item in contract.inputs):
                return SkillContract(task_scope="something else")
            return contract

        monkeypatch.setattr(contractsmod, "load_contract", load_contract)
    engine = make_engine(tmp_path / "library", script)
    report = engine.run_cycle(focus_branch=GENOMICS)

    assert report.skills_created == sorted([ALIGN_ID, ANNOTATE_ID])
    [note] = [n for n in report.notes if "refused" in n]
    if refusal == "lint":
        assert note == (
            "lint-findings: short-read-alignment-refused: "
            "divergence: inputs differ between SKILL.md and skill.json"
        )
    else:
        assert note.startswith("contract-violations: refused: spec/metadata divergence")
    leaf_dir = (engine.root / engine.registry.skill(ALIGN_ID).package_path).parent
    assert sorted(p.name for p in leaf_dir.iterdir()) == [ALIGN_ID]


def test_candidate_cap_limits_builds_per_leaf(tmp_path, campaign_script):
    script = tmp_path / "script"
    script.mkdir()
    for path in campaign_script.glob("*.json"):
        (script / path.name).write_bytes(path.read_bytes())
    base = json.loads(
        (campaign_script / "skill_build__science--genomics--alignment--short-read-alignment__1.json").read_text()
    )
    template = base["candidates"][0]
    clones = []
    for i in range(4):
        clone = dict(template)
        clone["name"] = f"align-variant-{i}"
        clones.append(clone)
    (script / "skill_build__science--genomics--alignment--short-read-alignment__1.json").write_text(
        json.dumps({"candidates": clones})
    )
    engine = make_engine(tmp_path / "library", script)
    report = engine.run_cycle(focus_branch=GENOMICS)
    built_for_leaf = [s for s in report.skills_created if s.startswith("short-read-alignment-")]
    assert len(built_for_leaf) == 3  # cap, not the 4 offered


def test_missing_tests_note_recorded_for_starter_skill(tmp_path, campaign_script):
    script = tmp_path / "script"
    script.mkdir()
    for path in campaign_script.glob("*.json"):
        (script / path.name).write_bytes(path.read_bytes())
    base = json.loads(
        (campaign_script / "skill_build__science--genomics--alignment--short-read-alignment__1.json").read_text()
    )
    candidate = base["candidates"][0]
    candidate["test_commands"] = []
    candidate["artifacts"].pop("tests/smoke.py")
    candidate["artifacts"].pop("tests/benchmark.json")
    (script / "skill_build__science--genomics--alignment--short-read-alignment__1.json").write_text(
        json.dumps({"candidates": [candidate]})
    )
    engine = make_engine(tmp_path / "library", script)
    report = engine.run_cycle(focus_branch=GENOMICS)
    entry = engine.registry.skill("short-read-alignment-align-short-reads")
    assert entry.status == "untested"
    assert entry.confidence == "starter"
    assert entry.smoke_target is None
    assert any(note.startswith("missing-tests") for note in report.notes)


def test_empty_design_prompt_rejected(tmp_path, design_script):
    engine = make_engine(tmp_path / "library", design_script)
    with pytest.raises(Exception) as excinfo:
        engine.design_skill("   ")
    assert "non-empty" in str(excinfo.value)


def test_config_effort_overrides_reach_the_gateway(tmp_path, campaign_script):
    engine = make_engine(
        tmp_path / "library", campaign_script, efforts=("skill_build:big-model:high",)
    )
    assert engine.gateway.profile.entry("skill_build") == ("big-model", "high")
    # the default still holds elsewhere: high effort only for resource_search
    assert engine.gateway.profile.entry("resource_search")[1] == "high"
    assert engine.gateway.profile.entry("tree_check")[1] == "medium"


def test_effort_override_naming_a_stage_kind_nothing_calls_is_refused(tmp_path, campaign_script):
    with pytest.raises(PipelineError, match="unknown stage 'refresh'"):
        make_engine(tmp_path / "library", campaign_script, efforts=("refresh:big-model:high",))


# -- design mode -----------------------------------------------------------------------


def test_design_skill_golden_run(tmp_path, design_script):
    engine = make_engine(tmp_path / "library", design_script)
    report = engine.design_skill("Annotate cell types in spatial data")

    assert report.status == "verified"
    assert report.verdict == "novel"
    assert not report.resource_search_skipped
    entry = engine.registry.skill(report.skill_id)
    assert entry.status == "verified"
    assert len(entry.provenance) == 2
    located = sorted(engine.registry.resource(rid).locator for rid in entry.provenance)
    assert located == [
        "https://example.org/notebooks/spatial-annotation-demo",
        "https://example.org/papers/spatial-annotation",
    ]
    archived = engine.root / "reports" / "design" / "annotate-cell-types-in-spatial-data.json"
    assert archived.is_file()


def test_design_commit_aborted_by_integrity_leaves_committed_state(
    tmp_path, design_script, monkeypatch
):
    engine = make_engine(tmp_path / "library", design_script)
    assert engine.design_skill("No extra resources").status == "verified"
    stale = engine.root / "site" / ".stale"
    stale.unlink()  # as an export of the site does
    tree_bytes = (engine.root / "tree.snapshot").read_bytes()
    index_digest = digest_dir(engine.root / "index")

    monkeypatch.setattr(
        Registry, "integrity_check", lambda self, tree: ["injected violation"], raising=True
    )
    with pytest.raises(RefreshAbortedError, match="^design aborted by integrity violations: "):
        engine.design_skill("Annotate cell types in spatial data")

    assert (engine.root / "tree.snapshot").read_bytes() == tree_bytes
    assert digest_dir(engine.root / "index") == index_digest
    assert not stale.exists()


def test_design_skill_skips_search_when_provider_signals(tmp_path, design_script):
    engine = make_engine(tmp_path / "library", design_script)
    report = engine.design_skill("No extra resources")
    assert report.status == "verified"
    assert report.resource_search_skipped
    assert any("skipped" in step for step in report.steps)


def test_designs_leave_no_skill_directory_in_the_sandbox(tmp_path, design_script):
    engine = make_engine(tmp_path / "library", design_script)
    for prompt in ("Annotate cell types in spatial data", "No extra resources"):
        assert engine.design_skill(prompt).status == "verified"
    sandbox = engine.harness.sandbox_root
    assert sandbox.is_dir()
    assert [p.name for p in sandbox.iterdir() if p.is_dir()] == []


def test_design_skill_budget_exhaustion_yields_failed_report(tmp_path, design_script):
    script = tmp_path / "script"
    script.mkdir()
    for path in design_script.glob("*.json"):
        (script / path.name).write_bytes(path.read_bytes())
    doomed = json.loads((design_script / "design_skill__no-extra-resources__1.json").read_text())
    doomed["contract"]["artifacts"]["tests/smoke.py"] = FAILING_SMOKE
    (script / "design_skill__doomed-task__1.json").write_text(json.dumps(doomed))
    write_mock(
        script,
        "layer1_fix",
        "cell-type-annotation-local-summary",
        1,
        {"diagnosis": "no idea", "edits": [], "retest": True},
    )
    engine = make_engine(tmp_path / "library", script)

    report = engine.design_skill("Doomed task")
    assert report.status == "failed"
    assert report.skill_id is not None
    assert engine.registry.skill(report.skill_id).status == "removed"


# -- novelty review --------------------------------------------------------------------


def add_skill(engine, skill_id, scope, steps):
    contract = SkillContract(task_scope=scope, execution_steps=steps, provenance_links=("res-1",))
    compile_package(contract, {}, engine.root / "skills" / skill_id, name=skill_id)
    engine.registry.upsert_skill(
        SkillEntry(
            id=skill_id,
            name=skill_id,
            leaf_path=ALIGN_LEAF,
            status="untested",
            package_path=f"skills/{skill_id}",
            provenance=["res-1"],
        )
    )


def test_review_sees_library_changes_between_calls(engine):
    add_skill(engine, "alpha", "Plot gene clusters on a grid", ("draw the grid",))
    add_skill(engine, "beta", "Plot cell clusters on a grid", ("draw the grid",))
    add_skill(engine, "gamma", "Align short reads to genomes", ("index then align",))
    add_skill(engine, "delta", "Align short reads to genomes", ("seed then extend",))
    before = {s: engine.adjudicate(s).decision for s in ("alpha", "beta", "gamma", "delta")}
    assert before == {"alpha": "novel", "beta": "novel", "gamma": "merge", "delta": "merge"}

    # Same byte length and the same mtime, only the task scope differs.
    metadata = engine.root / "skills" / "alpha" / "skill.json"
    stat = metadata.stat()
    old = metadata.read_bytes()
    new = old.replace(b"Plot gene clusters", b"Plot cell clusters")
    assert new != old and len(new) == len(old)
    metadata.write_bytes(new)
    os.utime(metadata, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    engine.registry.transition_skill("gamma", "removed", cycle=2)
    add_skill(engine, "epsilon", "Align short reads to genomes", ("seed then extend",))

    fresh = Pipeline(engine.config)
    for skill_id in ("alpha", "beta", "delta", "epsilon"):
        assert engine.adjudicate(skill_id) == fresh.adjudicate(skill_id)
    assert engine.adjudicate("beta").decision == "redundant"
    assert engine.adjudicate("delta").supporting_matches[0].entry_ref == "epsilon"


def test_a_review_opens_only_the_skill_json_files_that_changed(engine, monkeypatch):
    add_skill(engine, "alpha", "Plot gene clusters on a grid", ("draw the grid",))
    add_skill(engine, "beta", "Align short reads to genomes", ("index then align",))
    add_skill(engine, "gamma", "Estimate rotation periods", ("fit periodograms",))
    settle_library_clock(engine.root)
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(os.path.relpath(path, engine.root))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(noveltymod, "open", counting_open, raising=False)
    first = engine.adjudicate("alpha")
    assert sorted(opened) == [f"skills/{s}/skill.json" for s in ("alpha", "beta", "gamma")]
    opened.clear()
    assert engine.adjudicate("alpha") == first
    assert opened == []

    metadata = engine.root / "skills" / "beta" / "skill.json"
    stat = metadata.stat()
    metadata.write_bytes(metadata.read_bytes().replace(b"short reads", b"long reads!"))
    os.utime(metadata, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    reference = Pipeline(engine.config).adjudicate("alpha")
    opened.clear()
    assert engine.adjudicate("alpha") == reference
    assert opened == ["skills/beta/skill.json"]


def test_the_local_index_is_kept_unless_an_entry_goes_or_changes_task(engine):
    add_skill(engine, "alpha", "Plot gene clusters on a grid", ("draw the grid",))
    add_skill(engine, "beta", "Align short reads to genomes", ("index then align",))
    (engine.root / "sandbox").mkdir(exist_ok=True)

    def current():
        index = engine._local_index()
        fresh = noveltymod.local_catalog_entries(engine.registry, engine.root)
        assert sorted(index.entries, key=lambda e: e.entry_ref) == fresh
        return index

    first = current()
    add_skill(engine, "gamma", "Align short reads to genomes", ("seed then extend",))
    assert current() is first  # a new skill is appended
    scope = engine.root / "skills" / "gamma" / "skill.json"
    scope.write_bytes(scope.read_bytes().replace(b"seed then extend", b"seed and extend"))
    assert current() is first  # a scope change is swapped in place
    engine.registry.transition_skill("beta", "removed", cycle=2)
    assert current() is not first
    fresh = Pipeline(engine.config)
    for skill_id in ("alpha", "gamma"):
        assert engine.adjudicate(skill_id) == fresh.adjudicate(skill_id)


def test_a_stand_alone_review_scans_and_a_commit_review_indexes(
    tmp_path, campaign_script, monkeypatch
):
    engine = make_engine(
        tmp_path / "library", campaign_script, catalogs=(FIXTURES / "catalog_hub.ndjson",)
    )
    add_skill(engine, "library-plot", PLOT, ("draw the grid",))
    add_skill(engine, "period-copy", PERIODS, (PERIODS_SCOPE,))
    reviews = ("period-copy", "library-plot")
    reference = Pipeline(engine.config)
    expected = [reference.adjudicate(skill_id) for skill_id in reviews]
    assert [verdict.decision for verdict in expected] == ["redundant", "novel"]

    built = []

    class CountingIndex(noveltymod.CatalogIndex):
        def __init__(self, entries):
            built.append(entries)
            super().__init__(entries)

    monkeypatch.setattr(noveltymod, "CatalogIndex", CountingIndex)
    # Stand-alone reviews, as CLI ``novelty`` reads make them, build no index.
    fresh = Pipeline(engine.config)
    assert [fresh.adjudicate(skill_id) for skill_id in reviews] == expected
    assert built == [] and fresh._external_index is None and fresh._local is None

    # A commit's reviews search the commit's local index and the external
    # index, built at the first of them and then kept.
    committing = Pipeline(engine.config)
    local = committing._local_index()
    built.clear()
    assert [committing.adjudicate(skill_id, local) for skill_id in reviews] == expected
    assert len(built) == 1 and built[0] is committing.external_catalogs()["catalog_hub"]
    # A later stand-alone review still scans.
    assert committing.adjudicate(reviews[0]) == expected[0]
    assert len(built) == 1


PLOT = "Plot cell clusters on a grid"
ALIGN = "Align short reads to genomes"
PERIODS = "Estimate rotation periods from stellar brightness lightcurves"
PERIODS_SCOPE = "Fit generalized Lomb-Scargle periodograms with bootstrap uncertainty bands"


def refresh_mixed_candidates(root, script):
    """One refresh over four candidates: two twins (same task and scope), one
    that merges into a local skill, one redundant with a catalog entry."""
    engine = make_engine(root, script, catalogs=(FIXTURES / "catalog_hub.ndjson",))
    add_skill(engine, "library-plot", PLOT, ("draw the grid",))
    add_skill(engine, "twin-a", ALIGN, ("index then align",))
    add_skill(engine, "twin-b", ALIGN, ("index then align",))
    add_skill(engine, "plot-merge", PLOT, ("colour each cluster",))
    add_skill(engine, "period-copy", PERIODS, (PERIODS_SCOPE,))
    passed = ["twin-a", "twin-b", "plot-merge", "period-copy"]
    for skill_id in passed:
        record = VerificationRecord(skill_id, "execution", "pass", attempt=1)
        engine.registry.set_verification(skill_id, record, promote=False)
    engine._scratch.passed = passed
    engine.state.stage_cursor = "skill_test"
    engine.run_stage("refresh")
    return engine


def reference_adjudicate(self, skill_id, local=None):
    """The review with a fresh read of the library before it."""
    del local
    contract = load_package(self.root / self.registry.skill(skill_id).package_path).contract()
    scope_text = noveltymod.candidate_scope_text(contract)
    local_entries = [
        e
        for e in noveltymod.local_catalog_entries(self.registry, self.root)
        if e.entry_ref != skill_id
    ]
    matches = noveltymod.search_catalogs(
        {"local": local_entries, **self.external_catalogs()},
        noveltymod.derive_keywords(contract),
        limit=self.config.novelty_match_limit,
        candidate_task_text=contract.task_scope,
        scope_keywords=noveltymod.keywords_from_text(scope_text),
        candidate_scope_text=scope_text,
    )
    return noveltymod.adjudicate(contract, matches, skill_id=skill_id)


def test_one_snapshot_refresh_equals_a_fresh_read_per_review(
    tmp_path, campaign_script, monkeypatch
):
    engine = refresh_mixed_candidates(tmp_path / "snapshot", campaign_script)
    with monkeypatch.context() as patch:
        patch.setattr(Pipeline, "adjudicate", reference_adjudicate)
        reference = refresh_mixed_candidates(tmp_path / "reference", campaign_script)

    assert engine._scratch.verdicts == reference._scratch.verdicts == {
        "period-copy": "redundant",
        "plot-merge": "merge",
        "twin-a": "redundant",
        "twin-b": "novel",
    }
    assert engine.registry.skill("plot-merge").merged_into == "library-plot"
    for name in ("skills.ndjson", "tree.snapshot"):
        assert (engine.root / name).read_bytes() == (reference.root / name).read_bytes()


def test_a_refresh_reads_the_library_once(tmp_path, campaign_script, monkeypatch):
    calls = []
    read = noveltymod.local_catalog_entries

    def counted(*args, **kwargs):
        calls.append(1)
        return read(*args, **kwargs)

    monkeypatch.setattr(noveltymod, "local_catalog_entries", counted)
    refresh_mixed_candidates(tmp_path / "mixed", campaign_script)
    assert len(calls) == 1

    calls.clear()
    engine = make_engine(tmp_path / "empty", campaign_script)
    engine.state.stage_cursor = "skill_test"
    engine.run_stage("refresh")
    assert calls == []
