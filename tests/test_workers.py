"""Worker isolation, deterministic merge, campaigns, checkpoints."""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

import pytest

from skillmine import harness as harnessmod
from skillmine import tree as treemod
from skillmine.errors import (
    DigestMismatchError,
    DuplicateWorkspaceError,
    MergeCollisionError,
    SharedFileWriteError,
    WorkerError,
)
from skillmine.pipeline import Pipeline
from skillmine.util import canonical_json
from skillmine.workers import (
    ArtifactSet,
    CampaignCheckpoint,
    CampaignConfig,
    collect_leaf_artifacts,
    is_leaf_owned,
    load_checkpoint,
    merge_worker_outputs,
    resume_campaign,
    run_campaign,
    spawn_workspace,
    state_digest,
)

from conftest import FAILING_SMOKE, FIXTURES, make_engine, write_mock

GENOMICS = "science/genomics"
IMAGING = "science/imaging"
ALIGN_ID = "short-read-alignment-align-short-reads"
ANNOTATE_ID = "cell-type-annotation-annotate-cell-types"
SEGMENT_ID = "segmentation-segment-grid-images"
LEAVES = [
    "science/genomics/alignment/short-read-alignment",
    "science/genomics/alignment/variant-calling",
    "science/genomics/annotation/cell-type-annotation",
    "science/imaging/microscopy/segmentation",
]


@pytest.fixture
def engine(tmp_path, campaign_script):
    return make_engine(tmp_path / "library", campaign_script)


def p(text):
    return treemod.parse_path(text)


# -- ownership partition ----------------------------------------------------------


def test_ownership_partition_is_disjoint_and_total():
    leaf = p(LEAVES[0])
    samples = [
        "skills/science/genomics/alignment/short-read-alignment/pkg/skill.json",
        "tests/science/genomics/alignment/short-read-alignment/check.txt",
        "skills.ndjson",
        "resources.ndjson",
        "tree.snapshot",
        "index/skills.json",
        "site/stats.json",
        "reports/cycles/cycle-00001.json",
        "README.md",
        "skills/science/imaging/microscopy/segmentation/other.txt",
    ]
    owned = [s for s in samples if is_leaf_owned(s, leaf)]
    assert owned == samples[:2]  # everything else is refresh-owned for this leaf


# -- spawn/collect ------------------------------------------------------------------


def test_spawn_copies_leaf_subtree_and_shared_snapshot(engine):
    engine.run_cycle(focus_branch=GENOMICS)
    leaf = p(LEAVES[0])
    workspace = spawn_workspace(engine.root, engine.tree, leaf)
    assert workspace.status == "open"
    assert (workspace.isolated_root / "skills.ndjson").is_file()
    assert (workspace.isolated_root / "tree.snapshot").is_file()
    package_dirs = list((workspace.isolated_root / "skills").rglob("skill.json"))
    assert len(package_dirs) == 1  # only this leaf's package, not the other leaf's


def test_duplicate_workspace_rejected(engine):
    leaf = p(LEAVES[0])
    spawn_workspace(engine.root, engine.tree, leaf)
    with pytest.raises(DuplicateWorkspaceError):
        spawn_workspace(engine.root, engine.tree, leaf)


def test_noop_worker_collects_empty_set(engine):
    leaf = p(LEAVES[0])
    workspace = spawn_workspace(engine.root, engine.tree, leaf)
    artifact_set = collect_leaf_artifacts(workspace)
    assert artifact_set.files == []
    assert workspace.status == "collected"


def test_collect_keeps_leaf_owned_files(engine):
    leaf = p(LEAVES[0])
    workspace = spawn_workspace(engine.root, engine.tree, leaf)
    slug = "skills/science/genomics/alignment/short-read-alignment"
    target = workspace.isolated_root / slug / "notes.md"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text("notes\n")
    artifact_set = collect_leaf_artifacts(workspace)
    assert [rel for rel, _d in artifact_set.files] == [f"{slug}/notes.md"]


def test_collect_rejects_shared_file_write_naming_path(engine):
    leaf = p(LEAVES[0])
    workspace = spawn_workspace(engine.root, engine.tree, leaf)
    (workspace.isolated_root / "skills.ndjson").write_text("tampered\n")
    with pytest.raises(SharedFileWriteError) as excinfo:
        collect_leaf_artifacts(workspace)
    assert "skills.ndjson" in excinfo.value.paths
    assert workspace.status == "discarded"


def test_followups_captured_from_stage_response(engine):
    leaf = p(LEAVES[0])
    workspace = spawn_workspace(engine.root, engine.tree, leaf)
    scratch = workspace.isolated_root / ".worker"
    scratch.mkdir()
    (scratch / "response.json").write_text(
        json.dumps(
            {
                "repo_changes": [],
                "blockers": [],
                "next_steps": ["update skills.ndjson with the mined entry"],
            }
        )
    )
    artifact_set = collect_leaf_artifacts(workspace)
    assert artifact_set.files == []
    assert artifact_set.declared_shared_followups == [
        {
            "leaf": LEAVES[0],
            "kind": "next_steps",
            "item": "update skills.ndjson with the mined entry",
        }
    ]


# -- merge ---------------------------------------------------------------------------


def _artifact_sets_for(engine, count=4):
    sets = []
    for leaf_text in LEAVES[:count]:
        leaf = p(leaf_text)
        workspace = spawn_workspace(engine.root, engine.tree, leaf)
        slug = "/".join(s.replace("_", "-") for s in leaf_text.split("/"))
        rel = f"skills/{slug}/worker-artifact.txt"
        target = workspace.isolated_root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(f"artifact for {leaf_text}\n")
        sets.append(collect_leaf_artifacts(workspace))
    return sets


def test_merge_is_deterministic_across_completion_orders(tmp_path, campaign_script):
    rng = random.Random(7)
    digests = set()
    for trial in range(20):
        root = tmp_path / f"trial-{trial:02d}"
        engine = make_engine(root / "library", campaign_script)
        sets = _artifact_sets_for(engine)
        shuffled = sets[:]
        rng.shuffle(shuffled)
        merge_worker_outputs(engine.root, shuffled, registry=engine.registry)
        for workspace_dir in (engine.root / "workspaces").iterdir():
            shutil.rmtree(workspace_dir)
        digests.add(state_digest(engine.root))
    assert len(digests) == 1


def test_merge_excludes_conflicted_set_but_applies_clean_ones(engine):
    sets = _artifact_sets_for(engine, count=2)
    poisoned = ArtifactSet(
        leaf_path=p(LEAVES[2]),
        files=[("skills.ndjson", "deadbeef")],
        stage_response={},
        source_root=engine.root,
    )
    result = merge_worker_outputs(engine.root, sets + [poisoned], registry=engine.registry)
    assert result.applied == [LEAVES[0], LEAVES[1]]
    assert len(result.excluded) == 1
    assert LEAVES[2] in result.excluded[0][0]


def test_merge_empty_set_list_changes_nothing(engine):
    before = state_digest(engine.root)
    result = merge_worker_outputs(engine.root, [], registry=engine.registry)
    assert result.applied == []
    assert state_digest(engine.root) == before


def test_rejected_shared_write_leaves_main_digest_unchanged(engine):
    before = state_digest(engine.root)
    leaf = p(LEAVES[0])
    workspace = spawn_workspace(engine.root, engine.tree, leaf)
    (workspace.isolated_root / "resources.ndjson").write_text("tampered\n")
    with pytest.raises(SharedFileWriteError):
        collect_leaf_artifacts(workspace)
    shutil.rmtree(workspace.isolated_root)
    assert state_digest(engine.root) == before


def test_unparseable_stage_response_discards_the_workspace(engine):
    workspace = spawn_workspace(engine.root, engine.tree, p(LEAVES[0]))
    scratch = workspace.isolated_root / ".worker"
    scratch.mkdir()
    (scratch / "response.json").write_text(json.dumps({"repo_changes": [], "next_steps": []}))
    with pytest.raises(WorkerError, match="unparseable stage response"):
        collect_leaf_artifacts(workspace)
    assert workspace.status == "discarded"
    with pytest.raises(WorkerError, match="is not open"):
        collect_leaf_artifacts(workspace)


def test_spawn_refuses_a_node_that_is_not_a_leaf(engine):
    with pytest.raises(WorkerError, match="is not an active leaf"):
        spawn_workspace(engine.root, engine.tree, p(GENOMICS))
    assert not (engine.root / "workspaces").exists()


def _scripted_set(root, leaf_text, rel, content):
    """An artifact set as a scripted worker declares it, staged under ``root``."""
    target = root / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(content)
    return ArtifactSet(
        leaf_path=p(leaf_text), files=[(rel, "digest")], stage_response={}, source_root=root
    )


def test_scripted_worker_with_escaping_file_path_is_discarded(tmp_path, engine):
    before = state_digest(engine.root)
    staged = tmp_path / "staged" / "workspace"
    escaping = _scripted_set(staged, LEAVES[0], "../../skills.ndjson", "tampered\n")
    result = merge_worker_outputs(engine.root, [escaping], registry=engine.registry)
    assert result.applied == []
    assert len(result.excluded) == 1
    assert "escaping" in result.excluded[0][1]
    assert state_digest(engine.root) == before
    assert (engine.root / "skills.ndjson").read_text() == ""


def test_merge_refuses_a_path_that_climbs_out_of_its_leaf_subtree(tmp_path, engine):
    slug = "skills/science/genomics/alignment/short-read-alignment"
    climbing = f"{slug}/../../../../../skills.ndjson"  # lands on the root registry
    assert not is_leaf_owned(climbing, p(LEAVES[0]))
    before = state_digest(engine.root)
    staged = tmp_path / "staged"
    clean = _scripted_set(staged / "clean", LEAVES[1], f"skills/{LEAVES[1]}/notes.md", "ok\n")
    bad = _scripted_set(staged / "bad", LEAVES[0], climbing, "x\n")
    result = merge_worker_outputs(engine.root, [bad, clean], registry=engine.registry)
    assert result.applied == [LEAVES[1]]
    assert [leaf for leaf, _reason in result.excluded] == [LEAVES[0]]
    assert (engine.root / "skills.ndjson").read_text() == ""
    assert (engine.root / f"skills/{LEAVES[1]}/notes.md").read_text() == "ok\n"
    assert state_digest(engine.root) != before


def test_merge_of_two_sets_writing_one_path_is_an_invariant_failure(tmp_path, engine):
    before = state_digest(engine.root)
    rel = f"skills/{LEAVES[0]}/notes.md"
    first = _scripted_set(tmp_path / "first", LEAVES[0], rel, "first\n")
    second = _scripted_set(tmp_path / "second", LEAVES[0], rel, "second\n")
    with pytest.raises(MergeCollisionError, match="written by both"):
        merge_worker_outputs(engine.root, [first, second], registry=engine.registry)
    assert state_digest(engine.root) == before


# -- campaigns --------------------------------------------------------------------------


def campaign_config(campaign_id="camp", cycles=2):
    return CampaignConfig(
        campaign_id=campaign_id,
        branch_schedule=(GENOMICS, IMAGING),
        cycles_per_branch=cycles,
    )


def test_campaign_phase_structure(engine):
    report = run_campaign(engine, campaign_config())
    assert report.status == "completed"
    assert len(report.mining_phases) == 4
    assert len(report.evaluation_phases) == 2
    assert report.completed_cycles == [1, 2, 3, 4]


def test_campaign_evaluation_covers_pending_skills(engine):
    report = run_campaign(engine, campaign_config())
    first_eval = report.evaluation_phases[0]
    outcomes = first_eval["outcomes"]
    # The align skill ships benchmark cases and clears the advantage bar;
    # the annotation skill has none.
    assert outcomes["short-read-alignment-align-short-reads"].startswith("advantage")
    assert outcomes["cell-type-annotation-annotate-cell-types"] == "no-cases"
    assert engine.state.pending_skills == ()


def test_campaign_with_no_pending_skills_records_noop_evaluation(tmp_path, campaign_script):
    engine = make_engine(tmp_path / "library", campaign_script)
    config = CampaignConfig(campaign_id="noop", branch_schedule=(IMAGING,), cycles_per_branch=1)
    # imaging tree_check focuses segmentation only; drain pending by running
    # the evaluation twice: the second evaluation batch sees nothing pending.
    report = run_campaign(engine, config)
    follow_up = run_campaign(engine, CampaignConfig(campaign_id="noop2", branch_schedule=(IMAGING,)))
    second_eval = follow_up.evaluation_phases[0]
    assert second_eval["evaluated"] == []
    assert second_eval["note"] == "no pending skills"
    assert report.status == follow_up.status == "completed"


def test_evaluation_skips_pending_skills_that_lost_verified_status(engine):
    from skillmine.workers import _evaluation_phase

    run_campaign(engine, CampaignConfig(campaign_id="pre", branch_schedule=(GENOMICS,)))
    # Re-mine and demote one pending skill before its evaluation batch runs.
    engine.run_cycle(focus_branch=GENOMICS)
    engine.state.pending_skills = ("short-read-alignment-align-short-reads",)
    engine.registry.transition_skill(
        "short-read-alignment-align-short-reads", "review", cycle=9
    )
    record = _evaluation_phase(engine, batch_size=4)
    outcome = record["outcomes"]["short-read-alignment-align-short-reads"]
    assert outcome.startswith("skipped")
    assert engine.state.pending_skills == ()


def test_evaluation_that_demotes_a_skill_recompacts_the_stats(tmp_path, campaign_script):
    script = tmp_path / "script"
    shutil.copytree(campaign_script, script)
    build = script / "skill_build__science--genomics--alignment--short-read-alignment__1.json"
    document = json.loads(build.read_text())
    # A flat score gives a weak margin that the no-op optimization cannot lift.
    document["candidates"][0]["artifacts"]["scripts/score.py"] = 'print("0.5")\n'
    build.write_text(json.dumps(document))
    write_mock(
        script,
        "layer2_optimize",
        "short-read-alignment-align-short-reads",
        1,
        {"actions": [], "rebenchmark": True},
    )
    engine = make_engine(tmp_path / "library", script)
    report = run_campaign(engine, CampaignConfig(campaign_id="weak", branch_schedule=(GENOMICS,)))
    assert report.evaluation_phases[0]["outcomes"]["short-read-alignment-align-short-reads"] == "review"
    stats = json.loads((engine.root / "index" / "stats.json").read_text())
    assert stats == engine.registry.snapshot_stats(engine.tree).to_record()


def test_a_raise_inside_an_optimization_leaves_the_benchmark_record(tmp_path, campaign_script):
    script = tmp_path / "script"
    shutil.copytree(campaign_script, script)
    build = script / "skill_build__science--genomics--alignment--short-read-alignment__1.json"
    document = json.loads(build.read_text())
    # A weak margin, and no scripted optimization: the first optimize call raises.
    document["candidates"][0]["artifacts"]["scripts/score.py"] = 'print("0.5")\n'
    build.write_text(json.dumps(document))
    engine = make_engine(tmp_path / "library", script)
    report = run_campaign(engine, CampaignConfig(campaign_id="miss", branch_schedule=(GENOMICS,)))
    assert [phase["kind"] for phase in report.phases] == ["mining", "evaluation-failed"]
    [record] = engine.registry.verifications(ALIGN_ID, "benchmark")
    assert (record.outcome, record.report_locator) == (
        "fail", f"reports/verifications/{ALIGN_ID}/benchmark/attempt-1.json"
    )
    assert engine.registry.skill(ALIGN_ID).status == "verified"


def test_configured_zero_advantage_threshold_is_used_as_given(tmp_path, campaign_script):
    script = tmp_path / "script"
    shutil.copytree(campaign_script, script)
    build = script / "skill_build__science--genomics--alignment--short-read-alignment__1.json"
    document = json.loads(build.read_text())
    # Both arms score 0.5: a zero margin, weak only under a positive threshold.
    document["candidates"][0]["artifacts"]["scripts/score.py"] = 'print("0.5")\n'
    build.write_text(json.dumps(document))
    write_mock(
        script,
        "layer2_optimize",
        "short-read-alignment-align-short-reads",
        1,
        {"actions": [], "rebenchmark": True},
    )
    engine = make_engine(tmp_path / "library", script, advantage_threshold=0.0)
    report = run_campaign(engine, CampaignConfig(campaign_id="zero", branch_schedule=(GENOMICS,)))
    outcome = report.evaluation_phases[0]["outcomes"]["short-read-alignment-align-short-reads"]
    assert outcome == "advantage margin=0.0000"
    [record] = engine.registry.verifications("short-read-alignment-align-short-reads", "benchmark")
    assert record.outcome == "pass"
    assert engine.registry.skill("short-read-alignment-align-short-reads").status == "verified"


def plant_every_validation_path(script: Path) -> None:
    """Edit a copy of the campaign script so that each validation path runs:
    the align skill fails its smoke test until a repair fixes it, then
    benchmarks weak until an optimization lifts it; no repair of the
    annotate skill passes; the segmentation skill benchmarks weak and no
    optimization changes that, so it goes to review."""

    def edit(leaf: str, change) -> dict:
        build = script / f"skill_build__science--{leaf}__1.json"
        document = json.loads(build.read_text())
        artifacts = document["candidates"][0]["artifacts"]
        original = dict(artifacts)
        change(artifacts)
        build.write_text(json.dumps(document))
        return original

    align = edit(
        "genomics--alignment--short-read-alignment",
        lambda a: a.update({"tests/smoke.py": FAILING_SMOKE, "scripts/score.py": 'print("0.5")\n'}),
    )
    fix = [{"path": "tests/smoke.py", "content": align["tests/smoke.py"]}]
    write_mock(script, "layer1_fix", ALIGN_ID, 1, {"diagnosis": "d", "edits": fix, "retest": True})
    lift = [{"path": "scripts/score.py", "content": align["scripts/score.py"]}]
    write_mock(script, "layer2_optimize", ALIGN_ID, 1, {"actions": lift, "rebenchmark": True})

    edit("genomics--annotation--cell-type-annotation", lambda a: a.update({"tests/smoke.py": FAILING_SMOKE}))
    write_mock(script, "layer1_fix", ANNOTATE_ID, 1, {"diagnosis": "d", "edits": [], "retest": True})

    flat = {"id": "c1", "with_command": "python3 -c \"print(1)\"",
            "baseline_command": "python3 -c \"print(0)\"", "score_command": "python3 -c \"print(0.5)\""}
    edit(
        "imaging--microscopy--segmentation",
        lambda a: a.update({"tests/benchmark.json": json.dumps({"cases": [flat]})}),
    )
    write_mock(script, "layer2_optimize", SEGMENT_ID, 1, {"actions": [], "rebenchmark": True})


@pytest.mark.parametrize("planted", [False, True], ids=["fixture", "every-path-planted"])
def test_campaign_library_is_the_same_with_one_or_four_validation_workers(
    tmp_path, campaign_script, monkeypatch, planted
):
    from concurrent.futures import ThreadPoolExecutor

    from skillmine.site import export_site
    from skillmine.util import digest_dir

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    if planted:
        script = tmp_path / "script"
        shutil.copytree(campaign_script, script)
        plant_every_validation_path(script)
    else:
        script = campaign_script
    monkeypatch.setattr(harnessmod, "ThreadPoolExecutor", RecordingPool)
    digests = []
    for workers in (1, 4):
        sizes: list[int] = []
        monkeypatch.setattr(harnessmod, "available_cpus", lambda n=workers: n)
        root = tmp_path / f"workers-{workers}" / "library"
        engine = make_engine(root, script, catalogs=(FIXTURES / "catalog_hub.ndjson",))
        config = CampaignConfig(
            campaign_id="acceptance", branch_schedule=(GENOMICS, IMAGING), cycles_per_branch=2
        )
        report = run_campaign(engine, config)
        assert report.status == "completed"
        export_site(engine.registry, engine.tree, root / "site")
        digests.append(
            (
                digest_dir(root, exclude=("LOCK", "workspaces", "sandbox")),
                digest_dir(root / "site"),
                engine.gateway.export_counters(),
            )
        )
        assert max(sizes) == min(workers, 2)  # two candidates in a genomics cycle
    assert digests[0] == digests[1]
    if planted:
        outcomes = {}
        for phase in report.evaluation_phases:
            outcomes.update(phase["outcomes"])
        assert outcomes == {ALIGN_ID: "optimized", SEGMENT_ID: "review"}
        history = [line["status"] for line in engine.registry.skill_history(ALIGN_ID)]
        assert sorted(set(history), key=history.index) == ["untested", "repaired", "verified"]
        assert engine.registry.skill(ANNOTATE_ID).status == "removed"
        counters = digests[0][2]
        assert counters[f"layer1_fix__{ANNOTATE_ID}"] == 2
        assert counters[f"layer2_optimize__{SEGMENT_ID}"] == 2


def test_campaign_halts_after_consecutive_failures(tmp_path, campaign_script):
    engine = make_engine(tmp_path / "library", campaign_script)
    config = CampaignConfig(
        campaign_id="doomed",
        branch_schedule=("science/missing-branch", "science/missing-branch"),
        cycles_per_branch=2,
        failure_halt_limit=2,
    )
    report = run_campaign(engine, config)
    assert report.status == "halted"
    failed = [phase for phase in report.phases if phase["kind"].endswith("-failed")]
    assert len(failed) == 2


def test_a_failed_phase_still_stops_at_stop_after_phases(tmp_path, campaign_script):
    engine = make_engine(tmp_path / "library", campaign_script)
    config = CampaignConfig(
        campaign_id="doomed",
        branch_schedule=("science/missing-branch",),
        cycles_per_branch=2,
        failure_halt_limit=3,
    )
    report = run_campaign(engine, config, stop_after_phases=1)
    assert report.status == "interrupted"
    assert [phase["kind"] for phase in report.phases] == ["mining-failed"]
    assert load_checkpoint(engine.root, "doomed").cursor == 1


# -- checkpoints ---------------------------------------------------------------------


def test_checkpoint_layout_is_pinned_and_loads_back():
    config = CampaignConfig(campaign_id="camp", branch_schedule=("science/genomics",))
    stored = json.loads(canonical_json(config.to_record()))
    checkpoint = CampaignCheckpoint(
        campaign_id="camp", completed_cycles=[1], pending_skills=["s"], cursor=2,
        registry_digest="rd", cycle_index=3,
        provider_counters={"skill_build": 2}, phases=[{"kind": "mining"}], config=stored,
    )
    assert canonical_json(checkpoint.to_record()) == (
        '{"campaign_id":"camp","completed_cycles":[1],"config":{"branch_schedule":'
        '["science/genomics"],"cycles_per_branch":1,"eval_batch_size":null,'
        '"failure_halt_limit":null},"cursor":2,"cycle_index":3,"failures_in_row":0,'
        '"pending_skills":["s"],"phases":[{"kind":"mining"}],'
        '"provider_counters":{"skill_build":2},"registry_digest":"rd"}'
    )
    assert CampaignCheckpoint.from_record(checkpoint.to_record()) == checkpoint
    # A checkpoint written with the former tree_digest field still loads.
    old = {**checkpoint.to_record(), "tree_digest": "td"}
    assert CampaignCheckpoint.from_record(old) == checkpoint
    assert CampaignConfig.from_record({**stored, "campaign_id": "camp"}) == config


def test_checkpoint_of_idle_state_round_trips(engine):
    report = run_campaign(engine, campaign_config(cycles=1))
    checkpoint = load_checkpoint(engine.root, "camp")
    assert checkpoint.cursor == len(report.phases)
    assert checkpoint.registry_digest == state_digest(engine.root)


def test_resume_refuses_on_drifted_state(tmp_path, campaign_script):
    engine = make_engine(tmp_path / "library", campaign_script)
    run_campaign(engine, campaign_config(cycles=1), stop_after_phases=1)
    (engine.root / "stray-edit.txt").write_text("registry modified behind the campaign's back\n")
    fresh = Pipeline(engine.config)
    with pytest.raises(DigestMismatchError):
        resume_campaign(fresh, "camp")


def test_interrupt_and_resume_matches_uninterrupted_run(tmp_path, campaign_script):
    config = campaign_config(cycles=1)
    baseline = make_engine(tmp_path / "straight" / "library", campaign_script)
    straight_report = run_campaign(baseline, config)
    straight_digest = state_digest(baseline.root)
    total_phases = len(straight_report.phases)

    for k in range(1, total_phases):
        root = tmp_path / f"interrupt-{k}" / "library"
        engine = make_engine(root, campaign_script)
        partial = run_campaign(engine, config, stop_after_phases=k)
        assert partial.status == "interrupted"
        resumed_engine = Pipeline(engine.config)
        resumed = resume_campaign(resumed_engine, "camp")
        assert resumed.status == "completed"
        assert len(resumed.phases) == total_phases
        assert state_digest(root) == straight_digest


def test_site_exported_into_the_library_does_not_break_resume(tmp_path, campaign_script):
    from skillmine.site import export_site

    config = campaign_config(cycles=1)
    baseline = make_engine(tmp_path / "straight" / "library", campaign_script)
    run_campaign(baseline, config)
    straight_digest = state_digest(baseline.root)

    engine = make_engine(tmp_path / "interrupted" / "library", campaign_script)
    assert run_campaign(engine, config, stop_after_phases=1).status == "interrupted"
    assert (engine.root / "site" / ".stale").exists()
    export_site(engine.registry, engine.tree, engine.root / "site")
    assert not (engine.root / "site" / ".stale").exists()
    resumed = resume_campaign(Pipeline(engine.config), "camp")
    assert resumed.status == "completed"
    assert state_digest(engine.root) == straight_digest


def _store_mining_mode(engine, campaign_id, mode):
    """Rewrite the checkpoint's stored mining mode; the digests do not cover it."""
    path = engine.root / "campaigns" / campaign_id / "checkpoint.json"
    record = json.loads(path.read_text("utf-8"))
    assert "mining_mode" not in record["config"]
    record["config"]["mining_mode"] = mode
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def test_resume_accepts_a_checkpoint_that_names_the_cycle_mode(tmp_path, campaign_script):
    config = campaign_config(cycles=1)
    baseline = make_engine(tmp_path / "straight" / "library", campaign_script)
    run_campaign(baseline, config)

    engine = make_engine(tmp_path / "older" / "library", campaign_script)
    assert run_campaign(engine, config, stop_after_phases=1).status == "interrupted"
    _store_mining_mode(engine, "camp", "cycle")
    resumed = resume_campaign(Pipeline(engine.config), "camp")
    assert resumed.status == "completed"
    assert state_digest(engine.root) == state_digest(baseline.root)


def test_resume_refuses_a_checkpoint_of_another_mining_mode(tmp_path, campaign_script):
    engine = make_engine(tmp_path / "library", campaign_script)
    partial = run_campaign(engine, campaign_config(cycles=1), stop_after_phases=1)
    assert partial.status == "interrupted"
    _store_mining_mode(engine, "camp", "workers")
    before = state_digest(engine.root)
    with pytest.raises(WorkerError, match="'workers'"):
        resume_campaign(Pipeline(engine.config), "camp")
    assert state_digest(engine.root) == before

    # The digest check comes first: drifted state is refused as such.
    (engine.root / "stray-edit.txt").write_text("edited behind the campaign's back\n")
    with pytest.raises(DigestMismatchError):
        resume_campaign(Pipeline(engine.config), "camp")
