"""Per-leaf worker workspaces, deterministic merge, and checkpointable campaigns.

Ownership partition: workers may write only under their leaf's
``skills/<leaf>/**`` and ``tests/<leaf>/**`` subtrees. Registry files, site
files, reports, and top-level documents are refresh-owned; a worker write
there discards the workspace. Merges apply in ascending leaf order so the
final state is independent of completion order.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from . import tree as treemod
from .errors import (
    DigestMismatchError,
    DuplicateWorkspaceError,
    MergeCollisionError,
    SharedFileWriteError,
    WorkerError,
)
from .gateway import validate_response
from .harness import load_benchmark_cases, validation_pool
from .pipeline import Pipeline, leaf_key, leaf_slug_path
from .registry import Registry
from .util import (
    NOT_WRITTEN,
    Record,
    atomic_write_bytes,
    atomic_write_text,
    dump_json_doc,
    digest_dir,
    file_manifest,
    is_escaping_relpath,
    sha256_hex,
    walk_files,
)

WORKSPACES_DIR = "workspaces"
CAMPAIGNS_DIR = "campaigns"
MARKER_FILE = ".workspace.json"
WORKER_SCRATCH = ".worker"

# Volatile by design: excluded from state digests. "LOCK" is the lock file an
# older registry left at the root; "site" holds an exported bundle and its
# stale marker, output derived from the engine state.
STATE_DIGEST_EXCLUDE = ("LOCK", WORKSPACES_DIR, CAMPAIGNS_DIR, "sandbox", "site")


def leaf_owned_prefixes(leaf_path: treemod.NodePath) -> tuple[str, str]:
    slug = leaf_slug_path(leaf_path)
    return (f"skills/{slug}", f"tests/{slug}")


def is_leaf_owned(rel_path: str, leaf_path: treemod.NodePath) -> bool:
    # A ".." part can climb out of the leaf subtree while keeping its prefix.
    if ".." in rel_path.split("/"):
        return False
    return any(
        rel_path == prefix or rel_path.startswith(prefix + "/")
        for prefix in leaf_owned_prefixes(leaf_path)
    )


def state_digest(root: str | Path) -> str:
    """Digest of the durable library state, minus volatile scratch areas."""
    return digest_dir(Path(root), exclude=STATE_DIGEST_EXCLUDE)


@dataclass
class Workspace:
    leaf_path: treemod.NodePath
    isolated_root: Path
    status: str = "open"  # open | collected | discarded

    def marker_path(self) -> Path:
        return self.isolated_root / MARKER_FILE


@dataclass
class ArtifactSet:
    leaf_path: treemod.NodePath
    files: list[tuple[str, str]]  # (relative path, content digest)
    declared_shared_followups: list[dict] = field(default_factory=list)
    source_root: Path | None = None


@dataclass
class MergeResult:
    applied: list[str] = field(default_factory=list)  # leaf paths merged
    excluded: list[tuple[str, str]] = field(default_factory=list)  # (leaf, reason)
    followups: list[dict] = field(default_factory=list)


def _workspace_manifest(root: Path) -> dict[str, str]:
    return file_manifest(root, exclude=(MARKER_FILE, WORKER_SCRATCH))


def spawn_workspace(root: str | Path, tree: treemod.DomainTree, leaf_path: treemod.NodePath) -> Workspace:
    """Copy the leaf's subtrees plus a read-only shared snapshot into isolation."""
    root = Path(root)
    node = tree.node(leaf_path)
    if node.kind != "leaf" or node.status not in ("active", "review"):
        raise WorkerError(f"{treemod.format_path(leaf_path)} is not an active leaf")

    isolated = root / WORKSPACES_DIR / leaf_key(leaf_path)
    if isolated.exists():
        marker = isolated / MARKER_FILE
        if marker.exists() and json.loads(marker.read_text("utf-8")).get("status") == "open":
            raise DuplicateWorkspaceError(
                f"a workspace is already open for {treemod.format_path(leaf_path)}"
            )
        shutil.rmtree(isolated)
    isolated.mkdir(parents=True)

    for prefix in leaf_owned_prefixes(leaf_path):
        source = root / prefix
        if source.is_dir():
            shutil.copytree(source, isolated / prefix)

    shared = ("skills.ndjson", "resources.ndjson", "verifications.ndjson", "tree.snapshot")
    for name in shared:
        source = root / name
        if source.is_file():
            target = isolated / name
            shutil.copy2(source, target)
            target.chmod(0o444)
    index = root / "index"
    if index.is_dir():
        shutil.copytree(index, isolated / "index")
        copied = os.fspath(isolated / "index")
        for rel in walk_files(copied):
            os.chmod(os.path.join(copied, rel), 0o444)

    manifest = _workspace_manifest(isolated)
    digest = sha256_hex(dump_json_doc(manifest).encode("utf-8"))
    workspace = Workspace(leaf_path=leaf_path, isolated_root=isolated)
    atomic_write_text(
        workspace.marker_path(),
        dump_json_doc(
            {
                "leaf_path": treemod.format_path(leaf_path),
                "status": "open",
                "base_snapshot_digest": digest,
                "base_manifest": manifest,
            }
        ),
    )
    return workspace


def _set_status(workspace: Workspace, status: str) -> None:
    workspace.status = status
    marker = json.loads(workspace.marker_path().read_text("utf-8"))
    marker["status"] = status
    atomic_write_text(workspace.marker_path(), dump_json_doc(marker))


def discard_workspace(workspace: Workspace) -> None:
    """Crashed or conflicted workspaces are discarded, never partially merged."""
    if workspace.marker_path().exists():
        _set_status(workspace, "discarded")


def collect_leaf_artifacts(workspace: Workspace) -> ArtifactSet:
    """Diff the workspace against its base snapshot and keep leaf-owned changes."""
    if workspace.status != "open":
        raise WorkerError(f"workspace for {treemod.format_path(workspace.leaf_path)} is not open")
    marker = json.loads(workspace.marker_path().read_text("utf-8"))
    base: Mapping[str, str] = marker["base_manifest"]
    current = _workspace_manifest(workspace.isolated_root)

    changed = [rel for rel, digest in sorted(current.items()) if base.get(rel) != digest]
    offending = [rel for rel in changed if not is_leaf_owned(rel, workspace.leaf_path)]
    if offending:
        discard_workspace(workspace)
        raise SharedFileWriteError(treemod.format_path(workspace.leaf_path), offending)

    response_path = workspace.isolated_root / WORKER_SCRATCH / "response.json"
    response_fields: dict = {"repo_changes": [], "blockers": [], "next_steps": []}
    if response_path.exists():
        try:
            validated = validate_response("parallel_leaf_stage", response_path.read_text("utf-8"))
        except Exception as exc:
            discard_workspace(workspace)
            raise WorkerError(
                f"unparseable stage response for {treemod.format_path(workspace.leaf_path)}: {exc}"
            ) from None
        response_fields = dict(validated.fields)

    followups = []
    leaf_text = treemod.format_path(workspace.leaf_path)
    for kind in ("repo_changes", "blockers", "next_steps"):
        for item in response_fields.get(kind, []):
            followups.append({"leaf": leaf_text, "kind": kind, "item": item})

    artifact_set = ArtifactSet(
        leaf_path=workspace.leaf_path,
        files=[(rel, current[rel]) for rel in changed],
        declared_shared_followups=followups,
        source_root=workspace.isolated_root,
    )
    _set_status(workspace, "collected")
    return artifact_set


def merge_worker_outputs(
    root: str | Path,
    artifact_sets: Sequence[ArtifactSet],
    registry: Registry,
) -> MergeResult:
    """Apply conflict-free sets in ascending leaf order, under the registry's
    writer lock; exclude the rest."""
    root = Path(root)
    result = MergeResult()

    clean: list[ArtifactSet] = []
    for artifact_set in artifact_sets:
        leaf_text = treemod.format_path(artifact_set.leaf_path)
        bad = [
            rel
            for rel, _digest in artifact_set.files
            if is_escaping_relpath(rel) or not is_leaf_owned(rel, artifact_set.leaf_path)
        ]
        if bad:
            result.excluded.append((leaf_text, f"refresh-owned or escaping paths: {', '.join(bad)}"))
            continue
        clean.append(artifact_set)

    seen_paths: dict[str, str] = {}
    for artifact_set in clean:
        for rel, _digest in artifact_set.files:
            owner = seen_paths.get(rel)
            if owner is not None:
                raise MergeCollisionError(
                    f"internal invariant failure: {rel} written by both {owner} "
                    f"and {treemod.format_path(artifact_set.leaf_path)}"
                )
            seen_paths[rel] = treemod.format_path(artifact_set.leaf_path)

    ordered = sorted(clean, key=lambda s: treemod.format_path(s.leaf_path))
    with registry.lock:
        for artifact_set in ordered:
            if artifact_set.source_root is None:
                raise WorkerError("artifact set has no source workspace to copy from")
            for rel, _digest in artifact_set.files:
                payload = (artifact_set.source_root / rel).read_bytes()
                atomic_write_bytes(root / rel, payload)
            result.applied.append(treemod.format_path(artifact_set.leaf_path))
            result.followups.extend(artifact_set.declared_shared_followups)
    return result


# -- campaigns ---------------------------------------------------------------------


@dataclass
class CampaignConfig(Record):
    campaign_id: str = field(metadata=NOT_WRITTEN)  # a checkpoint is stored under it
    branch_schedule: tuple[str, ...]
    cycles_per_branch: int = 1
    eval_batch_size: int | None = None
    failure_halt_limit: int | None = None

    def phase_plan(self) -> list[tuple[str, str]]:
        plan: list[tuple[str, str]] = []
        for branch in self.branch_schedule:
            plan.extend(("mining", branch) for _ in range(self.cycles_per_branch))
            plan.append(("evaluation", branch))
        return plan


@dataclass
class CampaignCheckpoint(Record):
    campaign_id: str
    completed_cycles: list[int]
    pending_skills: list[str]
    cursor: int  # completed phases
    registry_digest: str  # state_digest, which covers tree.snapshot
    cycle_index: int
    provider_counters: dict[str, int] = field(default_factory=dict)
    phases: list[dict] = field(default_factory=list)
    failures_in_row: int = 0
    config: dict = field(default_factory=dict)


@dataclass
class CampaignReport:
    campaign_id: str
    status: str  # completed | halted | interrupted
    phases: list[dict] = field(default_factory=list)
    completed_cycles: list[int] = field(default_factory=list)

    @property
    def mining_phases(self) -> list[dict]:
        return [p for p in self.phases if p["kind"].startswith("mining")]

    @property
    def evaluation_phases(self) -> list[dict]:
        return [p for p in self.phases if p["kind"] == "evaluation"]


def checkpoint_campaign(
    pipeline: Pipeline, config: CampaignConfig, cursor: int, phases: list[dict],
    completed_cycles: list[int], failures_in_row: int,
) -> CampaignCheckpoint:
    checkpoint = CampaignCheckpoint(
        campaign_id=config.campaign_id,
        completed_cycles=list(completed_cycles),
        pending_skills=sorted(pipeline.state.pending_skills),
        cursor=cursor,
        registry_digest=state_digest(pipeline.root),
        cycle_index=pipeline.state.cycle_index,
        provider_counters=pipeline.gateway.export_counters(),
        phases=list(phases),
        failures_in_row=failures_in_row,
        config=config.to_record(),
    )
    path = _checkpoint_path(pipeline.root, config.campaign_id)
    atomic_write_text(path, dump_json_doc(checkpoint.to_record()))
    return checkpoint


def load_checkpoint(root: str | Path, campaign_id: str) -> CampaignCheckpoint:
    """The campaign's checkpoint; a ``WorkerError`` when it is missing or unreadable."""
    path = _checkpoint_path(root, campaign_id)
    if not path.exists():
        raise WorkerError(f"no checkpoint for campaign {campaign_id}")
    try:
        record = json.loads(path.read_bytes())
    except ValueError as exc:  # not UTF-8, or not JSON
        raise _unreadable(path, str(exc)) from None
    if not isinstance(record, dict):
        raise _unreadable(path, "not a JSON object")
    try:
        checkpoint = CampaignCheckpoint.from_record(record)
    except KeyError as exc:
        raise _unreadable(path, f"missing field {exc}") from None
    except (TypeError, ValueError) as exc:  # an int or tuple field of the wrong type
        raise _unreadable(path, str(exc)) from None
    # from_record converts only int and tuple fields; the containers are checked here.
    for name, kind in _CHECKPOINT_CONTAINERS:
        if not isinstance(getattr(checkpoint, name), kind):
            raise _unreadable(path, f"{name} is not a JSON {_JSON_KIND[kind]}")
    return checkpoint


_CHECKPOINT_CONTAINERS = (
    ("completed_cycles", list), ("pending_skills", list), ("provider_counters", dict),
    ("phases", list), ("config", dict),
)
_JSON_KIND = {list: "array", dict: "object"}


def _checkpoint_path(root: str | Path, campaign_id: str) -> Path:
    return Path(root) / CAMPAIGNS_DIR / campaign_id / "checkpoint.json"


def _unreadable(path: Path, detail: str) -> WorkerError:
    return WorkerError(f"{path}: unreadable checkpoint: {detail}")


def verify_checkpoint(root: str | Path, campaign_id: str) -> tuple[CampaignCheckpoint, CampaignConfig]:
    """The campaign's checkpoint and config, once the library is shown to be
    in the state the checkpoint recorded.

    Refuses drifted state with ``DigestMismatchError`` before it looks at
    the stored config, and opens nothing but the checkpoint.
    """
    checkpoint = load_checkpoint(root, campaign_id)
    current_digest = state_digest(root)
    if checkpoint.registry_digest != current_digest:
        raise DigestMismatchError(
            f"campaign {campaign_id}: registry digest mismatch "
            f"(checkpoint {checkpoint.registry_digest[:12]}, disk {current_digest[:12]})"
        )

    stored = checkpoint.config
    # Older checkpoints name their mining mode; campaigns mine by cycles only.
    mode = stored.get("mining_mode", "cycle")
    if mode != "cycle":
        raise WorkerError(f"campaign {campaign_id}: unsupported mining mode {mode!r}")
    try:
        config = CampaignConfig.from_record({**stored, "campaign_id": campaign_id})
    except KeyError as exc:
        raise _unreadable(_checkpoint_path(root, campaign_id), f"missing config field {exc}") from None
    except (TypeError, ValueError) as exc:  # a config field of the wrong type
        raise _unreadable(_checkpoint_path(root, campaign_id), f"config: {exc}") from None
    return checkpoint, config


def _evaluation_phase(pipeline: Pipeline, batch_size: int) -> dict:
    """Batched layer-2 evaluation over pending skills.

    Each skill's benchmark run, and its optimization when the margin is
    weak, is one task on the validation pool. The benchmark records and the
    statuses the optimizations lead to are committed here in batch order; an
    error inside an optimization is raised after its benchmark record. When
    a status changed, the phase ends with the pipeline's ``commit_tree``, as
    a refresh does.
    """
    from . import contracts as contractsmod

    batch = sorted(pipeline.state.pending_skills)[:batch_size]
    outcomes: dict[str, str] = {}
    if not batch:
        return {"kind": "evaluation", "evaluated": [], "outcomes": {}, "note": "no pending skills"}

    registry, harness = pipeline.registry, pipeline.harness
    cycle = pipeline.state.cycle_index
    threshold = pipeline.config.advantage_threshold
    statuses = {skill_id: registry.skill(skill_id).status for skill_id in batch}
    roots = {
        skill_id: pipeline.root / registry.skill(skill_id).package_path
        for skill_id in batch
        if statuses[skill_id] == "verified"
    }
    attempts = {
        skill_id: len(registry.verifications(skill_id, "benchmark")) + 1
        for skill_id, root in roots.items()
        if (root / "tests" / "benchmark.json").exists()
    }

    def evaluate(skill_id: str):
        cases = load_benchmark_cases(roots[skill_id] / "tests" / "benchmark.json")
        package = contractsmod.load_package(roots[skill_id])
        report = harness.benchmark_compare(package, cases, skill_id, attempts[skill_id], threshold)
        if report.verdict == "pass":
            return report, None
        budget, gateway = pipeline.config.optimize_attempts, pipeline.gateway
        try:
            return report, harness.optimize_loop(
                package, skill_id, report, budget, gateway, cases, threshold=threshold
            )
        except Exception as exc:
            return report, exc

    with validation_pool(len(attempts)) as pool:
        runs = {skill_id: pool.submit(evaluate, skill_id) for skill_id in attempts}
        for skill_id in batch:
            if statuses[skill_id] != "verified":
                outcomes[skill_id] = f"skipped: status={statuses[skill_id]}"
                continue
            if skill_id not in runs:
                outcomes[skill_id] = "no-cases"
                continue
            report, optimized = runs[skill_id].result()
            registry.set_verification(
                skill_id, report.verification_record(attempts[skill_id], cycle), promote=False
            )
            if isinstance(optimized, Exception):
                raise optimized
            if optimized is None:
                outcomes[skill_id] = f"advantage margin={report.margin:.4f}"
            else:
                optimized.commit(registry, cycle)
                outcomes[skill_id] = optimized.outcome

    # An optimization can move a skill from verified to review outside refresh.
    if any(registry.skill(s).status != status for s, status in statuses.items()):
        with registry.lock:
            pipeline.commit_tree(pipeline.tree, "evaluation")
    remaining = [s for s in pipeline.state.pending_skills if s not in batch]
    pipeline.state.pending_skills = tuple(remaining)
    return {"kind": "evaluation", "evaluated": batch, "outcomes": outcomes}


def _mining_phase(pipeline: Pipeline, branch: str) -> dict:
    report = pipeline.run_cycle(focus_branch=branch)
    return {
        "kind": "mining",
        "branch": branch,
        "cycle_index": report.cycle_index,
        "stages": [s.stage for s in report.stages],
        "skills_created": report.skills_created,
        "skills_verified": report.skills_verified,
    }


def run_campaign(
    pipeline: Pipeline,
    config: CampaignConfig,
    stop_after_phases: int | None = None,
) -> CampaignReport:
    """Alternate branch-focused mining with batched evaluation, checkpointing
    after every phase. ``stop_after_phases`` is the controlled-interruption
    hook used to exercise resume."""
    return _campaign_loop(
        pipeline,
        config,
        cursor=0,
        phases=[],
        completed_cycles=[],
        failures_in_row=0,
        stop_after_phases=stop_after_phases,
    )


def resume_campaign(
    pipeline: Pipeline, campaign_id: str, stop_after_phases: int | None = None
) -> CampaignReport:
    """Resume from the checkpoint; refuses when on-disk state has drifted."""
    checkpoint, config = verify_checkpoint(pipeline.root, campaign_id)
    return continue_campaign(pipeline, checkpoint, config, stop_after_phases)


def finished_report(checkpoint: CampaignCheckpoint, config: CampaignConfig) -> CampaignReport | None:
    """What resuming a checkpoint with no phase left reports; None while phases are left."""
    if checkpoint.cursor < len(config.phase_plan()):
        return None
    return CampaignReport(
        campaign_id=config.campaign_id,
        status="completed",
        phases=list(checkpoint.phases),
        completed_cycles=list(checkpoint.completed_cycles),
    )


def continue_campaign(
    pipeline: Pipeline,
    checkpoint: CampaignCheckpoint,
    config: CampaignConfig,
    stop_after_phases: int | None = None,
) -> CampaignReport:
    """Run the phases left after a checkpoint that ``verify_checkpoint`` returned."""
    pipeline.state.cycle_index = checkpoint.cycle_index
    pipeline.state.pending_skills = tuple(checkpoint.pending_skills)
    pipeline.gateway.import_counters(checkpoint.provider_counters)
    return _campaign_loop(
        pipeline,
        config,
        cursor=checkpoint.cursor,
        phases=list(checkpoint.phases),
        completed_cycles=list(checkpoint.completed_cycles),
        failures_in_row=checkpoint.failures_in_row,
        stop_after_phases=stop_after_phases,
    )


def _campaign_loop(
    pipeline: Pipeline,
    config: CampaignConfig,
    cursor: int,
    phases: list[dict],
    completed_cycles: list[int],
    failures_in_row: int,
    stop_after_phases: int | None,
) -> CampaignReport:
    plan = config.phase_plan()
    halt_limit = config.failure_halt_limit or pipeline.config.failure_halt_limit
    batch_size = config.eval_batch_size or pipeline.config.eval_batch_size

    status = "completed"
    while cursor < len(plan):
        kind, branch = plan[cursor]
        try:
            if kind == "mining":
                record = _mining_phase(pipeline, branch)
                completed_cycles.append(record["cycle_index"])
            else:
                record = _evaluation_phase(pipeline, batch_size)
                record["branch"] = branch
            failures_in_row = 0
        except Exception as exc:
            failures_in_row += 1
            record = {"kind": f"{kind}-failed", "branch": branch, "error": str(exc)}
        phases.append(record)
        cursor += 1
        checkpoint_campaign(pipeline, config, cursor, phases, completed_cycles, failures_in_row)
        if failures_in_row >= halt_limit:
            status = "halted"
            break
        if stop_after_phases is not None and cursor >= stop_after_phases and cursor < len(plan):
            status = "interrupted"
            break

    return CampaignReport(
        campaign_id=config.campaign_id,
        status=status,
        phases=phases,
        completed_cycles=completed_cycles,
    )
