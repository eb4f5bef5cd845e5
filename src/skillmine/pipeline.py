"""The cycle controller: tree_check -> resource_search -> skill_build ->
skill_test -> refresh, plus prompt-driven single-skill design.

Stages 1-4 append to the record logs, and they write files of their own:
skill_build compiles candidate packages into ``skills/``, removing any that
compile or lint refuses, and skill_test writes verification reports under
``reports/verifications/`` and repaired packages back into ``skills/``.
Only ``commit_tree``, called by refresh, by a design commit and by a campaign
evaluation that changed a skill's status, writes the tree snapshot
(``tree.snapshot``), the compacted indexes (``index/``) and the
``site/.stale`` marker, under the writer lock.
A stage error aborts the cycle before refresh and leaves those untouched
(``test_aborted_cycle_leaves_committed_state_untouched`` and
``test_stages_one_to_four_never_mutate_committed_state`` pin this); the
packages and reports it wrote stay. skill_test validates its candidates at
once, so an error at one candidate may also leave later candidates'
repaired packages, reports and consumed provider calls, which no record
points at; which of them depends on timing.
"""

from __future__ import annotations

import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from . import contracts as contractsmod
from . import novelty as noveltymod
from . import tree as treemod
from .config import EngineConfig
from .errors import (
    ContractError,
    OutOfOrderStageError,
    PackageError,
    PathEscapeError,
    PipelineError,
    RefreshAbortedError,
)
from .gateway import STAGE_KINDS, EffortProfile, Gateway, LiveProvider, MockProvider, StageResponse
from .harness import (
    RepairOutcome,
    SyntheticReport,
    TestReport,
    ValidationHarness,
    needs_scheduler,
    validation_pool,
)
from .registry import (
    RECORD_LOGS,
    TREE_SNAPSHOT,
    Registry,
    ResourceEntry,
    SkillEntry,
    open_registry,
    skill_id_for,
)
from .util import Record, atomic_write_text, dump_json_doc, sha256_hex, slugify

STAGE_ORDER = ("tree_check", "resource_search", "skill_build", "skill_test", "refresh")

GRAVEYARD_DIR = "graveyard"
REPORTS_DIR = "reports"
SITE_STALE_MARKER = "site/.stale"


def leaf_slug_path(path: treemod.NodePath) -> str:
    return "/".join(slugify(label) for label in path)


def leaf_key(path: treemod.NodePath) -> str:
    return "--".join(slugify(label) for label in path)


@dataclass
class StageOutcome(Record):
    stage: str
    digest: str
    duration_seconds: float
    summary: str


@dataclass
class CycleReport(Record):
    cycle_index: int
    stages: list[StageOutcome] = field(default_factory=list, metadata={"record": StageOutcome})
    skills_created: list[str] = field(default_factory=list)
    skills_verified: list[str] = field(default_factory=list)
    skills_removed: list[str] = field(default_factory=list)
    tree_edits: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    focus_branch: str | None = None


@dataclass
class PipelineState:
    cycle_index: int = 1
    stage_cursor: str | None = None  # last completed stage; None means idle
    focus_leaves: tuple[str, ...] = ()
    pending_skills: tuple[str, ...] = ()


@dataclass
class DesignReport(Record):
    task_prompt: str
    skill_id: str | None
    status: str  # verified | failed
    resource_search_skipped: bool
    steps: list[str] = field(default_factory=list)
    verdict: str | None = None


@dataclass
class _Validation:
    """What one skill's validation task decided, in the order it ran."""

    execution: TestReport  # attempt 1
    repair: RepairOutcome | None = None
    synthetic: SyntheticReport | None = None
    system: TestReport | None = None
    error: Exception | None = None  # raised once what ran before it is committed

    @property
    def removed(self) -> bool:
        return self.repair is not None and self.repair.outcome == "removed"

    def flag_reason(self) -> str | None:
        """Why the layer runs send the skill to review, or None."""
        synthetic = self.synthetic
        if synthetic is not None and not synthetic.clean:
            if synthetic.error:
                return f"synthetic error: {synthetic.error}"
            if synthetic.stability != "stable":
                return "synthetic instability"
            if synthetic.coverage_gaps:
                return f"coverage gaps: {', '.join(synthetic.coverage_gaps)}"
            return f"missing outputs: {', '.join(synthetic.missing_outputs)}"
        if self.system is not None and self.system.verdict != "pass":
            return "system test failure"
        return None


@dataclass
class _CycleScratch:
    """Per-cycle working set; cleared when the cycle completes or aborts."""

    resources: list[tuple[str, str]] = field(default_factory=list)  # (leaf, resource id)
    built: list[tuple[str, str]] = field(default_factory=list)  # (leaf, skill id)
    passed: list[str] = field(default_factory=list)
    flagged: list[tuple[str, str]] = field(default_factory=list)  # (skill id, reason)
    removed: list[tuple[str, str]] = field(default_factory=list)  # (leaf, skill id)
    untestable: list[str] = field(default_factory=list)
    proposed_edits: list[dict] = field(default_factory=list)
    verdicts: dict[str, str] = field(default_factory=dict)  # skill id -> decision
    tree_edits: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


class Pipeline:
    def __init__(
        self,
        config: EngineConfig,
        registry: Registry | None = None,
        tree: treemod.DomainTree | None = None,
        gateway: Gateway | None = None,
    ):
        self.config = config.validate()
        self.root = Path(config.registry_root)
        if tree is None and not (self.root / TREE_SNAPSHOT).exists():
            raise PipelineError(
                f"no tree snapshot at {self.root}; initialize the registry from a taxonomy first"
            )
        self.registry = registry or open_registry(self.root, lock_wait=config.lock_wait)
        self.tree = tree or self.registry.load_tree_snapshot()
        if gateway is None:
            if config.provider == "mock":
                provider = MockProvider(config.script_dir)
            else:
                provider = LiveProvider()
            gateway = Gateway(provider, self._effort_profile())
        self.gateway = gateway
        self.harness = ValidationHarness(
            sandbox_root=self.root / "sandbox",
            reports_root=self.root / REPORTS_DIR,
            deterministic=config.deterministic_clock,
            keep_sandboxes=config.keep_sandboxes,
            timeout=config.smoke_timeout,
        )
        self.state = PipelineState()
        self._scratch = _CycleScratch()
        self._external_catalogs: dict[str, list[noveltymod.CatalogEntry]] | None = None
        # Novelty inputs kept for the life of the pipeline: the external
        # catalogs' index, the local skills' texts keyed on their skill.json
        # files, and the local index.
        self._external_index: dict[str, noveltymod.CatalogIndex] | None = None
        self._local_texts: dict[str, noveltymod.LocalText] = {}
        self._local: noveltymod.CatalogIndex | None = None

    # -- construction ------------------------------------------------------------

    @classmethod
    def initialize(cls, config: EngineConfig, taxonomy_document: str, **kwargs) -> "Pipeline":
        """Fresh registry from a taxonomy document.

        The config and the taxonomy are checked, and a root that already holds
        a tree snapshot or a record is refused, before anything is written.
        """
        config.validate()
        tree = treemod.load_tree(taxonomy_document)
        root = Path(config.registry_root)
        if (root / TREE_SNAPSHOT).exists() or any(
            (root / name).is_file() and (root / name).stat().st_size for name in RECORD_LOGS
        ):
            raise PipelineError(f"{root} already holds a library; init needs a fresh root")
        registry = open_registry(root, lock_wait=config.lock_wait)
        registry.save_tree(tree)
        registry.compact_index(tree)
        return cls(config, registry=registry, tree=tree, **kwargs)

    # -- shared helpers ------------------------------------------------------------

    def _effort_profile(self) -> EffortProfile:
        profile = EffortProfile.default(self.config.model)
        if not self.config.efforts:
            return profile
        assignments = dict(profile.assignments)
        for entry in self.config.efforts:
            parts = entry.split(":")
            if len(parts) != 3:
                raise PipelineError(f"effort override must be stage:model:level, got {entry!r}")
            stage, model, level = parts
            if stage not in STAGE_KINDS:
                raise PipelineError(f"effort override names unknown stage {stage!r}")
            assignments[stage] = (model, level)
        return EffortProfile(assignments=assignments)

    def repository_summary(self) -> str:
        summary = treemod.coverage_summary(self.tree)
        statuses = Counter(e.status for e in self.registry.skills())
        present = sum(statuses.values()) - statuses["removed"]
        return (
            f"cycle={self.state.cycle_index} skills={present} verified={statuses['verified']} "
            f"resources={len(self.registry.resources())} leaves={summary['leaves']} "
            f"covered={summary['covered']}"
        )

    def _now(self) -> float:
        return 0.0 if self.config.deterministic_clock else time.monotonic()

    def external_catalogs(self) -> dict[str, list[noveltymod.CatalogEntry]]:
        if self._external_catalogs is None:
            self._external_catalogs = {
                path.stem: noveltymod.load_catalog_snapshot(path)
                for path in self.config.catalogs
            }
        return self._external_catalogs

    def _expected_stage(self) -> str:
        if self.state.stage_cursor is None:
            return STAGE_ORDER[0]
        index = STAGE_ORDER.index(self.state.stage_cursor)
        if index == len(STAGE_ORDER) - 1:
            return STAGE_ORDER[0]
        return STAGE_ORDER[index + 1]

    # -- stages ----------------------------------------------------------------------

    def run_stage(self, stage: str, focus_branch: str | None = None) -> StageOutcome:
        expected = self._expected_stage()
        if stage != expected:
            raise OutOfOrderStageError(
                f"stage {stage} requested but the next stage in order is {expected}"
            )
        started = self._now()
        digest, summary = getattr(self, f"_stage_{stage}")(focus_branch)
        outcome = StageOutcome(
            stage=stage,
            digest=digest,
            duration_seconds=(self._now() - started) if not self.config.deterministic_clock else 0.0,
            summary=summary,
        )
        self.state.stage_cursor = stage
        return outcome

    def _branch_key(self, focus_branch: str | None) -> str:
        return slugify(focus_branch) if focus_branch else "default"

    def _priority_paths(self, focus_branch: str | None) -> list[str]:
        under = treemod.parse_path(focus_branch) if focus_branch else ()
        view = self.registry.view(self.state.cycle_index)
        ranked = treemod.prioritize_branches(self.tree, view, self.config.focus_k, under=under)
        return [treemod.format_path(p.path) for p in ranked]

    def _stage_tree_check(self, focus_branch: str | None) -> tuple[str, str]:
        context = {
            "repository_summary": self.repository_summary(),
            "objective": focus_branch or "expand under-covered leaves",
        }
        response = self.gateway.call("tree_check", context, key=self._branch_key(focus_branch))
        ranked = self._priority_paths(focus_branch)
        suggested = list(response.fields["focus_leaves"])
        ordered = [p for p in ranked if p in suggested]
        if not ordered:
            ordered = ranked[:1]
            if suggested:
                self._scratch.notes.append(
                    "focus disagreement: provider suggestions did not intersect priorities"
                )
        self.state.focus_leaves = tuple(ordered)
        self._scratch.proposed_edits = list(response.fields.get("proposed_edits", []))
        return response.digest(), f"focus={len(ordered)}"

    def _stage_resource_search(self, focus_branch: str | None) -> tuple[str, str]:
        context = {
            "repository_summary": self.repository_summary(),
            "focus_leaves": list(self.state.focus_leaves),
            "objective": "mine authoritative resources for the focus leaves",
        }
        response = self.gateway.call(
            "resource_search", context, key=self._branch_key(focus_branch)
        )
        rows = response.fields["resources"]
        by_leaf: dict[str, list[dict]] = {}
        for row in rows:
            by_leaf.setdefault(row["leaf_path"], []).append(row)

        recorded = 0
        exhausted = False
        budget = self.config.search_budget
        for leaf in sorted(by_leaf):
            offered = by_leaf[leaf]
            ranked = sorted(
                enumerate(offered), key=lambda pair: (-pair[1].get("authority_rank", 0), pair[0])
            )
            if len(ranked) > budget:
                exhausted = True
            for _idx, row in ranked[:budget]:
                self._scratch.resources.append((leaf, self._record_resource(row, leaf)))
                recorded += 1
        summary = f"recorded={recorded}" + (" budget-exhausted" if exhausted else "")
        return response.digest(), summary

    def _record_resource(self, row: dict, leaf: str) -> str:
        """Record one provider-offered resource row under ``leaf``; returns its id."""
        receipt = self.registry.record_resource(
            ResourceEntry(
                id="",
                kind=row["kind"],
                locator=row["locator"],
                leaf_paths=[leaf],
                retrieved_cycle=self.state.cycle_index,
                authority_rank=int(row.get("authority_rank", 0)),
            )
        )
        return receipt.id

    def _stage_skill_build(self, focus_branch: str | None) -> tuple[str, str]:
        del focus_branch
        digests: list[str] = []
        built = 0
        for leaf in self.state.focus_leaves:
            leaf_path = treemod.parse_path(leaf)
            resources = [
                self.registry.resource(rid).locator
                for l, rid in self._scratch.resources
                if l == leaf
            ]
            response = self.gateway.call(
                "skill_build",
                {
                    "target_leaf": leaf,
                    "objective": "compile executable skill packages for this leaf",
                    "resources": resources,
                },
                key=leaf_key(leaf_path),
            )
            digests.append(response.digest())
            for candidate in response.fields["candidates"][: self.config.candidate_cap]:
                if self._build_candidate(leaf, candidate):
                    built += 1
        digest = sha256_hex("".join(digests).encode("ascii")) if digests else sha256_hex(b"")
        return digest, f"built={built}"

    def _build_candidate(self, leaf: str, candidate: dict) -> bool:
        name = candidate["name"]
        duplicate = any(
            e.leaf_path == leaf and e.name == name and e.status != "removed"
            for e in self.registry.skills()
        )
        if duplicate:
            self._scratch.notes.append(f"duplicate-candidate: {name} at {leaf}")
            return False

        # A candidate that does not parse or compile costs only itself.
        try:
            contract = contractsmod.parse_contract(candidate)
            violations = contractsmod.contract_violations(contract)
            if not contract.provenance_links:
                violations.append("mined contract has empty provenance")
            if not violations:
                # Provenance links arrive as locators; map them onto recorded resource ids.
                provenance = []
                for link in contract.provenance_links:
                    resource = self.registry.resource_by_locator(link)
                    provenance.append(resource.id if resource else link)
                package, entry = self._compile_skill(leaf, name, contract, candidate, provenance)
        except (ContractError, PackageError, PathEscapeError) as exc:
            violations = [str(exc)]
        if violations:
            self._scratch.notes.append(f"contract-violations: {name}: {'; '.join(violations)}")
            return False

        findings = contractsmod.lint_package(package)
        if findings:
            shutil.rmtree(package.root_path)
            self._scratch.notes.append(f"lint-findings: {entry.id}: {'; '.join(findings)}")
            return False
        self.registry.upsert_skill(entry)
        if not contract.test_commands:
            self._scratch.notes.append(f"missing-tests: {entry.id}")
        self._scratch.built.append((leaf, entry.id))
        return True

    def _compile_skill(
        self, leaf: str, name: str, contract: contractsmod.SkillContract, document: dict,
        provenance: list[str],
    ) -> tuple[contractsmod.SkillPackage, SkillEntry]:
        """Compile a new package for ``contract`` under ``leaf``, with the
        artifacts ``document`` carries; returns it with its untested entry,
        which the caller upserts. A package that compiling refuses is removed:
        no record points at it, and the next candidate of that name would
        compile into the same directory."""
        skill_id = skill_id_for(leaf, name, {e.id for e in self.registry.skills()})
        package_rel = f"skills/{leaf_slug_path(treemod.parse_path(leaf))}/{skill_id}"
        try:
            package = contractsmod.compile_package(
                contract, dict(document.get("artifacts", {})), self.root / package_rel, name=name
            )
        except BaseException:
            shutil.rmtree(self.root / package_rel, ignore_errors=True)
            raise
        entry = SkillEntry(
            id=skill_id,
            name=name,
            leaf_path=leaf,
            status="untested",
            package_path=package_rel,
            smoke_target=contract.test_commands[0] if contract.test_commands else None,
            provenance=sorted(set(provenance)),
            created_cycle=self.state.cycle_index,
            updated_cycle=self.state.cycle_index,
            confidence="standard" if contract.test_commands else "starter",
        )
        return package, entry

    def _stage_skill_test(self, focus_branch: str | None) -> tuple[str, str]:
        """Validate the candidates on the pool; commit in build order."""
        del focus_branch
        summaries: list[str] = []
        entries = [self.registry.skill(skill_id) for _leaf, skill_id in self._scratch.built]
        testable = [entry for entry in entries if entry.smoke_target is not None]
        with validation_pool(len(testable)) as pool:
            runs = {e.id: pool.submit(self._validate, e.id, e.package_path) for e in testable}
            for leaf, skill_id in self._scratch.built:
                run = runs.get(skill_id)
                if run is None:
                    self._scratch.untestable.append(skill_id)
                    summaries.append(f"{skill_id}:untestable")
                    continue
                validation = run.result()
                self._commit_validation(skill_id, validation)
                reason = validation.flag_reason()
                if validation.removed:
                    self._scratch.removed.append((leaf, skill_id))
                elif reason is None:
                    self._scratch.passed.append(skill_id)
                else:
                    self._scratch.flagged.append((skill_id, reason))
                kind = "removed" if validation.removed else "flagged" if reason else "pass"
                summaries.append(f"{skill_id}:{kind}")
        digest = sha256_hex(";".join(summaries).encode("utf-8"))
        return digest, f"tested={len(self._scratch.built)}"

    def _validate(self, skill_id: str, package_path: str, layers: bool = True) -> _Validation:
        """One skill's validation, a pool task that writes no registry state:
        execution attempt 1, a repair when it fails, and, with ``layers``
        and unless the repair removed the skill, the synthetic run and the
        system run when the package declares a scheduler and synthetic was
        clean. An error after attempt 1 is returned with what ran before it."""
        package = contractsmod.load_package(self.root / package_path)
        validation = _Validation(self.harness.execution_test(package, skill_id, attempt=1))
        try:
            if validation.execution.verdict != "pass":
                budget = self.config.repair_attempts
                validation.repair = self.harness.repair_loop(
                    package, skill_id, validation.execution, budget, self.gateway
                )
                package = contractsmod.load_package(package.root_path)
            if layers and not validation.removed:
                validation.synthetic = self.harness.synthetic_test(package, skill_id)
                if validation.synthetic.clean and needs_scheduler(package):
                    validation.system = self.harness.system_test(package, skill_id)
        except Exception as exc:
            validation.error = exc
        return validation

    def _commit_validation(self, skill_id: str, validation: _Validation) -> None:
        """Record what the task ran, in order, without promoting; then raise
        its error, if it had one."""
        cycle = self.state.cycle_index
        self.registry.set_verification(
            skill_id, validation.execution.verification_record(1, cycle), promote=False
        )
        if validation.repair is not None:
            validation.repair.commit(self.registry, cycle, promote=False)
        if validation.system is not None:
            self.registry.set_verification(
                skill_id, validation.system.verification_record(1, cycle), promote=False
            )
        if validation.error is not None:
            raise validation.error

    def _stage_refresh(self, focus_branch: str | None) -> tuple[str, str]:
        del focus_branch
        cycle = self.state.cycle_index
        scratch = self._scratch
        with self.registry.lock:
            tree = self.tree

            for leaf, resource_id in scratch.resources:
                tree = treemod.link_resource(tree, treemod.parse_path(leaf), resource_id)

            verdicts = scratch.verdicts
            local = self._local_index() if scratch.passed else None
            for skill_id in sorted(scratch.passed):
                verdict = self.adjudicate(skill_id, local)
                tree = noveltymod.apply_verdict(tree, self.registry, verdict, cycle)
                verdicts[skill_id] = verdict.decision

            for skill_id, reason in sorted(scratch.flagged):
                noveltymod.promote_if_pending(self.registry, skill_id, cycle)
                self.registry.transition_skill(skill_id, "review", cycle)
                leaf = treemod.parse_path(self.registry.skill(skill_id).leaf_path)
                tree = treemod.link_skill(tree, leaf, skill_id)
                tree = treemod.record_verification(tree, leaf, skill_id, "fail", cycle)
                scratch.notes.append(f"review: {skill_id}: {reason}")

            for leaf, skill_id in sorted(scratch.removed):
                tree = treemod.record_verification(
                    tree, treemod.parse_path(leaf), skill_id, "fail", cycle
                )

            tree_edits = scratch.tree_edits
            for edit in scratch.proposed_edits:
                applied = self._apply_proposed_edit(tree, edit)
                if applied is not None:
                    tree, description = applied
                    tree_edits.append(description)

            self.commit_tree(tree, "refresh")

            promoted = [
                s
                for s, d in sorted(verdicts.items())
                if self.registry.skill(s).status == "verified"
            ]
            self.state.pending_skills = tuple(
                sorted(set(self.state.pending_skills) | set(promoted))
            )
            digest = sha256_hex(
                dump_json_doc({"verdicts": verdicts, "edits": tree_edits}).encode("utf-8")
            )
            return digest, f"verdicts={len(verdicts)} edits={len(tree_edits)}"

    def _apply_proposed_edit(self, tree: treemod.DomainTree, edit: dict):
        """Provider-attributed tree edits from tree_check; invalid ones are skipped.

        Registry write-backs follow the refinement discipline: pruning
        deprecates or removes the leaf's skills first, merging and splitting
        relocate them to the surviving leaves.
        """
        cycle = self.state.cycle_index
        try:
            if edit.get("op") == "split":
                path = treemod.parse_path(edit["path"])
                partitions = [
                    (p["label"], list(p.get("skill_ids", []))) for p in edit["partitions"]
                ]
                tree = treemod.split_branch(tree, path, partitions)
                for label, skill_ids in partitions:
                    for skill_id in skill_ids:
                        self.registry.relocate_skill(
                            skill_id, treemod.format_path(path + (label,)), cycle
                        )
                return tree, f"split {edit['path']} into {len(partitions)} leaves"
            if edit.get("op") == "insert":
                parent = treemod.parse_path(edit["parent"])
                tree = treemod.insert_leaf(tree, parent, edit["label"])
                return tree, f"insert {edit['parent']}/{edit['label']}"
            if edit.get("op") == "prune":
                path = treemod.parse_path(edit["path"])
                self._retire_leaf_skills(tree.node(path), cycle)
                tree = treemod.prune_leaf(tree, path, reason=edit.get("reason", "provider"))
                return tree, f"prune {edit['path']}"
            if edit.get("op") == "merge":
                path_a = treemod.parse_path(edit["path_a"])
                path_b = treemod.parse_path(edit["path_b"])
                survivor = treemod.parse_path(edit["survivor"])
                absorbed = tree.node(path_a if survivor == path_b else path_b)
                tree = treemod.merge_leaves(tree, path_a, path_b, surviving_path=survivor)
                for skill_id in sorted(absorbed.linked_skills):
                    self.registry.relocate_skill(
                        skill_id, treemod.format_path(survivor), cycle
                    )
                return tree, f"merge {edit['path_a']} + {edit['path_b']} -> {edit['survivor']}"
        except Exception as exc:
            self._scratch.notes.append(f"proposed edit skipped: {exc}")
            return None
        self._scratch.notes.append(f"proposed edit skipped: unknown op {edit.get('op')!r}")
        return None

    def _retire_leaf_skills(self, node: treemod.TreeNode, cycle: int) -> None:
        """Deprecation records must exist before a prune commits."""
        for skill_id in sorted(node.linked_skills):
            status = self.registry.skill(skill_id).status
            if status in ("verified", "review"):
                self.registry.transition_skill(skill_id, "deprecated", cycle)
            elif status in ("untested", "repaired"):
                self.registry.transition_skill(skill_id, "removed", cycle)

    def _local_entries(self) -> list[noveltymod.CatalogEntry]:
        return noveltymod.local_catalog_entries(
            self.registry, self.root, self._local_texts, self.harness.sandbox_root
        )

    def _local_index(self) -> noveltymod.CatalogIndex:
        """The index over the local library, brought up to date once per commit.

        It is kept across commits: a commit that changed only scopes or
        added skills updates it in place, and any other change rebuilds it.
        """
        entries = self._local_entries()
        if self._local is None or not self._local.update(entries):
            self._local = noveltymod.CatalogIndex(entries)
        return self._local

    def adjudicate(
        self, skill_id: str, local: noveltymod.CatalogIndex | None = None
    ) -> noveltymod.NoveltyVerdict:
        """Review one candidate against ``local``, else against a fresh read.

        A commit (refresh, a design) passes ``local``, its index of the local
        library, and searches it with the external catalogs' index, built at
        the first commit review and then kept. ``local`` may predate verdicts
        of the same commit, so the search skips the candidate itself and
        every skill that a verdict has since removed. A review without it
        stands alone, as a CLI ``novelty`` read does: it scans the local
        entries and the external catalogs and builds no index, which costs
        less for one search.
        """
        entry = self.registry.skill(skill_id)
        package = contractsmod.load_package(self.root / entry.package_path)
        contract = package.contract()
        keywords = noveltymod.derive_keywords(contract)
        scope_text = noveltymod.candidate_scope_text(contract)
        try:
            scope_keywords = noveltymod.keywords_from_text(scope_text)
        except noveltymod.EmptyKeywordsError:
            scope_keywords = None

        if local is None:
            # The external catalogs first: their load is a read's peak
            # memory, and the local entries need not be alive during it.
            external = self.external_catalogs()
            catalogs = {"local": self._local_entries(), **external}
        else:
            if self._external_index is None:
                self._external_index = {
                    catalog_id: noveltymod.CatalogIndex(entries)
                    for catalog_id, entries in self.external_catalogs().items()
                }
            catalogs = {"local": local, **self._external_index}

        def skip(e: noveltymod.CatalogEntry) -> bool:
            return e.catalog_id == "local" and (
                e.entry_ref == skill_id or self.registry.skill(e.entry_ref).status == "removed"
            )

        matches = noveltymod.search_catalogs(
            catalogs,
            keywords,
            limit=self.config.novelty_match_limit,
            candidate_task_text=contract.task_scope,
            scope_keywords=scope_keywords,
            candidate_scope_text=scope_text,
            skip=skip,
        )
        provider_response: StageResponse | None = None
        if self.config.novelty_provider:
            provider_response = self.gateway.call(
                "novelty_check",
                {
                    "target_skill": skill_id,
                    "matches": [m.entry_ref for m in matches],
                },
                key=skill_id,
            )
        return noveltymod.adjudicate(contract, matches, provider_response, skill_id=skill_id)

    def commit_tree(self, tree: treemod.DomainTree, what: str) -> None:
        """Gate ``tree`` on ``integrity_check``, then write it, the indexes and
        the stale-site marker and move removed packages to the graveyard.
        The caller holds the writer lock; ``what`` names the commit."""
        violations = self.registry.integrity_check(tree)
        if violations:
            raise RefreshAbortedError(
                f"{what} aborted by integrity violations: " + "; ".join(violations)
            )
        self.tree = tree
        self.registry.save_tree(tree)
        self.registry.compact_index(tree)
        atomic_write_text(self.root / SITE_STALE_MARKER, "stale\n")
        self._move_removed_to_graveyard()

    def _move_removed_to_graveyard(self) -> None:
        for entry in self.registry.skills():
            if entry.status != "removed" or not entry.package_path:
                continue
            source = self.root / entry.package_path
            if not source.exists():
                continue
            target = self.root / GRAVEYARD_DIR / entry.id
            if target.exists():
                shutil.rmtree(target)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.move(str(source), str(target))

    # -- whole cycles --------------------------------------------------------------

    def run_cycle(self, focus_branch: str | None = None) -> CycleReport:
        if self.state.stage_cursor is not None:
            raise OutOfOrderStageError("run_cycle requires an idle pipeline")
        report = CycleReport(cycle_index=self.state.cycle_index, focus_branch=focus_branch)
        self._scratch = _CycleScratch()
        try:
            for stage in STAGE_ORDER:
                report.stages.append(self.run_stage(stage, focus_branch))
        except BaseException:
            # Abort: no shared-state commit happened (refresh raises before
            # committing); return to idle with the same cycle index.
            self.state.stage_cursor = None
            self.state.focus_leaves = ()
            self._scratch = _CycleScratch()
            raise

        report.skills_created = sorted(sid for _leaf, sid in self._scratch.built)
        status = {s: self.registry.skill(s).status for s in report.skills_created}
        report.skills_verified = [s for s in report.skills_created if status[s] == "verified"]
        report.skills_removed = [s for s in report.skills_created if status[s] == "removed"]
        report.tree_edits = list(self._scratch.tree_edits)
        report.notes = list(self._scratch.notes)

        self.state.stage_cursor = None
        self.state.focus_leaves = ()
        self.state.cycle_index += 1
        self._scratch = _CycleScratch()
        self._write_cycle_report(report)
        return report

    def _write_cycle_report(self, report: CycleReport) -> None:
        path = self.root / REPORTS_DIR / "cycles" / f"cycle-{report.cycle_index:05d}.json"
        atomic_write_text(path, dump_json_doc(report.to_record()))

    def load_cycle_reports(self) -> list[CycleReport]:
        import json

        reports = []
        directory = self.root / REPORTS_DIR / "cycles"
        if directory.is_dir():
            for path in sorted(directory.glob("cycle-*.json")):
                reports.append(CycleReport.from_record(json.loads(path.read_text("utf-8"))))
        return reports

    # -- design mode -----------------------------------------------------------------

    def design_skill(self, task_prompt: str) -> DesignReport:
        """Prompt-driven synthesis of one skill through the same contract path."""
        if not task_prompt.strip():
            raise PipelineError("design_skill requires a non-empty task prompt")
        key = slugify(task_prompt)[:48]
        cycle = self.state.cycle_index
        steps: list[str] = []

        response = self.gateway.call(
            "design_skill",
            {
                "task_prompt": task_prompt,
                "repository_summary": self.repository_summary(),
            },
            key=key,
        )
        steps.append("design_skill")

        resources_used = response.fields["resources_used"]
        skipped_search = not resources_used
        provenance_ids: list[str] = []
        if skipped_search:
            steps.append("resource_search skipped: provider signaled no extra resources needed")
        else:
            for row in resources_used[: self.config.search_budget]:
                provenance_ids.append(self._record_resource(row, row["leaf_path"]))
            steps.append(f"resource_search recorded={len(provenance_ids)}")

        contract_doc = dict(response.fields["contract"])
        if not contract_doc.get("provenance_links"):
            contract_doc["provenance_links"] = provenance_ids
        contract = contractsmod.parse_contract(contract_doc)
        name = contract_doc.get("name") or key
        leaf = response.fields.get("target_leaf") or self._default_design_leaf()
        _package, entry = self._compile_skill(
            leaf, name, contract, contract_doc, [*contract.provenance_links, *provenance_ids]
        )
        skill_id = entry.id
        self.registry.upsert_skill(entry)
        steps.append(f"skill_build {skill_id}")

        # Unlike a cycle candidate, a design runs the execution layer only.
        validation = self._validate(skill_id, entry.package_path, layers=False)
        self._commit_validation(skill_id, validation)
        if validation.repair is not None:
            steps.append(f"skill_test repair attempts={validation.repair.attempts}")
        design = DesignReport(task_prompt, skill_id, "failed", skipped_search, steps)
        if validation.removed:
            steps.append("skill removed after budget exhaustion")
        else:
            steps.append("skill_test pass")
            with self.registry.lock:
                verdict = self.adjudicate(skill_id, self._local_index())
                tree = noveltymod.apply_verdict(self.tree, self.registry, verdict, cycle)
                self.commit_tree(tree, "design")
            steps.append(f"novelty_check verdict={verdict.decision}")
            design.verdict = verdict.decision
            if self.registry.skill(skill_id).status == "verified":
                design.status = "verified"
        payload = {"report": design.to_record(), "response": dict(response.fields)}
        atomic_write_text(
            self.root / REPORTS_DIR / "design" / f"{key}.json", dump_json_doc(payload)
        )
        return design

    def _default_design_leaf(self) -> str:
        ranked = self._priority_paths(None)
        if not ranked:
            raise PipelineError("tree has no active leaves to attach a designed skill to")
        return ranked[0]
