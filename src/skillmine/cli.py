"""Command-line entry points.

Every command is a thin adapter: parse flags, call one engine operation, and
render the result. Exit status 0 means the operation succeeded; error text
names the failing operation and case.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import contracts as contractsmod
from . import site as sitemod
from . import tree as treemod
from . import workers as workersmod
from .config import EngineConfig, load_config
from .errors import SkillmineError
from .harness import load_benchmark_cases
from .pipeline import Pipeline
from .registry import open_registry


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="skillmine", description="Skill library engine")
    parser.add_argument("--registry", type=Path, help="library root directory")
    parser.add_argument("--config", type=Path, help="configuration file")
    parser.add_argument("--provider", choices=["mock", "live"], help="provider mode")
    parser.add_argument("--script", type=Path, help="mock script directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create a fresh registry from a taxonomy file")
    p.add_argument("taxonomy", type=Path)

    p = sub.add_parser("cycle", help="run one full mining cycle")
    p.add_argument("--branch", help="focus branch path")

    p = sub.add_parser("campaign", help="run or resume a campaign")
    p.add_argument("action", choices=["run", "resume"])
    p.add_argument("campaign_id")
    p.add_argument("--branches", help="comma-separated branch schedule (run)")
    p.add_argument("--cycles-per-branch", type=int, default=1)

    p = sub.add_parser("design-skill", help="design one skill from a task prompt")
    p.add_argument("--prompt", type=Path, required=True, help="file holding the task prompt")

    p = sub.add_parser("test", help="run validation layers for one skill")
    p.add_argument("skill_id")
    p.add_argument(
        "--layer",
        choices=["execution", "synthetic", "system", "benchmark"],
        default="execution",
    )
    p.add_argument("--cases", type=Path, help="benchmark case file (default: package tests/benchmark.json)")

    p = sub.add_parser("novelty", help="adjudicate one skill against the catalogs")
    p.add_argument("skill_id")

    sub.add_parser("status", help="print library statistics and coverage")

    p = sub.add_parser("export-site", help="write the static site bundle")
    p.add_argument("dest", type=Path)

    p = sub.add_parser("timing-report", help="summarize per-stage runtimes")
    p.add_argument("--dest", type=Path, help="also write timing.json/timing.txt here")

    return parser


def _engine_config(args) -> EngineConfig:
    config = load_config(args.config) if args.config else EngineConfig()
    if args.registry:
        config = replace(config, registry_root=args.registry)
    if args.provider:
        config = replace(config, provider=args.provider)
    if args.script:
        config = replace(config, script_dir=args.script)
    return config


def _pipeline(args) -> Pipeline:
    return Pipeline(_engine_config(args))


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except SkillmineError as exc:
        print(f"{args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "init":
        config = _engine_config(args)
        Pipeline.initialize(config, args.taxonomy.read_text("utf-8"))
        print(f"initialized registry at {config.registry_root}")
        return 0

    if args.command == "cycle":
        pipeline = _pipeline(args)
        report = pipeline.run_cycle(focus_branch=args.branch)
        stages = ", ".join(s.stage for s in report.stages)
        print(f"cycle {report.cycle_index}: {stages}")
        print(
            f"created={len(report.skills_created)} verified={len(report.skills_verified)} "
            f"removed={len(report.skills_removed)}"
        )
        return 0

    if args.command == "campaign":
        if args.action == "run":
            pipeline = _pipeline(args)
            if not args.branches:
                raise SkillmineError("campaign run requires --branches")
            campaign = workersmod.CampaignConfig(
                campaign_id=args.campaign_id,
                branch_schedule=tuple(b.strip() for b in args.branches.split(",") if b.strip()),
                cycles_per_branch=args.cycles_per_branch,
            )
            report = workersmod.run_campaign(pipeline, campaign)
        else:
            # The library is opened only when the verified checkpoint has
            # phases left to run.
            config = _engine_config(args).validate()
            checkpoint, campaign = workersmod.verify_checkpoint(
                config.registry_root, args.campaign_id
            )
            report = workersmod.finished_report(checkpoint, campaign) or (
                workersmod.continue_campaign(Pipeline(config), checkpoint, campaign)
            )
        print(f"campaign {report.campaign_id}: {report.status}; phases={len(report.phases)}")
        return 0 if report.status == "completed" else 1

    if args.command == "design-skill":
        pipeline = _pipeline(args)
        report = pipeline.design_skill(args.prompt.read_text("utf-8").strip())
        print(f"design-skill: {report.skill_id}: {report.status}")
        for step in report.steps:
            print(f"  - {step}")
        return 0 if report.status == "verified" else 1

    if args.command == "test":
        pipeline = _pipeline(args)
        harness, skill_id = pipeline.harness, args.skill_id
        # The reports go under the sandbox, outside the committed library:
        # a manual run must not overwrite the reports its records point at.
        harness.reports_root = harness.sandbox_root / "reports"
        package = contractsmod.load_package(
            pipeline.root / pipeline.registry.skill(skill_id).package_path
        )
        if args.layer == "synthetic":
            report = harness.synthetic_test(package, skill_id)
            gaps = ", ".join(report.coverage_gaps) or "none"
            print(f"test {skill_id} synthetic: {report.stability}; gaps: {gaps}")
            return 0 if report.clean else 1
        if args.layer == "benchmark":
            cases = load_benchmark_cases(args.cases or package.root_path / "tests/benchmark.json")
            threshold = pipeline.config.advantage_threshold
            report = harness.benchmark_compare(package, cases, skill_id, threshold=threshold)
            advantage = "meaningful advantage" if report.verdict == "pass" else "weak"
            print(f"test {skill_id} benchmark: margin={report.margin:.4f} ({advantage})")
        elif args.layer == "execution":
            report = harness.execution_test(package, skill_id)
            print(f"test {skill_id} execution: {report.verdict}")
        else:
            report = harness.system_test(package, skill_id)
            print(f"test {skill_id} system: {report.verdict}")
        return 0 if report.verdict == "pass" else 1

    if args.command == "novelty":
        pipeline = _pipeline(args)
        verdict = pipeline.adjudicate(args.skill_id)
        print(f"novelty {args.skill_id}: {verdict.decision} ({verdict.rationale})")
        return 0

    if args.command == "status":
        config = _engine_config(args)
        registry = open_registry(config.registry_root, lock_wait=config.lock_wait)
        tree = registry.load_tree_snapshot()
        if tree is None:
            raise SkillmineError("status: registry has no tree snapshot; run init first")
        stats = registry.snapshot_stats(tree)
        summary = treemod.coverage_summary(tree)
        print(
            f"skills={stats.skill_count} verified={stats.verified_count} "
            f"domains={stats.domain_count} subdomains={stats.subdomain_count} "
            f"resources={stats.resource_count} "
            f"novel={sitemod.render_percent(stats.novel_fraction)}"
        )
        print(
            f"leaves={summary['leaves']} covered={summary['covered']} "
            f"partial={summary['partial']} uncovered={summary['uncovered']}"
        )
        return 0

    if args.command == "export-site":
        config = _engine_config(args)
        registry = open_registry(config.registry_root, lock_wait=config.lock_wait)
        tree = registry.load_tree_snapshot()
        if tree is None:
            raise SkillmineError("export-site: registry has no tree snapshot")
        bundle = sitemod.export_site(registry, tree, args.dest)
        print(f"exported {len(bundle.skills_index)} skill cards to {bundle.root}")
        return 0

    if args.command == "timing-report":
        pipeline = _pipeline(args)
        reports = pipeline.load_cycle_reports()
        summary = sitemod.stage_timing_report(reports)
        print(sitemod.render_timing_table(summary))
        if args.dest:
            sitemod.write_timing_report(summary, args.dest)
        return 0

    raise SkillmineError(f"unknown command: {args.command}")


if __name__ == "__main__":
    sys.exit(main())
