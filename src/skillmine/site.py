"""Static site-data export and stage timing summaries.

The bundle is data-only: JSON documents plus a small pre-rendered index page.
Exports are byte-deterministic for identical inputs and abort when the
registry fails its integrity check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from . import tree as treemod
from .contracts import load_contract
from .errors import ExportError
from .pipeline import CycleReport, STAGE_ORDER
from .registry import LibraryStats, Registry
from .util import Record, atomic_write_text, dump_json_doc


@dataclass
class SiteBundle:
    root: Path
    stats: LibraryStats
    skills_index: list[dict]


def render_percent(fraction: float) -> str:
    return f"{fraction * 100:.1f}%"


_INDEX_TEMPLATE = """<!doctype html>
<html>
<head><meta charset="utf-8"><title>Skill Library</title></head>
<body>
<h1>Skill Library</h1>
<ul>
<li>Skills: {skill_count} ({verified_count} verified)</li>
<li>Domains: {domain_count}</li>
<li>Subdomains: {subdomain_count}</li>
<li>Resources: {resource_count}</li>
<li>Novel fraction: {novel_percent}</li>
</ul>
<p>Data files: <a href="stats.json">stats</a>, <a href="taxonomy.json">taxonomy</a>,
<a href="skills.json">skills</a>, <a href="resources.json">resources</a>.</p>
</body>
</html>
"""


def export_site(registry: Registry, tree: treemod.DomainTree, dest: str | Path) -> SiteBundle:
    """Write the self-contained dashboard data bundle."""
    violations = registry.integrity_check(tree)
    if violations:
        raise ExportError("export aborted by integrity violations: " + "; ".join(violations))

    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    stats = registry.snapshot_stats(tree)

    taxonomy = {
        "nodes": [
            {
                "path": treemod.format_path(node.path),
                "kind": node.kind,
                "status": node.status,
                "coverage": node.coverage_flag,
                "skills": sorted(node.linked_skills),
                "resources": sorted(node.linked_resources),
            }
            for node in tree.nodes.values()
        ]
    }

    resources_by_id = {r.id: r for r in registry.resources()}
    skills_index: list[dict] = []
    for entry in registry.skills():
        compute_profile = ""
        metadata = registry.root / entry.package_path / "skill.json"
        if entry.package_path and metadata.is_file():
            try:
                contract = load_contract(metadata)
                compute_profile = "; ".join(contract.environment_assumptions)
            except Exception:
                compute_profile = ""
        provenance_locators = [
            resources_by_id[rid].locator if rid in resources_by_id else rid
            for rid in entry.provenance
        ]
        skills_index.append(
            {
                "id": entry.id,
                "name": entry.name,
                "leaf": entry.leaf_path,
                "status": entry.status,
                "confidence": entry.confidence,
                "provenance": provenance_locators,
                "compute_profile": compute_profile,
                "novelty_decision": entry.novelty_decision,
            }
        )

    resources_index = [
        {
            "id": r.id,
            "kind": r.kind,
            "locator": r.locator,
            "leaf_paths": sorted(r.leaf_paths),
            "authority_rank": r.authority_rank,
        }
        for r in registry.resources()
    ]

    stats_record = stats.to_record()
    stats_record["novel_percent"] = render_percent(stats.novel_fraction)
    atomic_write_text(dest / "stats.json", dump_json_doc(stats_record))
    atomic_write_text(dest / "taxonomy.json", dump_json_doc(taxonomy))
    atomic_write_text(dest / "skills.json", dump_json_doc(skills_index))
    atomic_write_text(dest / "resources.json", dump_json_doc(resources_index))
    atomic_write_text(
        dest / "index.html",
        _INDEX_TEMPLATE.format(novel_percent=render_percent(stats.novel_fraction), **stats.to_record()),
    )

    stale_marker = registry.root / "site" / ".stale"
    if dest == registry.root / "site" and stale_marker.exists():
        stale_marker.unlink()

    return SiteBundle(
        root=dest,
        stats=stats,
        skills_index=skills_index,
    )


@dataclass
class TimingSummary(Record):
    per_stage: dict[str, dict] = field(default_factory=dict)  # stage -> {count, mean}


def stage_timing_report(cycle_reports: list[CycleReport]) -> TimingSummary:
    """Mean duration per stage across cycles; stages with no samples get none."""
    if not cycle_reports:
        raise ExportError("stage_timing_report requires at least one cycle report")
    samples: dict[str, list[float]] = {stage: [] for stage in STAGE_ORDER}
    for report in cycle_reports:
        for outcome in report.stages:
            samples.setdefault(outcome.stage, []).append(outcome.duration_seconds)
    summary = TimingSummary()
    for stage in STAGE_ORDER:
        values = samples[stage]
        summary.per_stage[stage] = {
            "count": len(values),
            "mean_seconds": (sum(values) / len(values)) if values else None,
        }
    return summary


def render_timing_table(summary: TimingSummary) -> str:
    lines = [f"{'stage':<16} {'samples':>8} {'mean (s)':>10}"]
    for stage, row in summary.per_stage.items():
        mean = f"{row['mean_seconds']:.3f}" if row["mean_seconds"] is not None else "-"
        lines.append(f"{stage:<16} {row['count']:>8} {mean:>10}")
    return "\n".join(lines)


def write_timing_report(summary: TimingSummary, dest: str | Path) -> None:
    dest = Path(dest)
    atomic_write_text(dest / "timing.json", dump_json_doc(summary.to_record()))
    atomic_write_text(dest / "timing.txt", render_timing_table(summary) + "\n")
