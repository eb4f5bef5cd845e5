"""Domain knowledge tree: per-node acquisition state and structural operations.

The tree is the control structure for mining. Values are immutable snapshots;
every operation returns a new tree, so concurrent readers are always safe and
all mutation is serialized by the pipeline's refresh stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Protocol, Sequence

from .errors import (
    DuplicatePathError,
    InvalidOperandError,
    MissingNodeError,
    OrphanParentError,
    PartitionError,
    TaxonomyParseError,
    TreeOperationError,
)

NodePath = tuple[str, ...]

KINDS = ("root", "domain", "subdomain", "leaf")
COVERAGE_FLAGS = ("uncovered", "partial", "covered")
NODE_STATUSES = ("active", "merged", "pruned", "review")

# Bounded verification history per node.
VERIFICATION_HISTORY_LIMIT = 10

# Priority formula constants: failure window and staleness horizon, in cycles.
FAILURE_WINDOW = 3
STALE_AFTER = 5

REASON_CODES = ("resources_no_skills", "starter_only", "repeated_failures", "stale")

INDENT = "  "
LEAF_MARKER = " *"


def format_path(path: NodePath) -> str:
    return "/".join(path)


def parse_path(text: str) -> NodePath:
    return tuple(part for part in text.split("/") if part)


@dataclass(frozen=True)
class TreeNode:
    path: NodePath
    kind: str
    children: tuple[NodePath, ...] = ()
    linked_resources: frozenset[str] = frozenset()
    linked_skills: frozenset[str] = frozenset()
    recent_verifications: tuple[tuple[str, str, int], ...] = ()
    coverage_flag: str = "uncovered"
    status: str = "active"
    merged_into: NodePath | None = None

    @property
    def label(self) -> str:
        return self.path[-1] if self.path else ""


@dataclass(frozen=True)
class BranchPriority:
    path: NodePath
    score: float
    reasons: tuple[str, ...] = ()


@dataclass(frozen=True)
class DomainTree:
    nodes: Mapping[NodePath, TreeNode] = field(default_factory=dict)

    @property
    def root(self) -> NodePath:
        for path in self.nodes:
            if len(path) == 1:
                return path
        raise MissingNodeError("tree has no root node")

    def node(self, path: NodePath) -> TreeNode:
        try:
            return self.nodes[path]
        except KeyError:
            raise MissingNodeError(f"no node at {format_path(path)}") from None

    def leaves(self) -> list[TreeNode]:
        return [n for n in self.nodes.values() if n.kind == "leaf"]

    def active_leaves(self) -> list[TreeNode]:
        return [n for n in self.leaves() if n.status in ("active", "review")]


class RegistryView(Protocol):
    """What prioritization needs to know about the registry, nothing more."""

    current_cycle: int

    def skill_status(self, skill_id: str) -> str | None: ...

    def skill_confidence(self, skill_id: str) -> str | None: ...

    def skill_activity_cycle(self, skill_id: str) -> int: ...

    def resource_activity_cycle(self, resource_id: str) -> int: ...


def latest_outcomes(node: TreeNode) -> dict[str, str]:
    """Most recent recorded outcome per skill (history is oldest-first)."""
    latest: dict[str, str] = {}
    for skill_id, outcome, _cycle in node.recent_verifications:
        latest[skill_id] = outcome
    return latest


def compute_coverage(node: TreeNode) -> str:
    """Coverage is a pure function of node state.

    uncovered: no linked skill whose latest outcome is a pass.
    covered:   at least one passing skill and no linked skill currently failing.
    partial:   passing skills exist alongside an open failure.
    """
    if node.kind != "leaf":
        return "uncovered"
    latest = latest_outcomes(node)
    verified = [s for s in node.linked_skills if latest.get(s) == "pass"]
    failing = [s for s in node.linked_skills if latest.get(s) in ("fail", "error")]
    if not verified:
        return "uncovered"
    if not failing:
        return "covered"
    return "partial"


def _with_coverage(node: TreeNode) -> TreeNode:
    return replace(node, coverage_flag=compute_coverage(node))


def _kind_for_depth(depth: int, is_leaf: bool) -> str:
    if depth == 0:
        return "root"
    if is_leaf:
        return "leaf"
    return "domain" if depth == 1 else "subdomain"


def load_tree(document: str) -> DomainTree:
    """Parse the indentation-structured taxonomy format.

    One entry per line; two spaces of indentation per level; a ``*`` suffix
    marks a leaf; ``#`` comments and blank lines are ignored; exactly one
    depth-0 root.
    """
    nodes: dict[NodePath, TreeNode] = {}
    children: dict[NodePath, list[NodePath]] = {}
    stack: list[NodePath] = []

    for line_no, raw in enumerate(document.splitlines(), start=1):
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        if "\t" in raw:
            raise TaxonomyParseError("tabs are not allowed; indent with spaces", line_no)
        stripped = raw.lstrip(" ")
        indent = len(raw) - len(stripped)
        if indent % len(INDENT) != 0:
            raise TaxonomyParseError(f"indentation must be a multiple of {len(INDENT)} spaces", line_no)
        depth = indent // len(INDENT)
        text = stripped.rstrip()
        is_leaf = text.endswith(LEAF_MARKER)
        label = text[: -len(LEAF_MARKER)].rstrip() if is_leaf else text
        if not label:
            raise TaxonomyParseError("empty node label", line_no)
        if "/" in label:
            raise TaxonomyParseError("labels may not contain '/'", line_no)

        if depth == 0:
            if stack:
                raise TaxonomyParseError("multiple root entries; exactly one root is allowed", line_no)
            if is_leaf:
                raise TaxonomyParseError("the root cannot be a leaf", line_no)
            path: NodePath = (label,)
        else:
            if depth > len(stack):
                raise OrphanParentError(f"entry at depth {depth} has no parent", line_no)
            parent = stack[depth - 1]
            if nodes[parent].kind == "leaf":
                raise TaxonomyParseError(
                    f"leaf {format_path(parent)} cannot have children", line_no
                )
            path = parent + (label,)
        if path in nodes:
            raise DuplicatePathError(f"duplicate path {format_path(path)}", line_no)

        nodes[path] = TreeNode(path=path, kind=_kind_for_depth(depth, is_leaf))
        children[path] = []
        if depth > 0:
            children[stack[depth - 1]].append(path)
        del stack[depth:]
        stack.append(path)

    if not nodes:
        raise TaxonomyParseError("document contains no entries")

    finished = {
        path: _with_coverage(replace(node, children=tuple(children[path])))
        for path, node in nodes.items()
    }
    return DomainTree(nodes=finished)


def _updated(tree: DomainTree, changes: Mapping[NodePath, TreeNode]) -> DomainTree:
    nodes = dict(tree.nodes)
    for path, node in changes.items():
        nodes[path] = _with_coverage(node)
    return DomainTree(nodes=nodes)


def insert_leaf(tree: DomainTree, parent_path: NodePath, leaf_label: str) -> DomainTree:
    """Append a new uncovered leaf as the parent's last child."""
    parent = tree.node(parent_path)
    if parent.status == "pruned":
        raise InvalidOperandError(f"parent {format_path(parent_path)} is pruned")
    if parent.kind == "leaf":
        raise InvalidOperandError(
            f"parent {format_path(parent_path)} is a leaf; split it before nesting"
        )
    if "/" in leaf_label or not leaf_label.strip():
        raise InvalidOperandError(f"invalid leaf label: {leaf_label!r}")
    path = parent_path + (leaf_label,)
    existing = tree.nodes.get(path)
    if existing is not None and existing.status != "pruned":
        raise InvalidOperandError(f"duplicate leaf {format_path(path)}")
    # Re-inserting a pruned path starts from a fresh node; history lives in
    # the registry only.
    leaf = TreeNode(path=path, kind="leaf")
    children = parent.children if path in parent.children else parent.children + (path,)
    return _updated(tree, {parent_path: replace(parent, children=children), path: leaf})


def merge_leaves(
    tree: DomainTree, path_a: NodePath, path_b: NodePath, surviving_path: NodePath
) -> DomainTree:
    """Union the absorbed leaf's links into the survivor; no skill id is lost."""
    if path_a == path_b:
        raise InvalidOperandError("cannot merge a leaf into itself")
    if surviving_path not in (path_a, path_b):
        raise InvalidOperandError("surviving path must be one of the operands")
    absorbed_path = path_b if surviving_path == path_a else path_a
    survivor = tree.node(surviving_path)
    absorbed = tree.node(absorbed_path)
    for node in (survivor, absorbed):
        if node.kind != "leaf":
            raise InvalidOperandError(f"{format_path(node.path)} is not a leaf")
        if node.status != "active":
            raise InvalidOperandError(
                f"{format_path(node.path)} is {node.status}, expected active"
            )
    merged_history = survivor.recent_verifications + absorbed.recent_verifications
    new_survivor = replace(
        survivor,
        linked_resources=survivor.linked_resources | absorbed.linked_resources,
        linked_skills=survivor.linked_skills | absorbed.linked_skills,
        recent_verifications=merged_history[-VERIFICATION_HISTORY_LIMIT:],
    )
    new_absorbed = replace(
        absorbed,
        status="merged",
        merged_into=surviving_path,
        linked_resources=frozenset(),
        linked_skills=frozenset(),
        recent_verifications=(),
    )
    return _updated(tree, {surviving_path: new_survivor, absorbed_path: new_absorbed})


def prune_leaf(tree: DomainTree, path: NodePath, reason: str) -> DomainTree:
    """Mark a leaf pruned. Deprecating its verified skills is the caller's job."""
    node = tree.node(path)
    if node.kind != "leaf":
        raise InvalidOperandError(f"{format_path(path)} is not a leaf")
    if node.status == "pruned":
        raise InvalidOperandError(f"{format_path(path)} is already pruned")
    del reason  # recorded by the caller in the registry, not in tree state
    return _updated(tree, {path: replace(node, status="pruned")})


def split_branch(
    tree: DomainTree,
    path: NodePath,
    partitions: Sequence[tuple[str, Iterable[str]]],
) -> DomainTree:
    """Turn a node into an internal node whose new leaves partition its skills."""
    node = tree.node(path)
    if node.status != "active":
        raise InvalidOperandError(f"{format_path(path)} is {node.status}, expected active")
    if not partitions:
        raise PartitionError("split requires at least one partition")

    assigned: dict[str, str] = {}
    for label, skill_ids in partitions:
        for skill_id in skill_ids:
            if skill_id in assigned:
                raise PartitionError(f"skill {skill_id} assigned to multiple partitions")
            assigned[skill_id] = label
    missing = set(node.linked_skills) - set(assigned)
    if missing:
        raise PartitionError(f"unassigned skills: {', '.join(sorted(missing))}")
    extra = set(assigned) - set(node.linked_skills)
    if extra:
        raise PartitionError(f"skills not linked to {format_path(path)}: {', '.join(sorted(extra))}")

    changes: dict[NodePath, TreeNode] = {}
    child_paths: list[NodePath] = list(node.children)
    history_by_skill: dict[str, list[tuple[str, str, int]]] = {}
    for entry in node.recent_verifications:
        history_by_skill.setdefault(entry[0], []).append(entry)

    for label, skill_ids in partitions:
        if "/" in label or not label.strip():
            raise PartitionError(f"invalid partition label: {label!r}")
        leaf_path = path + (label,)
        if leaf_path in tree.nodes or leaf_path in changes:
            raise PartitionError(f"partition path {format_path(leaf_path)} already exists")
        ids = frozenset(skill_ids)
        history: list[tuple[str, str, int]] = []
        for skill_id in sorted(ids):
            history.extend(history_by_skill.get(skill_id, []))
        changes[leaf_path] = TreeNode(
            path=leaf_path,
            kind="leaf",
            linked_skills=ids,
            recent_verifications=tuple(history[-VERIFICATION_HISTORY_LIMIT:]),
        )
        child_paths.append(leaf_path)

    new_kind = _kind_for_depth(len(path) - 1, is_leaf=False)
    changes[path] = replace(
        node,
        kind=new_kind,
        children=tuple(child_paths),
        linked_skills=frozenset(),
        recent_verifications=(),
    )
    return _updated(tree, changes)


def link_resource(tree: DomainTree, path: NodePath, resource_id: str) -> DomainTree:
    node = tree.node(path)
    return _updated(tree, {path: replace(node, linked_resources=node.linked_resources | {resource_id})})


def link_skill(tree: DomainTree, path: NodePath, skill_id: str) -> DomainTree:
    node = tree.node(path)
    if node.kind != "leaf":
        raise InvalidOperandError(f"only leaves hold skills; {format_path(path)} is {node.kind}")
    return _updated(tree, {path: replace(node, linked_skills=node.linked_skills | {skill_id})})


def record_verification(
    tree: DomainTree, path: NodePath, skill_id: str, outcome: str, cycle: int
) -> DomainTree:
    if outcome not in ("pass", "fail", "error"):
        raise TreeOperationError(f"unknown verification outcome: {outcome}")
    node = tree.node(path)
    history = node.recent_verifications + ((skill_id, outcome, cycle),)
    return _updated(
        tree, {path: replace(node, recent_verifications=history[-VERIFICATION_HISTORY_LIMIT:])}
    )


def set_node_status(tree: DomainTree, path: NodePath, status: str) -> DomainTree:
    if status not in NODE_STATUSES:
        raise TreeOperationError(f"unknown node status: {status}")
    node = tree.node(path)
    return _updated(tree, {path: replace(node, status=status)})


def _leaf_activity(node: TreeNode, view: RegistryView) -> int:
    cycles = [cycle for _sid, _outcome, cycle in node.recent_verifications]
    cycles.extend(view.skill_activity_cycle(s) for s in node.linked_skills)
    cycles.extend(view.resource_activity_cycle(r) for r in node.linked_resources)
    return max(cycles, default=0)


def score_leaf(node: TreeNode, view: RegistryView) -> BranchPriority:
    """Apply the documented priority formula to one leaf."""
    if node.status == "review":
        return BranchPriority(path=node.path, score=0.0, reasons=())

    reasons: list[str] = []
    score = 0.0

    verified = [s for s in node.linked_skills if view.skill_status(s) == "verified"]
    if node.linked_resources and not verified:
        score += 3.0
        reasons.append("resources_no_skills")

    window_start = view.current_cycle - FAILURE_WINDOW + 1
    failures = sum(
        1
        for _sid, outcome, cycle in node.recent_verifications
        if outcome in ("fail", "error") and cycle >= window_start
    )
    if failures:
        score += 2.0 * min(failures, 3)
        reasons.append("repeated_failures")

    if node.linked_skills and all(
        view.skill_confidence(s) == "starter" for s in node.linked_skills
    ):
        score += 1.0
        reasons.append("starter_only")

    if view.current_cycle - _leaf_activity(node, view) >= STALE_AFTER:
        score += 1.0
        reasons.append("stale")

    return BranchPriority(path=node.path, score=score, reasons=tuple(reasons))


def prioritize_branches(tree: DomainTree, registry_view: RegistryView, k: int) -> list[BranchPriority]:
    """Top-k active leaves by descending score, ties broken by path."""
    if k < 1:
        raise TreeOperationError("k must be >= 1")
    scored = [score_leaf(node, registry_view) for node in tree.active_leaves()]
    scored.sort(key=lambda p: (-p.score, format_path(p.path)))
    return scored[:k]


def coverage_summary(tree: DomainTree) -> dict[str, int]:
    summary = {
        "domains": 0,
        "subdomains": 0,
        "leaves": 0,
        "covered": 0,
        "partial": 0,
        "uncovered": 0,
    }
    for node in tree.nodes.values():
        if node.kind == "domain":
            summary["domains"] += 1
        elif node.kind == "subdomain":
            summary["subdomains"] += 1
        elif node.kind == "leaf":
            summary["leaves"] += 1
            summary[node.coverage_flag] += 1
    return summary


def check_invariants(tree: DomainTree) -> list[str]:
    """Structural invariant scan; empty list means healthy."""
    problems: list[str] = []
    roots = [p for p in tree.nodes if len(p) == 1]
    if len(roots) != 1:
        problems.append(f"expected exactly one root, found {len(roots)}")
    for path, node in tree.nodes.items():
        if node.path != path:
            problems.append(f"node keyed {format_path(path)} claims {format_path(node.path)}")
        if len(path) > 1:
            parent = path[:-1]
            if parent not in tree.nodes:
                problems.append(f"{format_path(path)} has no parent node")
            elif path not in tree.nodes[parent].children:
                problems.append(f"{format_path(path)} missing from parent's children")
        for child in node.children:
            if child[:-1] != path:
                problems.append(f"child {format_path(child)} not one level below {format_path(path)}")
            if child not in tree.nodes:
                problems.append(f"missing child node {format_path(child)}")
        if node.kind != "leaf" and node.linked_skills:
            problems.append(f"non-leaf {format_path(path)} has linked skills")
        if node.coverage_flag != compute_coverage(node):
            problems.append(f"stale coverage flag on {format_path(path)}")
        if node.status in ("merged", "pruned"):
            active_children = [
                c for c in node.children if tree.nodes.get(c) and tree.nodes[c].status == "active"
            ]
            if active_children:
                problems.append(f"{node.status} node {format_path(path)} has active children")
        if node.status == "merged" and node.merged_into is None:
            problems.append(f"merged node {format_path(path)} lacks a forward reference")
    return problems


# -- serialization -----------------------------------------------------------


def node_to_document(node: TreeNode) -> dict:
    entry = {
        "path": format_path(node.path),
        "kind": node.kind,
        "children": [format_path(c) for c in node.children],
        "linked_resources": sorted(node.linked_resources),
        "linked_skills": sorted(node.linked_skills),
        "recent_verifications": [list(e) for e in node.recent_verifications],
        "coverage_flag": node.coverage_flag,
        "status": node.status,
    }
    if node.merged_into is not None:
        entry["merged_into"] = format_path(node.merged_into)
    return entry


def tree_to_document(tree: DomainTree) -> dict:
    return {"nodes": [node_to_document(node) for node in tree.nodes.values()]}


def tree_from_document(document: dict) -> DomainTree:
    nodes: dict[NodePath, TreeNode] = {}
    for entry in document.get("nodes", []):
        path = parse_path(entry["path"])
        merged_into = entry.get("merged_into")
        nodes[path] = TreeNode(
            path=path,
            kind=entry["kind"],
            children=tuple(parse_path(c) for c in entry["children"]),
            linked_resources=frozenset(entry["linked_resources"]),
            linked_skills=frozenset(entry["linked_skills"]),
            recent_verifications=tuple(
                (str(s), str(o), int(c)) for s, o, c in entry["recent_verifications"]
            ),
            coverage_flag=entry["coverage_flag"],
            status=entry["status"],
            merged_into=parse_path(merged_into) if merged_into else None,
        )
    return DomainTree(nodes=nodes)
