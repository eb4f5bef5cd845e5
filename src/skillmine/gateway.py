"""Provider gateway: stage-typed prompts, strict response validation, mock transport.

All model interaction lives behind this module. Nothing else reads provider
credentials or constructs transport requests, and with the scripted mock the
whole control plane is a pure function of (script, fixtures, configuration).
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from .errors import (
    GatewayError,
    MissingContextFieldError,
    MockMissError,
    NotASingleDocumentError,
    SchemaViolationError,
    TransportError,
)
from .util import canonical_json

STAGE_KINDS = (
    "tree_check",
    "resource_search",
    "skill_build",
    "design_skill",
    "layer1_fix",
    "layer2_optimize",
    "novelty_check",
    "parallel_leaf_stage",
)

EFFORT_LEVELS = ("low", "medium", "high")

PROVIDER_URL_VAR = "SF_PROVIDER_URL"
PROVIDER_KEY_VAR = "SF_PROVIDER_KEY"

RETRY_ATTEMPTS = 3
RETRY_BACKOFFS = (1.0, 2.0, 4.0)

# Required context fields per stage; rendering fails fast on a missing one.
REQUIRED_CONTEXT: dict[str, tuple[str, ...]] = {
    "tree_check": ("repository_summary",),
    "resource_search": ("repository_summary", "focus_leaves", "objective"),
    "skill_build": ("target_leaf", "objective"),
    "design_skill": ("task_prompt",),
    "layer1_fix": ("target_skill", "failure_log"),
    "layer2_optimize": ("target_skill", "benchmark_results"),
    "novelty_check": ("target_skill", "matches"),
    "parallel_leaf_stage": ("target_leaf", "artifact_directory"),
}

_CYCLE_TEMPLATE = (
    "You are the cycle controller for a skill library repository. "
    "Follow the repository workflow contract and reuse existing repository scripts "
    "instead of creating parallel registries. Work directly in the current checkout, "
    "keep verification labels honest, and return only a JSON object matching the "
    "{stage} stage schema."
)

_PARALLEL_TEMPLATE = (
    "You are operating inside an isolated workspace copy of the skill library "
    "repository, as a parallel worker for a single taxonomy leaf. Stay scoped to the "
    "assigned leaf; prefer edits under skill-local files and leaf-specific tests; do "
    "not modify shared global files such as registries, site files, README.md, or "
    "planning documents. Return only a JSON object, and record any shared-file "
    "follow-up in the structured fields repo_changes, blockers, or next_steps."
)

_DESIGN_TEMPLATE = (
    "You are designing one skill for a user-specified task: search resources first "
    "when the request needs additional materials, then implement and test the "
    "resulting skill. Search for canonical papers, repositories, notebooks, package "
    "references, or workflows when needed; build or refine one concrete skill path. "
    "Return only a JSON object matching the design-skill schema."
)

_EVALUATION_TEMPLATE = (
    "You are the hierarchical evaluation assistant ({stage}). Diagnose failures "
    "before editing; apply targeted fixes rather than broad refactors; benchmark "
    "with-skill versus no-skill baselines conservatively; optimize only when "
    "benchmark deficits are clear; assess overlap against both local skills and "
    "external ecosystems. Return only a JSON object matching the {stage} stage schema."
)

_TEMPLATES: dict[str, str] = {
    "tree_check": _CYCLE_TEMPLATE,
    "resource_search": _CYCLE_TEMPLATE,
    "skill_build": _CYCLE_TEMPLATE,
    "design_skill": _DESIGN_TEMPLATE,
    "layer1_fix": _EVALUATION_TEMPLATE,
    "layer2_optimize": _EVALUATION_TEMPLATE,
    "novelty_check": _EVALUATION_TEMPLATE,
    "parallel_leaf_stage": _PARALLEL_TEMPLATE,
}


@dataclass(frozen=True)
class PromptBundle:
    stage: str
    system_text: str
    input_fields: Mapping[str, Any]


@dataclass(frozen=True)
class StageResponse:
    stage: str
    fields: Mapping[str, Any]
    raw_text: str
    unknown_fields: tuple[str, ...] = ()

    def digest(self) -> str:
        from .util import sha256_hex

        return sha256_hex(canonical_json(dict(self.fields)).encode("utf-8"))


@dataclass(frozen=True)
class EffortProfile:
    assignments: Mapping[str, tuple[str, str]]

    def __post_init__(self):
        missing = [s for s in STAGE_KINDS if s not in self.assignments]
        if missing:
            raise GatewayError(f"effort profile missing stages: {', '.join(missing)}")
        for stage, (_model, effort) in self.assignments.items():
            if effort not in EFFORT_LEVELS:
                raise GatewayError(f"stage {stage}: unknown effort level {effort!r}")

    def entry(self, stage: str) -> tuple[str, str]:
        return self.assignments[stage]

    @classmethod
    def default(cls, model: str = "default-model", search_model: str | None = None) -> "EffortProfile":
        assignments: dict[str, tuple[str, str]] = {}
        for stage in STAGE_KINDS:
            if stage == "resource_search":
                assignments[stage] = (search_model or model, "high")
            else:
                assignments[stage] = (model, "medium")
        return cls(assignments=assignments)


def render_prompt(stage: str, context: Mapping[str, Any]) -> PromptBundle:
    """Pure, deterministic rendering of the fixed stage template."""
    if stage not in STAGE_KINDS:
        raise GatewayError(f"unknown stage kind: {stage}")
    for name in REQUIRED_CONTEXT[stage]:
        if name not in context or context[name] in (None, ""):
            raise MissingContextFieldError(stage, name)
    system_text = _TEMPLATES[stage].format(stage=stage)
    fields = {key: context[key] for key in sorted(context)}
    fields.setdefault("STAGE", stage)
    fields.setdefault("MODE", "cycle" if stage not in ("design_skill", "parallel_leaf_stage") else stage)
    return PromptBundle(stage=stage, system_text=system_text, input_fields=fields)


# -- schemas ---------------------------------------------------------------------


def _is_str_list(value: Any) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _check_resources(value: Any) -> str | None:
    if not isinstance(value, list):
        return "must be a list"
    for i, row in enumerate(value):
        if not isinstance(row, dict):
            return f"entry {i} must be an object"
        for key in ("kind", "locator", "leaf_path"):
            if not isinstance(row.get(key), str) or not row.get(key):
                return f"entry {i} missing {key}"
        if not isinstance(row.get("authority_rank", 0), int):
            return f"entry {i} authority_rank must be an integer"
    return None


def _check_candidates(value: Any) -> str | None:
    if not isinstance(value, list):
        return "must be a list"
    for i, row in enumerate(value):
        if not isinstance(row, dict):
            return f"entry {i} must be an object"
        if not isinstance(row.get("name"), str) or not row.get("name"):
            return f"entry {i} missing name"
        if not isinstance(row.get("task_scope"), str) or not row.get("task_scope"):
            return f"entry {i} missing task_scope"
        artifacts = row.get("artifacts", {})
        if not isinstance(artifacts, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in artifacts.items()
        ):
            return f"entry {i} artifacts must map paths to text"
    return None


def _check_edits(value: Any) -> str | None:
    if not isinstance(value, list):
        return "must be a list"
    for i, row in enumerate(value):
        if not isinstance(row, dict):
            return f"entry {i} must be an object"
        if not isinstance(row.get("path"), str) or not row.get("path"):
            return f"entry {i} missing path"
        if not isinstance(row.get("content"), str):
            return f"entry {i} missing content"
    return None


# field name -> checker returning an error detail or None
_SCHEMAS: dict[str, dict[str, Callable[[Any], str | None]]] = {
    "tree_check": {
        "focus_leaves": lambda v: None if _is_str_list(v) else "must be a list of paths",
        "rationale": lambda v: None if isinstance(v, str) else "must be a string",
    },
    "resource_search": {"resources": _check_resources},
    "skill_build": {"candidates": _check_candidates},
    "design_skill": {
        "contract": lambda v: None if isinstance(v, dict) else "must be an object",
        "resources_used": _check_resources,
        "test_plan": lambda v: None if isinstance(v, str) else "must be a string",
    },
    "layer1_fix": {
        "diagnosis": lambda v: None if isinstance(v, str) else "must be a string",
        "edits": _check_edits,
        "retest": lambda v: None if isinstance(v, bool) else "must be a boolean",
    },
    "layer2_optimize": {
        "actions": _check_edits,
        "rebenchmark": lambda v: None if isinstance(v, bool) else "must be a boolean",
    },
    "novelty_check": {
        "matches": lambda v: None if isinstance(v, list) else "must be a list",
        "decision": lambda v: None
        if v in ("novel", "redundant", "merge", "review", "deprioritize")
        else "must be a novelty decision",
        "rationale": lambda v: None if isinstance(v, str) else "must be a string",
    },
    "parallel_leaf_stage": {
        "repo_changes": lambda v: None if _is_str_list(v) else "must be a list of strings",
        "blockers": lambda v: None if _is_str_list(v) else "must be a list of strings",
        "next_steps": lambda v: None if _is_str_list(v) else "must be a list of strings",
    },
}

# Declared-but-optional fields that are not flagged as unknown.
_OPTIONAL_FIELDS: dict[str, tuple[str, ...]] = {
    "tree_check": ("proposed_edits",),
    "design_skill": ("needs_resources",),
    "parallel_leaf_stage": ("files", "summary"),
    "novelty_check": ("uncertain",),
}


def validate_response(stage: str, raw_text: str) -> StageResponse:
    """Parse exactly one JSON object and check it against the stage schema."""
    if stage not in STAGE_KINDS:
        raise GatewayError(f"unknown stage kind: {stage}")
    decoder = json.JSONDecoder()
    stripped = raw_text.strip()
    if not stripped.startswith("{"):
        raise NotASingleDocumentError(
            f"stage {stage}: response must be a single JSON object"
        )
    try:
        document, end = decoder.raw_decode(stripped)
    except json.JSONDecodeError as exc:
        raise NotASingleDocumentError(f"stage {stage}: {exc}") from None
    if stripped[end:].strip():
        raise NotASingleDocumentError(f"stage {stage}: trailing content after the JSON object")
    if not isinstance(document, dict):
        raise NotASingleDocumentError(f"stage {stage}: response must be a JSON object")

    schema = _SCHEMAS[stage]
    for name, check in schema.items():
        if name not in document:
            raise SchemaViolationError(stage, name, "missing required field")
        detail = check(document[name])
        if detail is not None:
            raise SchemaViolationError(stage, name, detail)

    declared = set(schema) | set(_OPTIONAL_FIELDS.get(stage, ()))
    unknown = tuple(sorted(k for k in document if k not in declared))
    return StageResponse(stage=stage, fields=document, raw_text=raw_text, unknown_fields=unknown)


# -- providers ---------------------------------------------------------------------


class MockProvider:
    """Deterministic scripted provider.

    Responses live in a directory of files named ``<stage>__<key>__<n>.json``.
    Calls consume occurrences in order; when a key's occurrences are exhausted
    the highest-numbered response repeats. A key with no files at all is a
    test-configuration error, never silently defaulted.
    """

    name = "mock"

    def __init__(self, script_dir: str | Path):
        self.script_dir = Path(script_dir)
        if not self.script_dir.is_dir():
            raise MockMissError(f"mock script directory does not exist: {self.script_dir}")
        self._counters: dict[str, int] = {}
        self._lock = threading.Lock()
        self._index: dict[tuple[str, str], list[Path]] = {}
        for path in sorted(self.script_dir.glob("*.json")):
            parts = path.stem.split("__")
            if len(parts) != 3:
                continue
            stage, key, n = parts
            try:
                order = int(n)
            except ValueError:
                continue
            self._index.setdefault((stage, key), []).append(path)
        for paths in self._index.values():
            paths.sort(key=lambda p: int(p.stem.split("__")[2]))

    def complete(self, bundle: PromptBundle, model: str, effort: str, response_key: str) -> str:
        del model, effort
        with self._lock:
            counter_key = f"{bundle.stage}__{response_key}"
            occurrence = self._counters.get(counter_key, 0) + 1
            self._counters[counter_key] = occurrence
        scripted = self._index.get((bundle.stage, response_key))
        if not scripted:
            raise MockMissError(
                f"no scripted response for stage={bundle.stage} key={response_key} "
                f"under {self.script_dir}"
            )
        chosen = scripted[min(occurrence, len(scripted)) - 1]
        return chosen.read_text("utf-8")

    def export_counters(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counters)

    def import_counters(self, counters: Mapping[str, int]) -> None:
        with self._lock:
            self._counters = dict(counters)


def _default_transport(url: str, payload: bytes, headers: Mapping[str, str], timeout: float) -> str:
    request = urllib.request.Request(url, data=payload, headers=dict(headers), method="POST")
    with urllib.request.urlopen(request, timeout=timeout) as response:  # noqa: S310
        if response.status >= 300:
            raise urllib.error.HTTPError(url, response.status, "non-success status", response.headers, None)
        return response.read().decode("utf-8")


class LiveProvider:
    """HTTPS chat-completion transport configured from the environment.

    ``max_in_flight`` is the per-provider budget honored across concurrent
    callers: requests beyond it queue on a semaphore.
    """

    name = "live"

    def __init__(
        self,
        url: str | None = None,
        key: str | None = None,
        transport: Callable[[str, bytes, Mapping[str, str], float], str] | None = None,
        timeout: float = 60.0,
        sleep: Callable[[float], None] = time.sleep,
        max_in_flight: int = 4,
    ):
        self.url = url or os.environ.get(PROVIDER_URL_VAR, "")
        self.key = key or os.environ.get(PROVIDER_KEY_VAR, "")
        if not self.url:
            raise GatewayError(f"live provider requires {PROVIDER_URL_VAR}")
        if max_in_flight < 1:
            raise GatewayError("max_in_flight must be >= 1")
        self._transport = transport or _default_transport
        self.timeout = timeout
        self._sleep = sleep
        self._budget = threading.BoundedSemaphore(max_in_flight)

    def complete(self, bundle: PromptBundle, model: str, effort: str, response_key: str) -> str:
        del response_key
        body = {
            "model": model,
            "effort": effort,
            "messages": [
                {"role": "system", "content": bundle.system_text},
                {"role": "user", "content": canonical_json(dict(bundle.input_fields))},
            ],
        }
        payload = canonical_json(body).encode("utf-8")
        headers = {
            "Content-Type": "application/json",
            "Authorization": f"Bearer {self.key}",
        }
        last_error: Exception | None = None
        for attempt in range(1, RETRY_ATTEMPTS + 1):
            try:
                with self._budget:
                    raw = self._transport(self.url, payload, headers, self.timeout)
            except Exception as exc:  # transport-level failures only
                if not _is_transient(exc):
                    raise TransportError(f"provider transport failed: {exc}", attempt) from exc
                last_error = exc
                if attempt < RETRY_ATTEMPTS:
                    self._sleep(RETRY_BACKOFFS[attempt - 1])
                continue
            return _extract_text(raw)
        raise TransportError(f"provider transport failed: {last_error}", RETRY_ATTEMPTS)


def _is_transient(exc: Exception) -> bool:
    """Timeouts, connection failures, 5xx and 429 may pass on a retry; a
    4xx such as a bad key or a bad request will not."""
    if isinstance(exc, urllib.error.HTTPError):
        return exc.code == 429 or exc.code >= 500
    return isinstance(exc, (TimeoutError, ConnectionError, urllib.error.URLError))


def _extract_text(raw: str) -> str:
    """Pull the completion text out of a chat-format body; fall back to raw."""
    try:
        document = json.loads(raw)
    except json.JSONDecodeError:
        return raw
    if isinstance(document, dict):
        choices = document.get("choices")
        if isinstance(choices, list) and choices:
            message = choices[0].get("message", {})
            content = message.get("content")
            if isinstance(content, str):
                return content
    return raw


def invoke(provider, bundle: PromptBundle, profile_entry: tuple[str, str], response_key: str = "default") -> str:
    """Transport one request. Mock returns the scripted response verbatim."""
    model, effort = profile_entry
    return provider.complete(bundle, model, effort, response_key)


@dataclass
class Gateway:
    """Render, transport, and validate in one call."""

    provider: Any
    profile: EffortProfile = field(default_factory=EffortProfile.default)

    def call(self, stage: str, context: Mapping[str, Any], key: str = "default") -> StageResponse:
        bundle = render_prompt(stage, context)
        raw = invoke(self.provider, bundle, self.profile.entry(stage), response_key=key)
        return validate_response(stage, raw)

    def export_counters(self) -> dict[str, int]:
        exporter = getattr(self.provider, "export_counters", None)
        return exporter() if exporter else {}

    def import_counters(self, counters: Mapping[str, int]) -> None:
        importer = getattr(self.provider, "import_counters", None)
        if importer:
            importer(counters)
