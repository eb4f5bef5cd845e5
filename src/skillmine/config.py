"""Engine configuration: budgets, provider mode, paths.

Config files are UTF-8 and either ``key = value`` lines (``#`` comments) or a
single JSON object; the JSON form is detected by a leading ``{``.
"""

from __future__ import annotations

import json
import typing
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import SkillmineError


@dataclass
class EngineConfig:
    registry_root: Path = Path("library")
    provider: str = "mock"  # mock | live
    script_dir: Path | None = None
    model: str = "default-model"
    search_budget: int = 8
    candidate_cap: int = 3
    repair_attempts: int = 3
    optimize_attempts: int = 2
    smoke_timeout: float = 5.0
    focus_k: int = 3
    advantage_threshold: float = 0.05
    failure_halt_limit: int = 3
    eval_batch_size: int = 4
    lock_wait: str = "block"  # block | fail
    catalogs: tuple[Path, ...] = ()
    novelty_provider: bool = False
    novelty_match_limit: int = 5
    deterministic_clock: bool = True
    keep_sandboxes: bool = False
    # Per-stage effort overrides as "stage:model:level" entries.
    efforts: tuple[str, ...] = ()

    def validate(self) -> "EngineConfig":
        if self.provider not in ("mock", "live"):
            raise SkillmineError(f"unknown provider mode: {self.provider}")
        if self.provider == "mock" and self.script_dir is None:
            raise SkillmineError("mock provider requires a script directory")
        if self.lock_wait not in ("block", "fail"):
            raise SkillmineError(f"unknown lock_wait mode: {self.lock_wait}")
        for name in ("search_budget", "candidate_cap", "repair_attempts",
                     "optimize_attempts", "focus_k", "failure_halt_limit", "eval_batch_size"):
            if getattr(self, name) < 1:
                raise SkillmineError(f"{name} must be >= 1")
        return self


def _coerce(key: str, value):
    """``value`` as the type that ``EngineConfig`` declares for ``key``."""
    kind = typing.get_type_hints(EngineConfig)[key]
    if kind is bool:
        if isinstance(value, bool):
            return value
        return str(value).strip().lower() in ("1", "true", "yes", "on")
    if kind in (int, float):
        return kind(value)
    if kind in (Path, Path | None):
        return Path(value) if value not in (None, "") else None
    if typing.get_origin(kind) is tuple:
        if isinstance(value, str):
            value = [v.strip() for v in value.split(",") if v.strip()]
        item = typing.get_args(kind)[0]
        return tuple(item(v) for v in value)
    return value


def load_config(path: str | Path) -> EngineConfig:
    text = Path(path).read_text("utf-8")
    values: dict = {}
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            values = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SkillmineError(f"invalid JSON config {path}: {exc}") from None
    else:
        for line_no, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise SkillmineError(f"{path}:{line_no}: expected key = value")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()

    config = EngineConfig()
    known = set(config.__dataclass_fields__)
    unknown = set(values) - known
    if unknown:
        raise SkillmineError(f"unknown config keys: {', '.join(sorted(unknown))}")
    config = replace(config, **{k: _coerce(k, v) for k, v in values.items()})
    if config.registry_root is None:
        raise SkillmineError(f"{path}: registry_root must name a directory")
    return config
