"""Config files: every ``EngineConfig`` field parses in both file forms."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from skillmine.config import EngineConfig, load_config
from skillmine.errors import SkillmineError

EFFORTS = ("skill_build:big-model:high", "refresh:small-model:low")

# Per field: its text in a ``key = value`` line, its JSON value, and the
# value it parses to. None of them is the field's default.
FIELDS = {
    "registry_root": ("lib/root", "lib/root", Path("lib/root")),
    "provider": ("live", "live", "live"),
    "script_dir": ("scripts/mock", "scripts/mock", Path("scripts/mock")),
    "model": ("big-model", "big-model", "big-model"),
    "search_budget": ("4", 4, 4),
    "candidate_cap": ("2", 2, 2),
    "repair_attempts": ("5", 5, 5),
    "optimize_attempts": ("1", 1, 1),
    "smoke_timeout": ("2.5", 2.5, 2.5),
    "focus_k": ("7", 7, 7),
    "advantage_threshold": ("0.2", 0.2, 0.2),
    "failure_halt_limit": ("6", 6, 6),
    "eval_batch_size": ("8", 8, 8),
    "lock_wait": ("fail", "fail", "fail"),
    "catalogs": ("a.ndjson, b.ndjson", ["a.ndjson", "b.ndjson"], (Path("a.ndjson"), Path("b.ndjson"))),
    "novelty_provider": ("yes", True, True),
    "novelty_match_limit": ("9", 9, 9),
    "deterministic_clock": ("0", False, False),
    "keep_sandboxes": ("on", True, True),
    "efforts": (", ".join(EFFORTS), list(EFFORTS), EFFORTS),
}


def parsed(config: EngineConfig) -> dict:
    return {name: getattr(config, name) for name in FIELDS}


def test_the_table_covers_every_field_with_a_value_other_than_its_default():
    assert list(FIELDS) == [f.name for f in dataclasses.fields(EngineConfig)]
    default = EngineConfig()
    assert all(getattr(default, name) != value for name, (_, _, value) in FIELDS.items())


def test_key_value_lines_parse_every_field(tmp_path):
    path = tmp_path / "engine.conf"
    lines = ["# every field", ""] + [f"{name} = {text}" for name, (text, _, _) in FIELDS.items()]
    path.write_text("\n".join(lines) + "\n", "utf-8")
    assert parsed(load_config(path)) == {name: value for name, (_, _, value) in FIELDS.items()}


def test_a_json_object_parses_every_field(tmp_path):
    path = tmp_path / "engine.json"
    path.write_text(json.dumps({name: doc for name, (_, doc, _) in FIELDS.items()}), "utf-8")
    assert parsed(load_config(path)) == {name: value for name, (_, _, value) in FIELDS.items()}


@pytest.mark.parametrize(
    "text, value",
    [("yes", True), ("1", True), ("True", True), (" on ", True), ("0", False), ("no", False), ("", False)],
)
def test_bool_spellings(tmp_path, text, value):
    path = tmp_path / "engine.conf"
    path.write_text(f"keep_sandboxes = {text}\n", "utf-8")
    assert load_config(path).keep_sandboxes is value


@pytest.mark.parametrize("text", ["script_dir =\n", '{"script_dir": ""}', '{"script_dir": null}'])
def test_an_empty_script_dir_is_none(tmp_path, text):
    path = tmp_path / "engine.conf"
    path.write_text(text, "utf-8")
    assert load_config(path).script_dir is None


@pytest.mark.parametrize("text", ["focus_k = 2\nfocus_depth = 3\n", '{"focus_depth": 3}'])
def test_an_unknown_key_is_refused(tmp_path, text):
    path = tmp_path / "engine.conf"
    path.write_text(text, "utf-8")
    with pytest.raises(SkillmineError, match="unknown config keys: focus_depth"):
        load_config(path)
