"""Skill contracts and the on-disk skill package format.

A package is a directory with ``SKILL.md`` (human-readable spec),
``skill.json`` (machine-readable mirror), ``PROVENANCE.md``, and ``scripts/``,
``examples/``, ``tests/`` subtrees. Its value is the directory alone: the
contract is read from ``skill.json`` when asked for, and only lint lists
``scripts/``. Compilation is deterministic: the same contract and artifacts
always produce byte-identical output. The smoke target is the first test
command, a plain string: the harness runs it at the package root and a run
passes on exit status 0.
"""

from __future__ import annotations

import json
import os
import re
import shlex
import stat
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    MalformedInvocationError,
    MissingRequiredFieldError,
    PackageError,
    PathEscapeError,
)
from .util import (
    atomic_write_bytes,
    atomic_write_text,
    dump_json_doc,
    is_escaping_relpath,
    walk_files,
)

INPUT_KINDS = ("file", "argument")
OUTPUT_KINDS = ("file", "stream")

SPEC_DOCUMENT = "SKILL.md"
METADATA_DOCUMENT = "skill.json"
PROVENANCE_DOCUMENT = "PROVENANCE.md"
PACKAGE_DIRS = ("scripts", "examples", "tests")


@dataclass(frozen=True)
class ContractInput:
    name: str
    description: str = ""
    required: bool = True
    kind: str = "argument"


@dataclass(frozen=True)
class ContractOutput:
    name: str
    description: str = ""
    kind: str = "file"


@dataclass(frozen=True)
class SkillContract:
    task_scope: str
    inputs: tuple[ContractInput, ...] = ()
    outputs: tuple[ContractOutput, ...] = ()
    environment_assumptions: tuple[str, ...] = ()
    execution_steps: tuple[str, ...] = ()
    provenance_links: tuple[str, ...] = ()
    follow_up_guidance: str = ""
    example_invocations: tuple[str, ...] = ()
    test_commands: tuple[str, ...] = ()


@dataclass(frozen=True)
class SkillPackage:
    root_path: Path

    def contract(self) -> SkillContract:
        return load_contract(self.root_path / METADATA_DOCUMENT)


_UNQUOTED_SPACE = re.compile(r"[ \t\r\n]+")


def tokenize_command(command: str) -> list[str]:
    """Quoted-token splitting; no shell, no interpolation.

    A command with no quote and no backslash is split at runs of the four
    characters ``shlex`` treats as whitespace, which gives ``shlex.split``'s
    tokens without its per-character state machine.
    """
    if "'" in command or '"' in command or "\\" in command:
        try:
            argv = shlex.split(command, posix=True)
        except ValueError as exc:
            raise MalformedInvocationError(f"unparseable command {command!r}: {exc}") from None
    else:
        argv = [part for part in _UNQUOTED_SPACE.split(command) if part]
    if not argv:
        raise MalformedInvocationError(f"empty command: {command!r}")
    return argv


def _string_list(document: dict, key: str) -> tuple[str, ...]:
    value = document.get(key) or []
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise MalformedInvocationError(f"field {key} must be a list of strings")
    return tuple(value)


def parse_contract(document: dict) -> SkillContract:
    """Map a validated skill_build payload onto a contract.

    Missing optional fields default to empty; a missing or empty task_scope is
    an error, as are command strings that do not tokenize.
    """
    scope = document.get("task_scope")
    if not scope or not str(scope).strip():
        raise MissingRequiredFieldError("task_scope")

    inputs = []
    for raw in document.get("inputs", []) or []:
        if isinstance(raw, str):
            raw = {"name": raw}
        name = raw.get("name")
        if not name:
            raise MissingRequiredFieldError("inputs[].name")
        kind = raw.get("kind", "argument")
        if kind not in INPUT_KINDS:
            raise MalformedInvocationError(f"input {name}: unknown kind {kind!r}")
        if kind == "file" and is_escaping_relpath(str(name)):
            raise MalformedInvocationError(f"file input {name}: name escapes the inputs directory")
        inputs.append(
            ContractInput(
                name=str(name),
                description=str(raw.get("description", "")),
                required=bool(raw.get("required", True)),
                kind=kind,
            )
        )

    outputs = []
    for raw in document.get("outputs", []) or []:
        if isinstance(raw, str):
            raw = {"name": raw}
        name = raw.get("name")
        if not name:
            raise MissingRequiredFieldError("outputs[].name")
        kind = raw.get("kind", "file")
        if kind not in OUTPUT_KINDS:
            raise MalformedInvocationError(f"output {name}: unknown kind {kind!r}")
        outputs.append(
            ContractOutput(name=str(name), description=str(raw.get("description", "")), kind=kind)
        )

    invocations = _string_list(document, "example_invocations")
    tests = _string_list(document, "test_commands")
    for command in invocations + tests:
        tokenize_command(command)

    return SkillContract(
        task_scope=str(scope).strip(),
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        environment_assumptions=_string_list(document, "environment_assumptions"),
        execution_steps=_string_list(document, "execution_steps"),
        provenance_links=_string_list(document, "provenance_links"),
        follow_up_guidance=str(document.get("follow_up_guidance") or ""),
        example_invocations=invocations,
        test_commands=tests,
    )


_WORD = re.compile(r"[A-Za-z0-9_]+")


def contract_violations(contract: SkillContract) -> list[str]:
    """Invariant scan: every required input must be referenced somewhere."""
    problems: list[str] = []
    texts = list(contract.execution_steps) + list(contract.example_invocations)
    for item in contract.inputs:
        if not item.required:
            continue
        placeholder = "{" + item.name + "}"
        referenced = any(placeholder in text for text in texts) or any(
            item.name in _WORD.findall(text) for text in texts
        )
        if not referenced:
            problems.append(f"required input {item.name} is not referenced by any step or example")
    return problems


def render_metadata(contract: SkillContract) -> dict:
    return {
        "task_scope": contract.task_scope,
        "inputs": [
            {"name": i.name, "description": i.description, "required": i.required, "kind": i.kind}
            for i in contract.inputs
        ],
        "outputs": [
            {"name": o.name, "description": o.description, "kind": o.kind}
            for o in contract.outputs
        ],
        "environment_assumptions": list(contract.environment_assumptions),
        "execution_steps": list(contract.execution_steps),
        "provenance_links": list(contract.provenance_links),
        "follow_up_guidance": contract.follow_up_guidance,
        "example_invocations": list(contract.example_invocations),
        "test_commands": list(contract.test_commands),
    }


def load_contract(path: Path) -> SkillContract:
    try:
        document = json.loads(path.read_text("utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise PackageError(f"unreadable metadata at {path}: {exc}") from None
    return parse_contract(document)


def normalize_prose(text: str) -> str:
    """Whitespace-collapsed, case-preserved comparison form."""
    return " ".join(text.split())


def _render_spec_markdown(contract: SkillContract, name: str) -> str:
    lines: list[str] = [f"# {name}", ""]
    lines += ["## Scope", "", contract.task_scope, ""]
    lines.append("## Inputs")
    lines.append("")
    if contract.inputs:
        for item in contract.inputs:
            req = "required" if item.required else "optional"
            desc = f": {item.description}" if item.description else ""
            lines.append(f"- `{item.name}` ({item.kind}, {req}){desc}")
    else:
        lines.append("- none")
    lines.append("")
    lines.append("## Outputs")
    lines.append("")
    if contract.outputs:
        for item in contract.outputs:
            desc = f": {item.description}" if item.description else ""
            lines.append(f"- `{item.name}` ({item.kind}){desc}")
    else:
        lines.append("- none")
    lines.append("")
    lines.append("## Environment")
    lines.append("")
    lines += [f"- {a}" for a in contract.environment_assumptions] or ["- none"]
    lines.append("")
    lines.append("## Steps")
    lines.append("")
    lines += [f"{i}. {s}" for i, s in enumerate(contract.execution_steps, start=1)] or ["- none"]
    lines.append("")
    lines.append("## Provenance")
    lines.append("")
    lines += [f"- {p}" for p in contract.provenance_links] or ["- none"]
    lines.append("")
    lines.append("## Follow-up")
    lines.append("")
    lines.append(contract.follow_up_guidance or "none")
    lines.append("")
    lines.append("## Examples")
    lines.append("")
    lines += [f"- `{c}`" for c in contract.example_invocations] or ["- none"]
    lines.append("")
    lines.append("## Tests")
    lines.append("")
    lines += [f"- `{c}`" for c in contract.test_commands] or ["- none"]
    lines.append("")
    return "\n".join(lines)


_INPUT_LINE = re.compile(r"^- `(?P<name>[^`]+)` \((?P<kind>\w+), (?P<req>\w+)\)(?:: (?P<desc>.*))?$")
_OUTPUT_LINE = re.compile(r"^- `(?P<name>[^`]+)` \((?P<kind>\w+)\)(?:: (?P<desc>.*))?$")


def parse_spec_sections(markdown: str) -> dict[str, list[str]]:
    sections: dict[str, list[str]] = {}
    current: str | None = None
    for line in markdown.splitlines():
        if line.startswith("## "):
            current = line[3:].strip()
            sections[current] = []
        elif current is not None:
            sections[current].append(line)
    return {k: [l for l in v if l.strip()] for k, v in sections.items()}


def compile_package(
    contract: SkillContract,
    artifacts: dict[str, str | bytes],
    dest_root: str | Path,
    name: str = "Skill",
) -> SkillPackage:
    """Lay the package out on disk; deterministic and idempotent. An
    artifact that escapes ``dest_root``, would replace one of the three
    documents, or names a path that another one or the package needs as a
    directory is refused before anything is written."""
    dest = Path(dest_root)
    documents = (SPEC_DOCUMENT, METADATA_DOCUMENT, PROVENANCE_DOCUMENT)
    for rel in artifacts:
        if is_escaping_relpath(rel):
            raise PathEscapeError(rel)
        if os.path.normpath(rel) in documents:
            raise PackageError(f"artifact {rel} would replace the package's own document")
    files = {os.path.normpath(rel) for rel in artifacts}.union(documents)
    directories = set(PACKAGE_DIRS).union(*(map(str, Path(name).parents) for name in files))
    clashes = sorted(files & directories)
    if clashes:
        raise PackageError(f"artifact paths make {clashes[0]} both a file and a directory")
    dest.mkdir(parents=True, exist_ok=True)
    for sub in PACKAGE_DIRS:
        (dest / sub).mkdir(exist_ok=True)

    atomic_write_text(dest / SPEC_DOCUMENT, _render_spec_markdown(contract, name))
    atomic_write_text(dest / METADATA_DOCUMENT, dump_json_doc(render_metadata(contract)))
    provenance_lines = ["# Provenance", ""]
    provenance_lines += [f"- {p}" for p in contract.provenance_links] or ["- none"]
    atomic_write_text(dest / PROVENANCE_DOCUMENT, "\n".join(provenance_lines) + "\n")

    for rel in sorted(artifacts):
        data = artifacts[rel]
        payload = data.encode("utf-8") if isinstance(data, str) else data
        target = dest / rel
        atomic_write_bytes(target, payload)
        if rel.startswith("scripts/"):
            mode = target.stat().st_mode
            target.chmod(mode | stat.S_IXUSR | stat.S_IXGRP | stat.S_IXOTH)

    package = load_package(dest)
    # Internal bug guard: the metadata we just wrote must round-trip.
    written = package.contract()
    if render_metadata(written) != render_metadata(contract):
        raise PackageError(f"spec/metadata divergence while compiling {dest}")
    return package


def load_package(root: str | Path) -> SkillPackage:
    return SkillPackage(Path(root))


def lint_package(package: SkillPackage) -> list[str]:
    """Empty findings mean the package is structurally sound."""
    findings: list[str] = []
    root = package.root_path
    for required in (SPEC_DOCUMENT, METADATA_DOCUMENT, PROVENANCE_DOCUMENT):
        if not (root / required).is_file():
            findings.append(f"missing-file: {required}")
    metadata_path = root / METADATA_DOCUMENT
    contract: SkillContract | None = None
    if metadata_path.is_file():
        try:
            contract = load_contract(metadata_path)
        except (PackageError, MissingRequiredFieldError, MalformedInvocationError) as exc:
            findings.append(f"metadata-error: {exc}")

    spec_path = root / SPEC_DOCUMENT
    if contract is not None and spec_path.is_file():
        findings.extend(_spec_metadata_divergences(spec_path.read_text("utf-8"), contract))

    for rel in walk_files(root / "scripts"):
        if not os.access(root / "scripts" / rel, os.X_OK):
            findings.append(f"not-executable: scripts/{rel}")

    # A package with no test commands still lints clean; the missing-tests
    # note is recorded on the registry entry, not here.
    return findings


def _spec_metadata_divergences(markdown: str, contract: SkillContract) -> list[str]:
    findings: list[str] = []
    sections = parse_spec_sections(markdown)

    scope_text = normalize_prose(" ".join(sections.get("Scope", [])))
    if scope_text != normalize_prose(contract.task_scope):
        findings.append("divergence: task_scope differs between SKILL.md and skill.json")

    def parsed_names(section: str, pattern: re.Pattern) -> list[tuple[str, str]]:
        rows = []
        for line in sections.get(section, []):
            match = pattern.match(line.strip())
            if match:
                rows.append((match.group("name"), match.group("kind")))
        return rows

    spec_inputs = parsed_names("Inputs", _INPUT_LINE)
    meta_inputs = [(i.name, i.kind) for i in contract.inputs]
    if spec_inputs != meta_inputs:
        findings.append("divergence: inputs differ between SKILL.md and skill.json")

    spec_outputs = parsed_names("Outputs", _OUTPUT_LINE)
    meta_outputs = [(o.name, o.kind) for o in contract.outputs]
    if spec_outputs != meta_outputs:
        findings.append("divergence: outputs differ between SKILL.md and skill.json")
    return findings


def resolve_smoke_target(package: SkillPackage) -> str | None:
    """First declared test command, or None when the package ships no tests."""
    commands = package.contract().test_commands
    return commands[0] if commands else None
