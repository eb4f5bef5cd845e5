"""Skill contracts and package compilation."""

from __future__ import annotations

import json
import os
import shlex

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillmine.contracts import (
    SkillContract,
    compile_package,
    contract_violations,
    lint_package,
    load_package,
    parse_contract,
    render_metadata,
    resolve_smoke_target,
    tokenize_command,
)
from skillmine.errors import (
    MalformedInvocationError,
    MissingRequiredFieldError,
    PathEscapeError,
)
from skillmine.util import digest_dir

from conftest import PASSING_SMOKE, make_passing_package, passing_contract

MINIMAL_DOC = {
    "task_scope": "Count rows in a table",
    "inputs": [{"name": "table", "kind": "file", "required": True}],
    "execution_steps": ["Run the counter over {table}"],
    "provenance_links": ["res-1"],
}


def test_parse_minimal_document_defaults_optionals():
    contract = parse_contract(MINIMAL_DOC)
    assert contract.task_scope == "Count rows in a table"
    assert contract.outputs == ()
    assert contract.follow_up_guidance == ""
    assert contract.test_commands == ()


def test_parse_missing_scope_is_an_error():
    document = dict(MINIMAL_DOC)
    del document["task_scope"]
    with pytest.raises(MissingRequiredFieldError) as excinfo:
        parse_contract(document)
    assert excinfo.value.field == "task_scope"


def test_parse_rejects_malformed_invocation():
    document = dict(MINIMAL_DOC)
    document["test_commands"] = ['python3 -c "unterminated']
    with pytest.raises(MalformedInvocationError):
        parse_contract(document)


def test_unreferenced_required_input_reported():
    document = dict(MINIMAL_DOC)
    document["inputs"] = MINIMAL_DOC["inputs"] + [
        {"name": "threshold", "kind": "argument", "required": True}
    ]
    contract = parse_contract(document)
    problems = contract_violations(contract)
    assert len(problems) == 1
    assert "threshold" in problems[0]


def test_tokenizer_is_shell_free_quoted_splitting():
    assert tokenize_command("python3 -c 'print(1)'") == ["python3", "-c", "print(1)"]
    with pytest.raises(MalformedInvocationError):
        tokenize_command("   ")


# Characters around shlex's four whitespace characters that it does not treat
# as whitespace (vertical tab, NBSP, NEL, NUL, comment sign), plus quotes and
# backslashes, which take the shlex path.
COMMAND_CHARS = list(" \t\r\n\x0b\x0c\xa0\x85\x00#;|&$()=-_.:/ab'\"\\")


@settings(max_examples=1000, deadline=None)
@given(command=st.text(st.sampled_from(COMMAND_CHARS) | st.characters(), max_size=24))
def test_tokenizer_equals_shlex_split(command):
    try:
        expected = shlex.split(command, posix=True)
    except ValueError:
        expected = None
    if not expected:
        with pytest.raises(MalformedInvocationError):
            tokenize_command(command)
    else:
        assert tokenize_command(command) == expected


# -- compilation --------------------------------------------------------------------


def test_compile_lays_out_required_files(tmp_path):
    package = compile_package(
        passing_contract(),
        {"scripts/run.py": "print('hi')\n", "tests/smoke.py": PASSING_SMOKE},
        tmp_path / "pkg",
        name="demo",
    )
    root = package.root_path
    present = [
        (root / "SKILL.md").is_file(),
        (root / "skill.json").is_file(),
        (root / "PROVENANCE.md").is_file(),
        (root / "scripts/run.py").is_file(),
        (root / "tests/smoke.py").is_file(),
    ]
    assert all(present)
    assert os.access(root / "scripts/run.py", os.X_OK)


def test_compile_is_deterministic(tmp_path):
    artifacts = {"scripts/run.py": "print('hi')\n", "tests/smoke.py": PASSING_SMOKE}
    a = compile_package(passing_contract(), artifacts, tmp_path / "a", name="demo")
    b = compile_package(passing_contract(), artifacts, tmp_path / "b", name="demo")
    assert digest_dir(a.root_path) == digest_dir(b.root_path)


def test_compile_rejects_escaping_artifacts(tmp_path):
    with pytest.raises(PathEscapeError):
        compile_package(
            passing_contract(), {"../../etc/x": "nope"}, tmp_path / "pkg", name="demo"
        )


def test_metadata_round_trip(tmp_path):
    package = make_passing_package(tmp_path)
    loaded = package.contract()
    assert render_metadata(loaded) == render_metadata(passing_contract())


@settings(max_examples=30, deadline=None)
@given(
    scope=st.text(
        alphabet="abcdefghijklmnop qrstuvwxyz", min_size=1, max_size=60
    ).filter(lambda s: s.strip()),
    steps=st.lists(st.sampled_from(["prepare inputs", "run the tool", "collect outputs"]), max_size=3),
)
def test_parse_render_round_trip_property(scope, steps):
    contract = SkillContract(
        task_scope=scope.strip(),
        execution_steps=tuple(steps),
        provenance_links=("res-1",),
    )
    assert parse_contract(render_metadata(contract)) == contract


# -- lint ------------------------------------------------------------------------


def test_lint_clean_on_golden_package(tmp_path):
    package = make_passing_package(tmp_path)
    assert lint_package(package) == []


def test_lint_flags_scope_divergence(tmp_path):
    package = make_passing_package(tmp_path)
    metadata_path = package.root_path / "skill.json"
    document = json.loads(metadata_path.read_text())
    document["task_scope"] = "Something entirely different"
    metadata_path.write_text(json.dumps(document, indent=2, sort_keys=True))
    findings = lint_package(load_package(package.root_path))
    assert any("divergence" in f and "task_scope" in f for f in findings)


def test_lint_flags_missing_document(tmp_path):
    package = make_passing_package(tmp_path)
    (package.root_path / "PROVENANCE.md").unlink()
    assert lint_package(package) == ["missing-file: PROVENANCE.md"]


def test_lint_flags_non_executable_script(tmp_path):
    package = compile_package(
        passing_contract(), {"scripts/run.py": "print('x')\n"}, tmp_path / "pkg", name="demo"
    )
    (package.root_path / "scripts/run.py").chmod(0o644)
    findings = lint_package(load_package(package.root_path))
    assert any("not-executable" in f for f in findings)


# -- smoke target ------------------------------------------------------------------


def test_smoke_target_is_first_declared(tmp_path):
    contract = passing_contract(test_commands=("python3 tests/a.py", "python3 tests/b.py"))
    package = compile_package(
        contract,
        {"tests/a.py": "print('a')\n", "tests/b.py": "print('b')\n"},
        tmp_path / "pkg",
        name="demo",
    )
    assert resolve_smoke_target(package) == "python3 tests/a.py"


def test_smoke_target_absent_without_tests(tmp_path):
    contract = passing_contract(test_commands=(), example_invocations=())
    package = compile_package(contract, {}, tmp_path / "pkg", name="demo")
    assert resolve_smoke_target(package) is None
    assert lint_package(package) == []
