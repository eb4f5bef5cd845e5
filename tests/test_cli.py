"""CLI smoke tests: every command is a thin adapter over one engine operation."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from skillmine import cli as climod
from skillmine import pipeline as pipelinemod
from skillmine import workers
from skillmine.cli import main
from skillmine.workers import CampaignConfig, run_campaign, state_digest

from conftest import FAILING_SMOKE, FIXTURES, make_engine, write_mock


@pytest.fixture
def taxonomy_file() -> Path:
    return FIXTURES / "taxonomy_mini.txt"


@pytest.fixture
def campaign_script() -> Path:
    return FIXTURES / "scripts" / "campaign"


def base_args(root: Path, script: Path) -> list[str]:
    return ["--registry", str(root), "--provider", "mock", "--script", str(script)]


def run_cli(args: list[str], capsys) -> tuple[int, str, str]:
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_init_creates_registry(tmp_path, taxonomy_file, campaign_script, capsys):
    root = tmp_path / "library"
    code, out, err = run_cli(
        base_args(root, campaign_script) + ["init", str(taxonomy_file)], capsys
    )
    assert code == 0, err
    assert (root / "tree.snapshot").is_file()
    assert "initialized" in out


def test_init_parse_error_exits_nonzero_and_names_case(tmp_path, campaign_script, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("root\n      orphan *\n")
    code, _out, err = run_cli(
        base_args(tmp_path / "library", campaign_script) + ["init", str(bad)], capsys
    )
    assert code == 1
    assert "init" in err
    assert "OrphanParentError" in err


def test_a_second_init_is_refused_and_the_tree_links_survive(
    tmp_path, taxonomy_file, campaign_script, capsys
):
    root = tmp_path / "library"
    args = base_args(root, campaign_script)
    assert run_cli(args + ["init", str(taxonomy_file)], capsys)[0] == 0
    assert run_cli(args + ["cycle", "--branch", "science/genomics"], capsys)[0] == 0
    snapshot = (root / "tree.snapshot").read_bytes()

    code, out, err = run_cli(args + ["init", str(taxonomy_file)], capsys)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and "already holds a library" in err
    assert (root / "tree.snapshot").read_bytes() == snapshot
    code, out, _ = run_cli(args + ["status"], capsys)
    assert code == 0 and "covered=2" in out


@pytest.mark.parametrize("failure", ["no-script", "bad-taxonomy"])
def test_a_failed_init_leaves_no_file(tmp_path, taxonomy_file, campaign_script, capsys, failure):
    root = tmp_path / "library"
    if failure == "no-script":
        args = ["--registry", str(root), "--provider", "mock", "init", str(taxonomy_file)]
    else:
        bad = tmp_path / "bad.txt"
        bad.write_text("root\n      orphan *\n")
        args = base_args(root, campaign_script) + ["init", str(bad)]
    code, _out, err = run_cli(args, capsys)
    assert code == 1 and len(err.splitlines()) == 1
    assert not root.exists()


@pytest.mark.parametrize(
    "command",
    [["cycle"], ["status"], ["export-site", "site"], ["novelty", "x"]],
    ids=["cycle", "status", "export-site", "novelty"],
)
def test_a_command_on_a_root_with_no_tree_snapshot_creates_nothing(
    tmp_path, campaign_script, capsys, command
):
    root = tmp_path / "library"
    if command[0] == "export-site":
        command = ["export-site", str(tmp_path / "site")]
    code, _out, err = run_cli(base_args(root, campaign_script) + command, capsys)
    assert code == 1 and "no tree snapshot" in err
    assert not root.exists()


def test_cycle_and_status_and_export(tmp_path, taxonomy_file, campaign_script, capsys):
    root = tmp_path / "library"
    args = base_args(root, campaign_script)
    assert run_cli(args + ["init", str(taxonomy_file)], capsys)[0] == 0

    code, out, _ = run_cli(args + ["cycle", "--branch", "science/genomics"], capsys)
    assert code == 0
    assert "tree_check, resource_search, skill_build, skill_test, refresh" in out
    assert "created=2" in out

    code, out, _ = run_cli(args + ["status"], capsys)
    assert code == 0
    assert "skills=2" in out
    assert "covered=2" in out

    dest = tmp_path / "site"
    code, out, _ = run_cli(args + ["export-site", str(dest)], capsys)
    assert code == 0
    assert (dest / "stats.json").is_file()

    code, out, _ = run_cli(args + ["timing-report", "--dest", str(tmp_path / "timing")], capsys)
    assert code == 0
    assert "tree_check" in out
    assert (tmp_path / "timing" / "timing.json").is_file()


def count_calls(monkeypatch, module, name: str, calls: list) -> None:
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_campaign_run_cli(tmp_path, taxonomy_file, campaign_script, capsys, monkeypatch):
    root = tmp_path / "library"
    args = base_args(root, campaign_script)
    run_cli(args + ["init", str(taxonomy_file)], capsys)
    code, out, _ = run_cli(
        args
        + [
            "campaign",
            "run",
            "mini",
            "--branches",
            "science/genomics",
            "--cycles-per-branch",
            "1",
        ],
        capsys,
    )
    assert code == 0
    assert "completed" in out
    assert (root / "campaigns" / "mini" / "checkpoint.json").is_file()

    # Resuming a finished campaign replays its report from the checkpoint,
    # once the digest has shown the library unchanged: no registry is opened.
    phases = json.loads((root / "campaigns" / "mini" / "checkpoint.json").read_text())["phases"]
    digest = state_digest(root)
    opens: list = []
    for module in (climod, pipelinemod):
        count_calls(monkeypatch, module, "open_registry", opens)
    code, out, err = run_cli(args + ["campaign", "resume", "mini"], capsys)
    assert (code, out, err) == (0, f"campaign mini: completed; phases={len(phases)}\n", "")
    assert opens == []
    assert state_digest(root) == digest

    # A drifted library is refused by the digest, before any log is decoded.
    (root / "stray-edit.txt").write_text("edited behind the campaign's back\n")
    with open(root / "skills.ndjson", "a", encoding="utf-8") as log:
        log.write("not json\n")
    code, out, err = run_cli(args + ["campaign", "resume", "mini"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("campaign: DigestMismatchError: campaign mini: registry digest mismatch")
    assert opens == []


def test_an_interrupted_campaign_resumed_by_the_cli_equals_the_uninterrupted_run(
    tmp_path, campaign_script, capsys, monkeypatch
):
    config = CampaignConfig(
        campaign_id="camp", branch_schedule=("science/genomics", "science/imaging")
    )
    baseline = make_engine(tmp_path / "straight" / "library", campaign_script)
    straight = run_campaign(baseline, config)
    engine = make_engine(tmp_path / "library", campaign_script)
    assert run_campaign(engine, config, stop_after_phases=1).status == "interrupted"

    digests: list = []
    count_calls(monkeypatch, workers, "state_digest", digests)
    code, out, _ = run_cli(base_args(engine.root, campaign_script) + ["campaign", "resume", "camp"],
                           capsys)
    assert (code, out) == (0, f"campaign camp: completed; phases={len(straight.phases)}\n")
    # One digest verifies the checkpoint; each of the other phases then
    # checkpoints once.
    assert len(digests) == len(straight.phases)
    monkeypatch.undo()
    assert state_digest(engine.root) == state_digest(baseline.root)


def test_an_unreadable_checkpoint_fails_the_resume_in_one_line(
    tmp_path, taxonomy_file, campaign_script, capsys
):
    root = tmp_path / "library"
    args = base_args(root, campaign_script)
    run_cli(args + ["init", str(taxonomy_file)], capsys)
    run_cli(args + ["campaign", "run", "mini", "--branches", "science/genomics"], capsys)
    path = root / "campaigns" / "mini" / "checkpoint.json"
    text = path.read_text("utf-8")
    record = json.loads(text)
    no_cursor = {key: value for key, value in record.items() if key != "cursor"}
    no_branches = {**record, "config": {**record["config"]}}
    del no_branches["config"]["branch_schedule"]

    def with_config(**fields) -> str:
        return json.dumps({**record, "config": {**record["config"], **fields}})

    for damaged, detail in [
        (text[: len(text) // 2], "Expecting"),
        ("[1, 2]\n", "not a JSON object"),
        (json.dumps(no_cursor), "missing field 'cursor'"),
        (json.dumps({**record, "cursor": "one"}), "invalid literal for int()"),
        (json.dumps({**record, "phases": 5}), "phases is not a JSON array"),
        (json.dumps({**record, "config": [1]}), "config is not a JSON object"),
        (json.dumps(no_branches), "missing config field 'branch_schedule'"),
        (with_config(cycles_per_branch="x"), "config: invalid literal for int()"),
        (with_config(branch_schedule=5), "config: 'int' object is not iterable"),
    ]:
        path.write_text(damaged, encoding="utf-8")
        code, out, err = run_cli(args + ["campaign", "resume", "mini"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"campaign: WorkerError: {path}: unreadable checkpoint: {detail}")
        assert err.count("\n") == 1


def test_test_and_novelty_commands(tmp_path, taxonomy_file, campaign_script, capsys):
    root = tmp_path / "library"
    args = base_args(root, campaign_script)
    run_cli(args + ["init", str(taxonomy_file)], capsys)
    run_cli(args + ["cycle", "--branch", "science/genomics"], capsys)

    skill = "short-read-alignment-align-short-reads"
    code, out, _ = run_cli(args + ["test", skill, "--layer", "execution"], capsys)
    assert code == 0
    assert "pass" in out

    code, out, _ = run_cli(args + ["test", skill, "--layer", "synthetic"], capsys)
    assert code == 0
    assert "stable" in out

    code, out, _ = run_cli(args + ["test", skill, "--layer", "benchmark"], capsys)
    assert code == 0
    assert "meaningful advantage" in out

    # Adjudication excludes the skill itself from the local view, so an
    # already-registered skill with no twin elsewhere reads as novel.
    code, out, _ = run_cli(args + ["novelty", skill], capsys)
    assert code == 0
    assert "novel" in out


def test_a_bad_benchmark_case_file_fails_the_test_command_in_one_line(
    tmp_path, taxonomy_file, campaign_script, capsys
):
    root = tmp_path / "library"
    args = base_args(root, campaign_script)
    run_cli(args + ["init", str(taxonomy_file)], capsys)
    run_cli(args + ["cycle", "--branch", "science/genomics"], capsys)
    cases = tmp_path / "cases.json"
    for document, error in [
        ({"cases": [{"id": "c1", "fixture_paths": ["../../etc/hostname"]}]}, "HarnessError"),
        ({"cases": [{"id": "c1", "with_command": "a", "baseline_command": "b",
                     "score_command": "c", "fixture_paths": ["../../etc/hostname"]}]},
         "PathEscapeError"),
    ]:
        cases.write_text(json.dumps(document))
        skill = "short-read-alignment-align-short-reads"
        code, _, err = run_cli(
            args + ["test", skill, "--layer", "benchmark", "--cases", str(cases)], capsys
        )
        assert code == 1
        assert err.startswith(f"test: {error}: ") and err.count("\n") == 1


def test_test_command_leaves_the_committed_library_as_it_was(
    tmp_path, taxonomy_file, campaign_script, capsys
):
    skill = "short-read-alignment-align-short-reads"
    script = tmp_path / "script"
    shutil.copytree(campaign_script, script)
    build = script / "skill_build__science--genomics--alignment--short-read-alignment__1.json"
    document = json.loads(build.read_text())
    artifacts = document["candidates"][0]["artifacts"]
    fix = {"path": "tests/smoke.py", "content": artifacts["tests/smoke.py"]}
    artifacts["tests/smoke.py"] = FAILING_SMOKE
    build.write_text(json.dumps(document))
    write_mock(script, "layer1_fix", skill, 1, {"diagnosis": "d", "edits": [fix], "retest": True})

    root = tmp_path / "library"
    args = base_args(root, script)
    run_cli(args + ["init", str(taxonomy_file)], capsys)
    code, _, _ = run_cli(args + ["campaign", "run", "mini", "--branches", "science/genomics"], capsys)
    assert code == 0
    attempt_1 = root / "reports" / "verifications" / skill / "execution" / "attempt-1.json"
    before = attempt_1.read_bytes()
    assert json.loads(before)["verdict"] == "fail"  # the skill was repaired
    digest = state_digest(root)

    for layer in ("execution", "synthetic", "benchmark"):
        code, _, _ = run_cli(args + ["test", skill, "--layer", layer], capsys)
        assert code == 0

    assert attempt_1.read_bytes() == before
    assert state_digest(root) == digest
    code, out, _ = run_cli(args + ["campaign", "resume", "mini"], capsys)
    assert code == 0
    assert "completed" in out


def test_design_skill_cli(tmp_path, taxonomy_file, capsys):
    root = tmp_path / "library"
    script = FIXTURES / "scripts" / "design"
    args = base_args(root, script)
    run_cli(args + ["init", str(taxonomy_file)], capsys)
    prompt = tmp_path / "prompt.txt"
    prompt.write_text("Annotate cell types in spatial data\n")
    code, out, _ = run_cli(args + ["design-skill", "--prompt", str(prompt)], capsys)
    assert code == 0
    assert "verified" in out


def test_unknown_skill_error_is_reported(tmp_path, taxonomy_file, campaign_script, capsys):
    root = tmp_path / "library"
    args = base_args(root, campaign_script)
    run_cli(args + ["init", str(taxonomy_file)], capsys)
    code, _out, err = run_cli(args + ["test", "ghost"], capsys)
    assert code == 1
    assert "UnknownSkillError" in err


def test_config_file_round_trip(tmp_path, taxonomy_file, campaign_script, capsys):
    config_file = tmp_path / "engine.cfg"
    config_file.write_text(
        "\n".join(
            [
                "# engine settings",
                f"registry_root = {tmp_path / 'library'}",
                "provider = mock",
                f"script_dir = {campaign_script}",
                "search_budget = 4",
                "focus_k = 2",
            ]
        )
    )
    code, out, err = run_cli(
        ["--config", str(config_file), "init", str(taxonomy_file)], capsys
    )
    assert code == 0, err
    code, out, _ = run_cli(["--config", str(config_file), "status"], capsys)
    assert code == 0
    assert "skills=0" in out
