"""Validation harness: execution, repair, synthetic, system, benchmark layers."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

import pytest

from skillmine import harness as harnessmod
from skillmine.contracts import ContractInput, compile_package
from skillmine.errors import (
    HarnessError,
    NonNumericScoreError,
    NotApplicableError,
    PathEscapeError,
)
from skillmine.gateway import Gateway, MockProvider
from skillmine.harness import (
    BenchmarkCase,
    SyntheticReport,
    ValidationHarness,
    load_benchmark_cases,
)
from skillmine.pipeline import CycleReport, DesignReport, StageOutcome
from skillmine.registry import SkillEntry, VerificationRecord, open_registry
from skillmine.site import TimingSummary
from skillmine.util import canonical_json

from conftest import (
    FAILING_SMOKE,
    PASSING_SMOKE,
    make_failing_package,
    make_ignored_input_package,
    make_passing_package,
    make_scheduler_package,
    make_timeout_package,
    make_timestamp_package,
    passing_contract,
    write_mock,
)


@pytest.fixture
def registry(tmp_path):
    reg = open_registry(tmp_path / "library")
    return reg


# The first attempt's log bytes of each repair and optimize test, by test.
_LOGS: dict[str, tuple[bytes, bytes]] = {}


@pytest.fixture(params=["registry=", "core+commit"])
def commit_loop(request, registry):
    """Run a repair or optimize loop that commits to ``registry`` one of two
    ways: through its ``registry=`` argument, or as the loop without it
    followed by the outcome's ``commit``. Both must leave the same log
    bytes; the test's second run compares its logs with the first's."""

    def run(loop, *args, cycle=0, **kwargs):
        if request.param == "registry=":
            return loop(*args, registry=registry, cycle=cycle, **kwargs)
        outcome = loop(*args, **kwargs)
        outcome.commit(registry, cycle)
        return outcome

    yield run
    logs = tuple(
        (registry.root / name).read_bytes() for name in ("skills.ndjson", "verifications.ndjson")
    )
    assert _LOGS.setdefault(request.node.originalname, logs) == logs


def register(registry, skill_id, package_path="skills/x"):
    registry.upsert_skill(
        SkillEntry(
            id=skill_id,
            name=skill_id,
            leaf_path="root/alpha/one",
            status="untested",
            package_path=package_path,
            smoke_target="python3 tests/smoke.py",
            provenance=["res-1"],
        )
    )


@contextmanager
def held_in_place(package, rel):
    """Hold open the package directory and its file ``rel``, which the block
    must not edit; on leaving it, both must still be what is at their paths,
    and the file's bytes unchanged. The open descriptors keep either inode
    number from being reused by a replacement."""
    paths = (package.root_path, package.root_path / rel)
    before = paths[1].read_bytes()
    fds = [os.open(path, os.O_RDONLY) for path in paths]
    try:
        yield
        for fd, path in zip(fds, paths):
            held, there = os.fstat(fd), os.stat(path)
            assert (held.st_dev, held.st_ino) == (there.st_dev, there.st_ino), path
        assert paths[1].read_bytes() == before
    finally:
        for fd in fds:
            os.close(fd)


# -- execution ----------------------------------------------------------------


def test_execution_pass(tmp_path, harness):
    package = make_passing_package(tmp_path / "pkgs")
    report = harness.execution_test(package, "fixture-pass")
    assert report.verdict == "pass"
    assert report.exit_status == 0
    assert report.duration_seconds == 0.0
    locator = harness.reports_root / Path(report.report_locator).relative_to("reports")
    assert locator.is_file()


def test_execution_fail_records_log_digest(tmp_path, harness):
    package = make_failing_package(tmp_path / "pkgs")
    report = harness.execution_test(package, "fixture-fail")
    assert report.verdict == "fail"
    assert report.exit_status == 1
    assert len(report.log_digest) == 64


def test_execution_timeout_is_a_fail(tmp_path):
    package = make_timeout_package(tmp_path / "pkgs")
    harness = ValidationHarness(tmp_path / "sandbox", tmp_path / "reports", timeout=0.5)
    report = harness.execution_test(package, "fixture-slow")
    assert report.verdict == "fail"
    assert report.exit_status is None


def test_execution_without_smoke_target_is_error_verdict(tmp_path, harness):
    contract = passing_contract(test_commands=(), example_invocations=())
    package = compile_package(contract, {}, tmp_path / "pkgs" / "no-tests", name="no-tests")
    report = harness.execution_test(package, "no-tests")
    assert report.verdict == "error"


@pytest.mark.parametrize("layer", ["execution", "system"])
def test_a_missing_command_is_an_error_that_leaves_no_sandbox(tmp_path, harness, layer):
    contract = passing_contract(
        test_commands=("no-such-command-on-path",),
        environment_assumptions=("scheduler: slurm ntasks=1",),
    )
    package = compile_package(contract, {}, tmp_path / "pkgs" / "missing", name="missing")
    run = harness.system_test if layer == "system" else harness.execution_test
    report = run(package, "missing")
    assert (report.layer, report.verdict) == (layer, "error")
    assert list(harness.sandbox_root.iterdir()) == []


def test_the_sandbox_refuses_an_escaping_file_before_it_copies_anything(tmp_path, harness):
    package = make_passing_package(tmp_path / "pkgs")
    harness.sandbox_root.mkdir()
    files = [("inputs/data", ""), ("inputs/../../../../../escaped", "")]
    with pytest.raises(PathEscapeError):
        with harness._sandbox(package, "fixture-pass", "synthetic", "run-1", files):
            pass
    assert list(harness.sandbox_root.iterdir()) == []
    assert list(tmp_path.rglob("escaped")) == []


def test_execution_reports_identical_up_to_duration(tmp_path, harness):
    package = make_passing_package(tmp_path / "pkgs")
    a = harness.execution_test(package, "fixture-pass", attempt=1)
    b = harness.execution_test(package, "fixture-pass", attempt=2)
    assert (a.log_digest, a.artifacts_digest, a.verdict) == (
        b.log_digest,
        b.artifacts_digest,
        b.verdict,
    )


# -- repair loop -------------------------------------------------------------------


def fix_payload(content: str) -> dict:
    return {
        "diagnosis": "smoke script broken",
        "edits": [{"path": "tests/smoke.py", "content": content}],
        "retest": True,
    }


def test_repair_fail_fix_pass_ends_verified_with_attempt_two(
    tmp_path, harness, registry, commit_loop
):
    package = make_failing_package(tmp_path / "pkgs", name="fixme")
    register(registry, "fixme")
    script = tmp_path / "script"
    write_mock(script, "layer1_fix", "fixme", 1, fix_payload(PASSING_SMOKE))
    gateway = Gateway(MockProvider(script))

    failing = harness.execution_test(package, "fixme", attempt=1)
    registry.set_verification(
        "fixme",
        VerificationRecord(
            skill_id="fixme", layer="execution", outcome="fail", attempt=1, cycle=1
        ),
    )
    with held_in_place(package, "SKILL.md"):
        outcome = commit_loop(
            harness.repair_loop, package, "fixme", failing, budget=3, gateway=gateway, cycle=1
        )

    assert outcome.outcome == "repaired"
    assert outcome.attempts == 2
    entry = registry.skill("fixme")
    assert entry.status == "verified"
    assert registry.replay_status("fixme") == "verified"
    statuses = [line["status"] for line in registry.skill_history("fixme")]
    assert statuses == ["untested", "repaired", "verified"]
    # the repaired surface was written back to the real package
    assert "exit(1)" not in (package.root_path / "tests/smoke.py").read_text()


def test_repair_always_fail_removed_after_exactly_budget_attempts(
    tmp_path, harness, registry, commit_loop
):
    package = make_failing_package(tmp_path / "pkgs", name="hopeless")
    register(registry, "hopeless")
    script = tmp_path / "script"
    for n in (1, 2, 3):
        write_mock(script, "layer1_fix", "hopeless", n, fix_payload(FAILING_SMOKE))
    gateway = Gateway(MockProvider(script))

    failing = harness.execution_test(package, "hopeless", attempt=1)
    registry.set_verification(
        "hopeless",
        VerificationRecord(
            skill_id="hopeless", layer="execution", outcome="fail", attempt=1, cycle=1
        ),
    )
    outcome = commit_loop(
        harness.repair_loop, package, "hopeless", failing, budget=3, gateway=gateway, cycle=1
    )

    assert outcome.outcome == "removed"
    assert outcome.attempts == 3
    assert registry.skill("hopeless").status == "removed"
    attempts = [r.attempt for r in registry.verifications("hopeless", "execution")]
    assert attempts == [1, 2, 3]


def test_repair_rejects_escaping_edit_but_counts_the_attempt(
    tmp_path, harness, registry, commit_loop
):
    package = make_failing_package(tmp_path / "pkgs", name="escapee")
    register(registry, "escapee")
    script = tmp_path / "script"
    write_mock(
        script,
        "layer1_fix",
        "escapee",
        1,
        {
            "diagnosis": "try to edit shared state",
            "edits": [{"path": "../../skills.ndjson", "content": "tamper"}],
            "retest": True,
        },
    )
    write_mock(script, "layer1_fix", "escapee", 2, fix_payload(PASSING_SMOKE))
    gateway = Gateway(MockProvider(script))

    failing = harness.execution_test(package, "escapee", attempt=1)
    registry.set_verification(
        "escapee",
        VerificationRecord(
            skill_id="escapee", layer="execution", outcome="fail", attempt=1, cycle=1
        ),
    )
    outcome = commit_loop(
        harness.repair_loop, package, "escapee", failing, budget=3, gateway=gateway, cycle=1
    )

    # attempt 2 was consumed by the rejected edit, attempt 3 passed
    assert outcome.outcome == "repaired"
    assert outcome.attempts == 3
    records = registry.verifications("escapee", "execution")
    assert [r.outcome for r in records] == ["fail", "error", "pass"]


def test_repair_budget_is_never_exceeded(tmp_path, harness, registry, commit_loop):
    package = make_failing_package(tmp_path / "pkgs", name="bounded")
    register(registry, "bounded")
    script = tmp_path / "script"
    for n in range(1, 6):
        write_mock(script, "layer1_fix", "bounded", n, fix_payload(FAILING_SMOKE))
    gateway = Gateway(MockProvider(script))
    failing = harness.execution_test(package, "bounded", attempt=1)
    registry.set_verification(
        "bounded",
        VerificationRecord(
            skill_id="bounded", layer="execution", outcome="fail", attempt=1, cycle=1
        ),
    )
    commit_loop(harness.repair_loop, package, "bounded", failing, budget=2, gateway=gateway)
    assert len(registry.verifications("bounded", "execution")) <= 2


# -- synthetic ---------------------------------------------------------------------


def test_synthetic_stable_fixture(tmp_path, harness):
    package = make_timestamp_package(tmp_path / "pkgs", deterministic=True)
    report = harness.synthetic_test(package, "fixture-stable")
    assert report.stability == "stable"
    assert report.run_digests[0] == report.run_digests[1]
    assert report.clean


def test_synthetic_timestamp_fixture_unstable(tmp_path, harness):
    package = make_timestamp_package(tmp_path / "pkgs", deterministic=False)
    report = harness.synthetic_test(package, "fixture-unstable")
    assert report.stability == "unstable"
    assert report.run_digests[0] != report.run_digests[1]


def test_synthetic_flags_exactly_the_ignored_input(tmp_path, harness):
    package = make_ignored_input_package(tmp_path / "pkgs")
    report = harness.synthetic_test(package, "fixture-ignored-input")
    assert report.stability == "stable"
    assert report.coverage_gaps == ["mode"]
    assert report.contract_coverage["inputs"]["data"] == "exercised"
    assert report.contract_coverage["outputs"]["out/result.txt"] == "observed"


def test_synthetic_coverage_keys_match_contract(tmp_path, harness):
    package = make_ignored_input_package(tmp_path / "pkgs")
    report = harness.synthetic_test(package, "fixture-ignored-input")
    contract = package.contract()
    assert set(report.contract_coverage["inputs"]) == {i.name for i in contract.inputs}
    assert set(report.contract_coverage["outputs"]) == {o.name for o in contract.outputs}


HANG_WHEN_PERTURBED = """\
import sys
import time

if sys.argv[1] != "synthetic":
    time.sleep(3)
print(sys.argv[1])
"""


def test_synthetic_ablation_timeout_is_an_error_report(tmp_path):
    harness = ValidationHarness(
        sandbox_root=tmp_path / "sandbox", reports_root=tmp_path / "reports", timeout=0.5
    )
    contract = passing_contract(
        task_scope="Echo a label back to the caller",
        inputs=(ContractInput(name="label", description="a label", required=True, kind="argument"),),
        outputs=(),
        execution_steps=("Run scripts/echo.py with {label}",),
        example_invocations=("python3 scripts/echo.py {label}",),
    )
    package = compile_package(
        contract, {"scripts/echo.py": HANG_WHEN_PERTURBED}, tmp_path / "pkgs" / "echo", name="echo"
    )
    report = harness.synthetic_test(package, "echo")
    assert report.error == "synthetic invocation timed out: python3 scripts/echo.py synthetic-alt"
    assert not report.clean
    persisted = json.loads(
        (harness.reports_root / "verifications" / "echo" / "synthetic" / "attempt-1.json").read_text()
    )
    assert persisted["error"] == report.error
    assert list(harness.sandbox_root.iterdir()) == []


# -- system -------------------------------------------------------------------------


def test_system_test_renders_submission_and_passes(tmp_path, harness):
    package = make_scheduler_package(tmp_path / "pkgs", ntasks=2)
    report = harness.system_test(package, "fixture-sched")
    assert report.verdict == "pass"
    assert report.rendered_submission is not None
    assert "job-name=skill-fixture-sched" in report.rendered_submission
    assert "ntasks=2" in report.rendered_submission


def test_system_test_requires_injected_job_id(tmp_path, harness):
    package = make_scheduler_package(tmp_path / "pkgs", ntasks=1, name="sched-env")
    report = harness.system_test(package, "sched-env")
    assert report.verdict == "pass"
    # Without injection the same script fails: run it as a plain execution test.
    plain = harness.execution_test(package, "sched-env")
    assert plain.verdict == "fail"


def test_system_test_not_applicable_without_scheduler_assumption(tmp_path, harness):
    package = make_passing_package(tmp_path / "pkgs")
    with pytest.raises(NotApplicableError):
        harness.system_test(package, "fixture-pass")


def test_system_test_simulated_queue_rejection(tmp_path, harness):
    package = make_scheduler_package(tmp_path / "pkgs", ntasks=64, name="greedy")
    assert harnessmod.MAX_TASKS == 8
    report = harness.system_test(package, "greedy")
    assert report.verdict == "fail"
    assert "ntasks=64" in (report.rendered_submission or "")


# -- benchmark -----------------------------------------------------------------------


SCORE_IF_OUTPUT = """\
from pathlib import Path

print("0.9" if Path("out/result.txt").exists() else "0.5")
"""


def bench_package(root, name="bench-skill"):
    contract = passing_contract()
    return compile_package(
        contract,
        {
            "tests/smoke.py": PASSING_SMOKE,
            "scripts/score.py": SCORE_IF_OUTPUT,
            "scripts/noop.py": "print('baseline')\n",
        },
        root / name,
        name=name,
    )


def scripted_case(case_id, with_score, baseline_score):
    return BenchmarkCase(
        case_id=case_id,
        with_command=f"python3 -c \"open('with.txt','w').write('x')\"",
        baseline_command="python3 -c \"open('base.txt','w').write('x')\"",
        score_command=(
            "python3 -c \"from pathlib import Path; "
            f"print({with_score!r} if Path('with.txt').exists() else {baseline_score!r})\""
        ),
    )


def test_benchmark_margin_matches_arithmetic_oracle(tmp_path, harness):
    package = bench_package(tmp_path / "pkgs")
    cases = [scripted_case("c1", "0.9", "0.5"), scripted_case("c2", "0.8", "0.5")]
    report = harness.benchmark_compare(package, cases, "bench-skill")
    expected = ((0.9 - 0.5) + (0.8 - 0.5)) / 2
    assert report.margin == pytest.approx(expected)
    assert report.verdict == "pass"
    assert [c[0] for c in report.cases] == ["c1", "c2"]
    # The report is written where its locator points, and its record points there.
    assert report.report_locator == "reports/verifications/bench-skill/benchmark/attempt-1.json"
    written = harness.reports_root / "verifications/bench-skill/benchmark/attempt-1.json"
    assert json.loads(written.read_text()) == json.loads(canonical_json(report.to_record()))
    record = report.verification_record(attempt=1, cycle=2)
    assert (record.layer, record.outcome, record.report_locator) == (
        "benchmark", "pass", report.report_locator
    )


def test_benchmark_identical_scores_is_weak(tmp_path, harness):
    package = bench_package(tmp_path / "pkgs", name="flat")
    cases = [scripted_case("c1", "0.7", "0.7")]
    report = harness.benchmark_compare(package, cases, "flat")
    assert report.margin == pytest.approx(0.0)
    assert report.verdict == "fail"


def test_benchmark_crashed_arm_scores_zero(tmp_path, harness):
    package = bench_package(tmp_path / "pkgs", name="crashy")
    case = BenchmarkCase(
        case_id="c1",
        with_command="python3 -c \"open('with.txt','w').write('x')\"",
        baseline_command="python3 -c \"import sys; sys.exit(3)\"",
        score_command=(
            "python3 -c \"from pathlib import Path; "
            "print('0.9' if Path('with.txt').exists() else '0.4')\""
        ),
    )
    report = harness.benchmark_compare(package, [case], "crashy")
    assert report.cases == [("c1", 0.9, 0.0)]


def test_benchmark_non_numeric_score_is_an_error(tmp_path, harness):
    package = bench_package(tmp_path / "pkgs", name="texty")
    case = BenchmarkCase(
        case_id="c1",
        with_command="python3 -c \"print('ready')\"",
        baseline_command="python3 -c \"print('ready')\"",
        score_command="python3 -c \"print('excellent')\"",
    )
    with pytest.raises(NonNumericScoreError):
        harness.benchmark_compare(package, [case], "texty")
    assert list(harness.sandbox_root.iterdir()) == []


def test_benchmark_requires_cases(tmp_path, harness):
    package = bench_package(tmp_path / "pkgs", name="empty")
    with pytest.raises(HarnessError):
        harness.benchmark_compare(package, [], "empty")


# -- optimize loop ------------------------------------------------------------------


def optimize_payload(edits):
    return {"actions": edits, "rebenchmark": True}


def test_optimize_raises_margin_in_one_round(tmp_path, harness, registry, commit_loop):
    package = bench_package(tmp_path / "pkgs", name="weakling")
    register(registry, "weakling", package_path="skills/weakling")
    # Scoring reads tuning.txt: it starts absent (weak) and an optimize edit adds it.
    case = BenchmarkCase(
        case_id="c1",
        with_command="python3 -c \"open('with.txt','w').write('x')\"",
        baseline_command="python3 -c \"print('base')\"",
        score_command=(
            "python3 -c \"from pathlib import Path; "
            "print('0.9' if Path('scripts/tuned.txt').exists() and Path('with.txt').exists() "
            "else ('0.5' if Path('with.txt').exists() else '0.5'))\""
        ),
    )
    weak = harness.benchmark_compare(package, [case], "weakling")
    assert weak.verdict == "fail"

    script = tmp_path / "script"
    write_mock(
        script,
        "layer2_optimize",
        "weakling",
        1,
        optimize_payload([{"path": "scripts/tuned.txt", "content": "tuned\n"}]),
    )
    gateway = Gateway(MockProvider(script))
    outcome = commit_loop(
        harness.optimize_loop, package, "weakling", weak, budget=2, gateway=gateway, cases=[case]
    )
    assert outcome.outcome == "optimized"
    assert outcome.attempts == 1
    assert outcome.margins[-1] == pytest.approx(0.4)
    # The round's re-benchmark is written as attempt 101, beside its guard run.
    [rebenchmark] = outcome.reports
    assert rebenchmark.report_locator.endswith("weakling/benchmark/attempt-101.json")
    assert (harness.reports_root / "verifications/weakling/execution/attempt-101.json").is_file()


def test_optimize_exhaustion_marks_review(tmp_path, harness, registry, commit_loop):
    package = bench_package(tmp_path / "pkgs", name="stubborn")
    register(registry, "stubborn", package_path="skills/stubborn")
    registry.set_verification(
        "stubborn",
        VerificationRecord(
            skill_id="stubborn", layer="execution", outcome="pass", attempt=1, cycle=1
        ),
    )
    case = scripted_case("c1", "0.52", "0.5")
    weak = harness.benchmark_compare(package, [case], "stubborn")
    assert weak.verdict == "fail"

    script = tmp_path / "script"
    write_mock(script, "layer2_optimize", "stubborn", 1, optimize_payload([]))
    gateway = Gateway(MockProvider(script))
    outcome = commit_loop(
        harness.optimize_loop, package, "stubborn", weak, budget=2, gateway=gateway, cases=[case]
    )
    assert outcome.outcome == "review"
    assert registry.skill("stubborn").status == "review"
    assert [r.verdict for r in outcome.reports] == ["fail", "fail"]


def test_optimize_never_writes_the_package_when_an_edit_breaks_smoke(
    tmp_path, harness, registry, commit_loop
):
    package = bench_package(tmp_path / "pkgs", name="fragile")
    register(registry, "fragile", package_path="skills/fragile")
    before = (package.root_path / "tests" / "smoke.py").read_text()
    case = scripted_case("c1", "0.52", "0.5")
    weak = harness.benchmark_compare(package, [case], "fragile")

    script = tmp_path / "script"
    write_mock(
        script,
        "layer2_optimize",
        "fragile",
        1,
        optimize_payload([{"path": "tests/smoke.py", "content": FAILING_SMOKE}]),
    )
    gateway = Gateway(MockProvider(script))
    with held_in_place(package, "SKILL.md"):
        outcome = commit_loop(
            harness.optimize_loop, package, "fragile", weak, budget=1, gateway=gateway, cases=[case]
        )
    assert outcome.outcome == "review"
    assert (package.root_path / "tests" / "smoke.py").read_text() == before


# -- case file loading ---------------------------------------------------------------


def test_load_benchmark_cases_inline_and_path_fixtures(tmp_path):
    (tmp_path / "extra.txt").write_text("fixture data\n")
    case_file = tmp_path / "benchmark.json"
    case_file.write_text(
        json.dumps(
            {
                "cases": [
                    {
                        "id": "c1",
                        "with_command": "python3 run.py",
                        "baseline_command": "python3 base.py",
                        "score_command": "python3 score.py",
                        "fixtures": {"inline.txt": "inline\n"},
                        "fixture_paths": ["extra.txt"],
                    }
                ]
            }
        )
    )
    cases = load_benchmark_cases(case_file)
    assert len(cases) == 1
    assert cases[0].fixtures["inline.txt"] == "inline\n"
    assert cases[0].fixtures["extra.txt"] == "fixture data\n"


GOOD_CASE = {
    "id": "c1",
    "with_command": "python3 run.py",
    "baseline_command": "python3 base.py",
    "score_command": "python3 score.py",
}


@pytest.mark.parametrize(
    "document, error, message",
    [
        ({"cases": [{**GOOD_CASE, "fixture_paths": ["../../outside.txt"]}]},
         PathEscapeError, "path escapes its root: ../../outside.txt"),
        ([GOOD_CASE], HarnessError, "expected an object whose cases are objects"),
        ({"cases": [{k: v for k, v in GOOD_CASE.items() if k != "with_command"}]},
         HarnessError, "case 1 needs id, with_command"),
        ({"cases": [{**GOOD_CASE, "fixture_paths": ["absent.txt"]}]},
         HarnessError, "case 1: fixture absent.txt: "),
    ],
    ids=["escaping-fixture", "not-an-object", "missing-with-command", "unreadable-fixture"],
)
def test_a_bad_benchmark_case_file_is_refused(tmp_path, document, error, message):
    (tmp_path / "outside.txt").write_text("not the package's\n")
    case_file = tmp_path / "pkg" / "tests" / "benchmark.json"
    case_file.parent.mkdir(parents=True)
    case_file.write_text(json.dumps(document))
    with pytest.raises(error) as excinfo:
        load_benchmark_cases(case_file)
    assert message in str(excinfo.value)


# -- report layouts ------------------------------------------------------------------


def _test_report(**kw):
    base = dict(skill_id="x", layer="execution", command="python3 tests/smoke.py", exit_status=0,
                duration_seconds=0.0, log_digest="ld", artifacts_digest="ad", verdict="pass")
    return harnessmod.TestReport(**{**base, **kw})


CYCLE_REPORT = CycleReport(
    cycle_index=4,
    stages=[StageOutcome("tree_check", "abc", 0.0, "ok")],
    skills_created=["s1"],
    skills_verified=["s1"],
    tree_edits=["split a"],
    notes=["n"],
)


# The on-disk layout of each report, byte for byte.
@pytest.mark.parametrize(
    "report, expected",
    [
        (
            _test_report(report_locator="reports/verifications/x/execution/attempt-1.json"),
            '{"artifacts_digest":"ad","command":"python3 tests/smoke.py","duration_seconds":0.0,'
            '"exit_status":0,"layer":"execution","log_digest":"ld","skill_id":"x","verdict":"pass"}',
        ),
        (
            _test_report(layer="system", exit_status=None, artifacts_digest="", verdict="fail",
                         rendered_submission="job-name=skill-x\n"),
            '{"artifacts_digest":"","command":"python3 tests/smoke.py","duration_seconds":0.0,'
            '"exit_status":null,"layer":"system","log_digest":"ld",'
            '"rendered_submission":"job-name=skill-x\\n","skill_id":"x","verdict":"fail"}',
        ),
        (
            SyntheticReport("x", {"inputs": {"reads": "exercised"}, "outputs": {"report": "observed"}},
                            "stable", ("d1", "d1")),
            '{"contract_coverage":{"inputs":{"reads":"exercised"},"outputs":{"report":"observed"}},'
            '"run_digests":["d1","d1"],"skill_id":"x","stability":"stable"}',
        ),
        (
            SyntheticReport("x", {"inputs": {}, "outputs": {}}, "unstable", ("", ""), error="boom"),
            '{"contract_coverage":{"inputs":{},"outputs":{}},"error":"boom","run_digests":["",""],'
            '"skill_id":"x","stability":"unstable"}',
        ),
        (
            harnessmod.BenchmarkReport(
                "x", [("c1", 0.9, 0.5)], 0.4, "pass",
                report_locator="reports/verifications/x/benchmark/attempt-1.json",
            ),
            '{"cases":[["c1",0.9,0.5]],"margin":0.4,"skill_id":"x","verdict":"pass"}',
        ),
        (
            CYCLE_REPORT,
            '{"cycle_index":4,"focus_branch":null,"notes":["n"],"skills_created":["s1"],'
            '"skills_removed":[],"skills_verified":["s1"],"stages":[{"digest":"abc",'
            '"duration_seconds":0.0,"stage":"tree_check","summary":"ok"}],"tree_edits":["split a"]}',
        ),
        (
            DesignReport("Align reads", None, "failed", True, ["design_skill"]),
            '{"resource_search_skipped":true,"skill_id":null,"status":"failed",'
            '"steps":["design_skill"],"task_prompt":"Align reads","verdict":null}',
        ),
        (
            TimingSummary({"refresh": {"count": 1, "mean_seconds": 0.5}}),
            '{"per_stage":{"refresh":{"count":1,"mean_seconds":0.5}}}',
        ),
    ],
    ids=["test-report", "test-report-with-submission", "synthetic", "synthetic-with-error",
         "benchmark", "cycle", "design", "timing"],
)
def test_report_layout_is_pinned(report, expected):
    assert canonical_json(report.to_record()) == expected


def test_a_cycle_report_loads_back_with_its_stage_outcomes():
    loaded = CycleReport.from_record(json.loads(canonical_json(CYCLE_REPORT.to_record())))
    assert loaded == CYCLE_REPORT
    assert isinstance(loaded.stages[0], StageOutcome)
