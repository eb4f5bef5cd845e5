"""Hierarchical validation: execution, synthetic, system, and benchmark layers.

Every validation run is hermetic: commands execute in a private sandbox
directory with a scrubbed environment and a wall-clock timeout, and nothing is
written outside the sandbox, the append-only report tree and the package that a
repair or an optimization edits. A run passes when its command exits 0 within
the harness ``timeout``. Every sandbox is ``ValidationHarness._sandbox``'s
fresh copy of the package at ``<base>/<skill-id>/<layer>/<name>/``, with the
run's files written over it; it is removed when its block ends, also by an
exception, unless ``keep_sandboxes`` is set. A package is never replaced: a
repair or an optimization writes into it, file by file, only edits that passed.
Runs for different skills share no path, so they may run at once on a
``validation_pool``.

No run writes the registry: the repair and optimize loops return what they
decided, and the outcome's ``commit`` records it. A caller that aborts before
it commits every outcome leaves the rest's edited packages, reports and
consumed provider calls, with no record pointing at them.
"""

from __future__ import annotations

import hashlib
import os
import re
import shutil
import subprocess
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from .contracts import (
    SkillPackage,
    resolve_smoke_target,
    tokenize_command,
)
from .errors import (
    HarnessError,
    NonNumericScoreError,
    NotApplicableError,
    PathEscapeError,
)
from .registry import Registry, VerificationRecord
from .util import (
    NOT_WRITTEN,
    OMIT_NONE,
    Record,
    atomic_write_text,
    dump_json_doc,
    file_manifest,
    is_escaping_relpath,
    normalize_output_bytes,
    read_bytes_at,
    sha256_hex,
    walk_files,
)

JOB_ID_VAR = "SF_JOB_ID"
JOB_NAME_VAR = "SF_JOB_NAME"
NTASKS_VAR = "SF_NTASKS"

DEFAULT_TIMEOUT = 5.0
DEFAULT_ADVANTAGE_THRESHOLD = 0.05

# The simulated batch scheduler: its task limit, default task count and queue.
MAX_TASKS = 8
DEFAULT_TASKS = 1
QUEUE = "standard"

_BASE_ENV = {
    "PATH": "/usr/local/bin:/usr/bin:/bin",
    "LC_ALL": "C",
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
    # Network denial is best-effort: proxies are disabled and no credentials
    # are passed through; enforcement depth is platform-dependent.
    "no_proxy": "*",
    "NO_PROXY": "*",
}


class _Judged(Record):
    """A written report whose verdict the registry records."""

    def verification_record(self, attempt: int, cycle: int) -> VerificationRecord:
        """The registry's record of this report. A verdict that is neither
        pass nor fail, a harness fault, is an error outcome."""
        return VerificationRecord(
            skill_id=self.skill_id,
            layer=self.layer,
            outcome=self.verdict if self.verdict in ("pass", "fail") else "error",
            attempt=attempt,
            report_locator=self.report_locator,
            cycle=cycle,
        )


@dataclass
class TestReport(_Judged):
    skill_id: str
    layer: str
    command: str
    exit_status: int | None
    duration_seconds: float
    log_digest: str
    artifacts_digest: str
    verdict: str
    rendered_submission: str | None = field(default=None, metadata=OMIT_NONE)
    # Where the report was written: known only once it is, so not in it.
    report_locator: str = field(default="", metadata=NOT_WRITTEN)


@dataclass
class SyntheticReport(Record):
    skill_id: str
    contract_coverage: dict
    stability: str
    run_digests: tuple[str, str]
    error: str | None = field(default=None, metadata=OMIT_NONE)

    layer = "synthetic"  # a class attribute, not a field, so not written

    @property
    def coverage_gaps(self) -> list[str]:
        inputs = self.contract_coverage.get("inputs", {})
        return sorted(name for name, state in inputs.items() if state == "ignored")

    @property
    def missing_outputs(self) -> list[str]:
        outputs = self.contract_coverage.get("outputs", {})
        return sorted(name for name, state in outputs.items() if state == "missing")

    @property
    def clean(self) -> bool:
        return (
            self.error is None
            and self.stability == "stable"
            and not self.coverage_gaps
            and not self.missing_outputs
        )


@dataclass
class BenchmarkReport(_Judged):
    skill_id: str
    cases: list[tuple[str, float, float]]  # (case id, with-skill score, baseline score)
    margin: float
    verdict: str  # pass when the margin reached the threshold it was judged by
    report_locator: str = field(default="", metadata=NOT_WRITTEN)

    layer = "benchmark"


@dataclass
class BenchmarkCase:
    case_id: str
    with_command: str
    baseline_command: str
    score_command: str
    fixtures: dict[str, str] = field(default_factory=dict)


@dataclass
class RepairOutcome:
    """What a repair decided: each attempt's report, attempt 1 first, and
    the status they lead to."""

    skill_id: str
    outcome: str  # repaired | removed
    attempts: int
    reports: list[TestReport] = field(default_factory=list)
    edited: bool = False  # a fix was applied, not rejected (it may edit nothing)

    def commit(self, registry: Registry, cycle: int, promote: bool = True) -> None:
        """Record attempts 2 and on (attempt 1 is the caller's): an edited
        untested skill becomes repaired, a pass verifies it if ``promote``,
        and a spent budget removes it."""
        if self.edited and registry.skill(self.skill_id).status == "untested":
            registry.transition_skill(self.skill_id, "repaired", cycle)
        for attempt, report in enumerate(self.reports[1:], start=2):
            registry.set_verification(
                self.skill_id, report.verification_record(attempt, cycle), promote=promote
            )
        if self.outcome == "removed":
            registry.transition_skill(self.skill_id, "removed", cycle)


@dataclass
class OptimizeOutcome:
    """What an optimization decided: each round's margin, its re-benchmarks,
    and whether the skill goes to review."""

    skill_id: str
    outcome: str  # optimized | review
    attempts: int
    margins: list[float] = field(default_factory=list)
    reports: list[BenchmarkReport] = field(default_factory=list)

    def commit(self, registry: Registry, cycle: int) -> None:
        """An exhausted optimization sends a verified skill to review."""
        if self.outcome == "review" and registry.skill(self.skill_id).status == "verified":
            registry.transition_skill(self.skill_id, "review", cycle)


def job_id_for(job_name: str) -> str:
    """The simulated scheduler's job id: a function of the job name."""
    seed = int.from_bytes(hashlib.sha256(job_name.encode("utf-8")).digest()[:4], "big")
    return str(10000 + seed % 90000)


def render_submission(job_name: str, command: str, ntasks: int) -> str:
    lines = [
        "# simulated batch submission",
        f"job-name={job_name}",
        f"ntasks={ntasks}",
        f"queue={QUEUE}",
        f"command={command}",
    ]
    return "\n".join(lines) + "\n"


_SCHEDULER_HINT = re.compile(r"(^scheduler\b|slurm)", re.IGNORECASE)
_NTASKS_HINT = re.compile(r"ntasks\s*=\s*(\d+)")


def needs_scheduler(package: SkillPackage) -> bool:
    contract = package.contract()
    return any(_SCHEDULER_HINT.search(a) for a in contract.environment_assumptions)


def requested_tasks(package: SkillPackage) -> int:
    contract = package.contract()
    for assumption in contract.environment_assumptions:
        match = _NTASKS_HINT.search(assumption)
        if match:
            return int(match.group(1))
    return DEFAULT_TASKS


def available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@contextmanager
def validation_pool(tasks: int) -> Iterator[ThreadPoolExecutor]:
    """A thread pool for subprocess-bound validation runs: one worker per
    available CPU, and no more workers than tasks.

    Leaving the block, also by an exception, cancels the tasks that have not
    started and waits for the running ones, so no validation thread outlives
    it.
    """
    pool = ThreadPoolExecutor(max_workers=max(1, min(available_cpus(), tasks)))
    try:
        yield pool
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


class ValidationHarness:
    def __init__(
        self,
        sandbox_root: str | Path,
        reports_root: str | Path,
        deterministic: bool = True,
        keep_sandboxes: bool = False,
        timeout: float = DEFAULT_TIMEOUT,
    ):
        self.sandbox_root = Path(sandbox_root)
        self.reports_root = Path(reports_root)
        self.deterministic = deterministic
        self.keep_sandboxes = keep_sandboxes
        # Bounds every sandboxed run.
        self.timeout = timeout

    # -- plumbing ---------------------------------------------------------------

    @contextmanager
    def _sandbox(
        self, package: SkillPackage, skill_id: str, layer: str, name: int | str,
        files: Sequence[tuple[str, str]] = (),
    ) -> Iterator[Path]:
        """A fresh copy of ``package`` at ``<skill>/<layer>/<name>/`` with
        ``files``, (relative path, text) pairs, written over it in order; an
        escaping path raises ``PathEscapeError`` before anything is copied.
        Leaving the block, also by an exception, removes it and the layer and
        skill directories it leaves empty, never the root, unless ``keep_sandboxes``."""
        for rel, _text in files:
            if is_escaping_relpath(rel):
                raise PathEscapeError(rel)
        path = self.sandbox_root / skill_id / layer / str(name)
        if path.exists():
            shutil.rmtree(path)
        try:
            shutil.copytree(package.root_path, path)
            for rel, text in files:
                atomic_write_text(path / rel, text)
            yield path
        finally:
            if not self.keep_sandboxes:
                shutil.rmtree(path, ignore_errors=True)
                # Another run of the same skill may still use a parent.
                for parent in (path.parent, path.parent.parent):
                    try:
                        parent.rmdir()
                    except OSError:
                        break

    def _run(
        self,
        argv: list[str],
        cwd: Path,
        extra_env: Mapping[str, str] | None = None,
    ) -> tuple[int | None, bytes, float]:
        env = dict(_BASE_ENV)
        env["HOME"] = str(cwd)
        if extra_env:
            env.update(extra_env)
        start = time.monotonic()
        try:
            completed = subprocess.run(
                argv,
                cwd=cwd,
                env=env,
                capture_output=True,
                timeout=self.timeout,
            )
            exit_status: int | None = completed.returncode
            log = completed.stdout + completed.stderr
        except subprocess.TimeoutExpired as exc:
            exit_status = None
            log = (exc.stdout or b"") + (exc.stderr or b"") + b"\n[timeout]"
        except FileNotFoundError as exc:
            raise HarnessError(f"command not found: {exc.filename}") from None
        duration = 0.0 if self.deterministic else time.monotonic() - start
        return exit_status, log, duration

    def _write_report(self, report: _Judged | SyntheticReport, attempt: int) -> str:
        """Write the report to ``verifications/<skill>/<layer>/attempt-<n>.json``
        under the report root; returns its locator in the library."""
        rel = Path("verifications") / report.skill_id / report.layer / f"attempt-{attempt}.json"
        atomic_write_text(self.reports_root / rel, dump_json_doc(report.to_record()))
        return (Path("reports") / rel).as_posix()

    def _report_without_run(
        self, skill_id: str, layer: str, command: str, message: str, verdict: str,
        attempt: int, submission: str | None = None,
    ) -> TestReport:
        """The written report of a validation that ran nothing: the digest of
        ``message``, which says why, stands in for the log's."""
        report = TestReport(
            skill_id=skill_id,
            layer=layer,
            command=command,
            exit_status=None,
            duration_seconds=0.0,
            log_digest=sha256_hex(message.encode("utf-8")),
            artifacts_digest="",
            verdict=verdict,
            rendered_submission=submission,
        )
        report.report_locator = self._write_report(report, attempt)
        return report

    def _report_of_run(
        self, skill_id: str, layer: str, command: str, run: tuple[int | None, bytes, float],
        sandbox: Path, attempt: int, submission: str | None = None,
    ) -> TestReport:
        """The written report of ``command``'s ``run`` (exit status, log,
        duration) in ``sandbox``: a pass is exit status 0."""
        exit_status, log, duration = run
        report = TestReport(
            skill_id=skill_id,
            layer=layer,
            command=command,
            exit_status=exit_status,
            duration_seconds=duration,
            log_digest=sha256_hex(normalize_output_bytes(log)),
            artifacts_digest=self._artifacts_digest(sandbox),
            verdict="pass" if exit_status == 0 else "fail",
            rendered_submission=submission,
        )
        report.report_locator = self._write_report(report, attempt)
        return report

    def _artifacts_digest(self, sandbox: Path) -> str:
        digest = hashlib.sha256()
        top = os.fspath(sandbox)
        for rel in walk_files(top):
            data = normalize_output_bytes(read_bytes_at(top, rel))
            digest.update(rel.encode("utf-8"))
            digest.update(b"\x00")
            digest.update(sha256_hex(data).encode("ascii"))
        return digest.hexdigest()

    # -- layer 1: execution -------------------------------------------------------

    def execution_test(
        self,
        package: SkillPackage,
        skill_id: str,
        attempt: int = 1,
        files: Sequence[tuple[str, str]] = (),
    ) -> TestReport:
        """Run the smoke target of ``package`` with ``files`` written over it in
        its sandbox under ``self.timeout``; error is reserved for harness faults."""
        return self._smoke_run(package, skill_id, "execution", attempt, files)

    def _smoke_run(
        self, package: SkillPackage, skill_id: str, layer: str, attempt: int,
        files: Sequence[tuple[str, str]], env: Mapping[str, str] | None = None,
        submission: str | None = None,
    ) -> TestReport:
        """The written report of the smoke target that the sandbox copy
        declares, run there: so an edit to ``skill.json`` among ``files``
        changes the command. No smoke target and a harness fault are errors."""
        with self._sandbox(package, skill_id, layer, attempt, files) as sandbox:
            smoke = resolve_smoke_target(SkillPackage(sandbox))
            if smoke is None:
                return self._report_without_run(
                    skill_id, layer, "", "[no smoke target]", "error", attempt, submission
                )
            try:
                run = self._run(tokenize_command(smoke), sandbox, env)
            except HarnessError as exc:
                return self._report_without_run(
                    skill_id, layer, smoke, str(exc), "error", attempt, submission
                )
            return self._report_of_run(skill_id, layer, smoke, run, sandbox, attempt, submission)

    def repair_loop(
        self,
        package: SkillPackage,
        skill_id: str,
        failing_report: TestReport,
        budget: int,
        gateway,
        registry: Registry | None = None,
        cycle: int = 0,
    ) -> RepairOutcome:
        """Fix-and-retest until the smoke target passes or the budget is spent.

        The budget counts execution attempts including the initial failure, so
        budget=3 allows at most two fix/retest rounds after the first fail.
        Each retest is an ``execution_test`` of ``package`` with every edit
        accepted so far, in order; only a pass writes them into ``package``.
        With ``registry``, the outcome is committed there and a pass verifies
        the skill.
        """
        if failing_report.verdict not in ("fail", "error"):
            raise HarnessError("repair_loop requires a failing or errored report")
        if budget < 1:
            raise HarnessError("repair budget must be >= 1")

        outcome = RepairOutcome(
            skill_id=skill_id, outcome="removed", attempts=1, reports=[failing_report]
        )
        last_log = f"verdict={failing_report.verdict} exit={failing_report.exit_status}"
        files: list[tuple[str, str]] = []
        while outcome.attempts < budget:
            response = gateway.call(
                "layer1_fix",
                {
                    "target_skill": skill_id,
                    "failure_log": last_log,
                    "MODE": "cycle",
                },
                key=skill_id,
            )
            edits = response.fields["edits"]
            outcome.attempts += 1
            attempt = outcome.attempts

            rejected = [e["path"] for e in edits if is_escaping_relpath(e["path"])]
            if rejected:
                # A rejected edit consumes the attempt without a rerun.
                message = f"edit rejected (path escape): {', '.join(rejected)}"
                report = self._report_without_run(
                    skill_id, "execution", failing_report.command, message, "error", attempt
                )
            else:
                files += [(edit["path"], edit["content"]) for edit in edits]
                outcome.edited = True
                report = self.execution_test(package, skill_id, attempt, files)
            outcome.reports.append(report)
            if report.verdict == "pass":
                for rel, text in files:
                    atomic_write_text(package.root_path / rel, text)
                outcome.outcome = "repaired"
                break
            last_log = (
                "previous edit rejected: path escaped the package root"
                if rejected
                else f"verdict={report.verdict} exit={report.exit_status}"
            )

        if registry is not None:
            outcome.commit(registry, cycle)
        return outcome

    # -- synthetic ------------------------------------------------------------------

    def synthetic_test(
        self,
        package: SkillPackage,
        skill_id: str,
        attempt: int = 1,
    ) -> SyntheticReport:
        """Invoke twice under fixed mock inputs, each input's default value;
        check coverage and stability."""
        contract = package.contract()

        command = None
        if contract.example_invocations:
            command = contract.example_invocations[0]
        elif contract.test_commands:
            command = contract.test_commands[0]
        if command is None:
            message = "no invocation available for synthetic testing"
            return self._synthetic_error(skill_id, contract, message, attempt)

        values = {item.name: self._default_value(item) for item in contract.inputs}
        input_coverage: dict[str, str] = {}
        try:
            digest_a, observed = self._synthetic_run(package, skill_id, command, values, "run-1")
            digest_b, _ = self._synthetic_run(package, skill_id, command, values, "run-2")
            for item in contract.inputs:
                if not item.required:
                    input_coverage[item.name] = "exercised"
                    continue
                perturbed = dict(values)
                perturbed[item.name] = self._perturb(values[item.name])
                digest_p, _ = self._synthetic_run(
                    package, skill_id, command, perturbed, f"ablate-{item.name}"
                )
                input_coverage[item.name] = "ignored" if digest_p == digest_a else "exercised"
        except HarnessError as exc:
            return self._synthetic_error(skill_id, contract, str(exc), attempt)

        stability = "stable" if digest_a == digest_b else "unstable"
        coverage = {
            "inputs": input_coverage,
            "outputs": {
                o.name: ("observed" if observed.get(o.name) else "missing")
                for o in contract.outputs
            },
        }
        report = SyntheticReport(
            skill_id=skill_id,
            contract_coverage=coverage,
            stability=stability,
            run_digests=(digest_a, digest_b),
        )
        self._write_report(report, attempt)
        return report

    def _synthetic_error(self, skill_id: str, contract, message: str, attempt: int):
        """The written report of a synthetic test that could not run."""
        coverage = {
            "inputs": {i.name: "ignored" for i in contract.inputs},
            "outputs": {o.name: "missing" for o in contract.outputs},
        }
        report = SyntheticReport(skill_id, coverage, "unstable", ("", ""), error=message)
        self._write_report(report, attempt)
        return report

    @staticmethod
    def _default_value(item) -> str:
        if item.kind == "file":
            return ""
        text = f"{item.name} {item.description}".lower()
        if "numeric" in text or "number" in text:
            return "0"
        return "synthetic"

    @staticmethod
    def _perturb(value: str) -> str:
        if value.isdigit():
            return str(int(value) + 1)
        return value + "-alt" if value else "alt"

    def _synthetic_run(
        self,
        package: SkillPackage,
        skill_id: str,
        command: str,
        values: Mapping[str, str],
        run_name: str,
    ) -> tuple[str, dict[str, bool]]:
        contract = package.contract()
        files = [(f"inputs/{i.name}", values[i.name]) for i in contract.inputs if i.kind == "file"]
        substitutions = {
            i.name: f"inputs/{i.name}" if i.kind == "file" else values[i.name]
            for i in contract.inputs
        }
        rendered = command
        for name, value in substitutions.items():
            rendered = rendered.replace("{" + name + "}", value)
        argv = tokenize_command(rendered)

        with self._sandbox(package, skill_id, "synthetic", run_name, files) as sandbox:
            before = file_manifest(sandbox)
            exit_status, log, _duration = self._run(argv, sandbox)
            if exit_status is None:
                raise HarnessError(f"synthetic invocation timed out: {rendered}")

            after = file_manifest(sandbox)
            changed: list[tuple[str, str]] = []
            for rel in sorted(after):
                if rel.startswith("inputs/"):
                    continue
                if before.get(rel) != after[rel]:
                    normalized = sha256_hex(normalize_output_bytes((sandbox / rel).read_bytes()))
                    changed.append((rel, normalized))

            digest = hashlib.sha256()
            digest.update(str(exit_status).encode("ascii"))
            digest.update(sha256_hex(normalize_output_bytes(log)).encode("ascii"))
            for rel, content_hash in changed:
                digest.update(rel.encode("utf-8"))
                digest.update(content_hash.encode("ascii"))

            observed: dict[str, bool] = {}
            for output in contract.outputs:
                if output.kind == "stream":
                    observed[output.name] = bool(log.strip())
                else:
                    observed[output.name] = (sandbox / output.name).is_file()
            return digest.hexdigest(), observed

    # -- system ---------------------------------------------------------------------

    def system_test(
        self,
        package: SkillPackage,
        skill_id: str,
    ) -> TestReport:
        """Render a batch submission and execute it on the simulated backend,
        as attempt 1."""
        if not needs_scheduler(package):
            raise NotApplicableError(
                f"package for {skill_id} declares no scheduler-dependent assumption"
            )
        smoke = resolve_smoke_target(package)
        if smoke is None:
            raise NotApplicableError(f"package for {skill_id} has no test command to submit")

        ntasks = requested_tasks(package)
        job_name = f"skill-{skill_id}"
        submission = render_submission(job_name, smoke, ntasks)

        if ntasks > MAX_TASKS:
            message = f"queue rejection: ntasks={ntasks} exceeds max={MAX_TASKS}"
            return self._report_without_run(
                skill_id, "system", smoke, message, "fail", 1, submission
            )

        env = {JOB_ID_VAR: job_id_for(job_name), JOB_NAME_VAR: job_name, NTASKS_VAR: str(ntasks)}
        files = [("submission.txt", submission)]
        return self._smoke_run(package, skill_id, "system", 1, files, env, submission)

    # -- layer 2: benchmark -------------------------------------------------------------

    def benchmark_compare(
        self,
        package: SkillPackage,
        cases: Sequence[BenchmarkCase],
        skill_id: str,
        attempt: int = 1,
        threshold: float = DEFAULT_ADVANTAGE_THRESHOLD,
    ) -> BenchmarkReport:
        """Run with-skill and baseline arms per case and average the margin;
        the verdict is pass when the margin reaches ``threshold``."""
        if not cases:
            raise HarnessError("benchmark_compare requires at least one case")
        seen = set()
        for case in cases:
            if case.case_id in seen:
                raise HarnessError(f"duplicate benchmark case id: {case.case_id}")
            seen.add(case.case_id)

        rows: list[tuple[str, float, float]] = []
        for case in cases:
            with_score = self._run_arm(package, skill_id, case, "with", case.with_command)
            base_score = self._run_arm(package, skill_id, case, "baseline", case.baseline_command)
            rows.append((case.case_id, with_score, base_score))

        margin = sum(w - b for _case, w, b in rows) / len(rows)
        verdict = "fail" if margin < threshold else "pass"
        report = BenchmarkReport(skill_id=skill_id, cases=rows, margin=margin, verdict=verdict)
        report.report_locator = self._write_report(report, attempt)
        return report

    def _run_arm(
        self,
        package: SkillPackage,
        skill_id: str,
        case: BenchmarkCase,
        arm: str,
        command: str,
    ) -> float:
        name, fixtures = f"{case.case_id}-{arm}", list(case.fixtures.items())
        with self._sandbox(package, skill_id, "benchmark", name, fixtures) as sandbox:
            exit_status, _log, _d = self._run(tokenize_command(command), sandbox)
            if exit_status != 0:
                # A crashed arm scores zero for that arm; this is data, not an error.
                return 0.0

            score_exit, score_log, _d = self._run(tokenize_command(case.score_command), sandbox)
        text = score_log.decode("utf-8", errors="replace").strip().split()
        if score_exit != 0 or not text:
            raise NonNumericScoreError(
                f"case {case.case_id} arm {arm}: scoring command produced no score"
            )
        try:
            score = float(text[0])
        except ValueError:
            raise NonNumericScoreError(
                f"case {case.case_id} arm {arm}: non-numeric score {text[0]!r}"
            ) from None
        if not 0.0 <= score <= 1.0:
            raise NonNumericScoreError(
                f"case {case.case_id} arm {arm}: score {score} outside [0, 1]"
            )
        return score

    def optimize_loop(
        self,
        package: SkillPackage,
        skill_id: str,
        weak_report: BenchmarkReport,
        budget: int,
        gateway,
        cases: Sequence[BenchmarkCase],
        registry: Registry | None = None,
        cycle: int = 0,
        threshold: float = DEFAULT_ADVANTAGE_THRESHOLD,
    ) -> OptimizeOutcome:
        """Revise and re-benchmark; exhaustion leads to review, not removal.
        Round n's guard run and re-benchmark are written as attempt 100+n.
        With ``registry``, the outcome is committed there."""
        if weak_report.margin >= threshold:
            raise HarnessError("optimize_loop requires a weak benchmark report")
        if budget < 1:
            raise HarnessError("optimize budget must be >= 1")

        outcome = OptimizeOutcome(skill_id=skill_id, outcome="review", attempts=budget)
        for attempt in range(1, budget + 1):
            response = gateway.call(
                "layer2_optimize",
                {
                    "target_skill": skill_id,
                    "benchmark_results": f"margin={weak_report.margin:.4f}",
                },
                key=skill_id,
            )
            actions = [(a["path"], a["content"]) for a in response.fields["actions"]]
            if any(is_escaping_relpath(rel) for rel, _text in actions):
                outcome.margins.append(weak_report.margin)
                continue
            guard = self.execution_test(package, skill_id, 100 + attempt, actions)
            if guard.verdict != "pass":
                # The optimization broke the smoke surface; the package keeps none of it.
                outcome.margins.append(weak_report.margin)
                continue
            for rel, text in actions:
                atomic_write_text(package.root_path / rel, text)

            report = self.benchmark_compare(package, cases, skill_id, 100 + attempt, threshold)
            outcome.reports.append(report)
            outcome.margins.append(report.margin)
            if report.verdict == "pass":
                outcome.outcome, outcome.attempts = "optimized", attempt
                break
            weak_report = report

        if registry is not None:
            outcome.commit(registry, cycle)
        return outcome


def load_benchmark_cases(path: Path) -> list[BenchmarkCase]:
    """Read the external benchmark case file format. ``fixture_paths`` are
    read relative to the case file's directory; one that resolves outside it
    raises ``PathEscapeError``, and any other malformed or unreadable input
    raises ``HarnessError``."""
    import json

    def unreadable(detail) -> HarnessError:
        return HarnessError(f"unreadable benchmark case file {path}: {detail}")

    try:
        document = json.loads(path.read_text("utf-8"))
    except (OSError, ValueError) as exc:  # JSON and UTF-8 errors are ValueErrors
        raise unreadable(exc) from None
    rows = document.get("cases", []) if isinstance(document, dict) else None
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise unreadable("expected an object whose cases are objects")
    base = path.parent.resolve()
    cases = []
    for number, row in enumerate(rows, start=1):
        texts = [row.get(key) for key in ("id", "with_command", "baseline_command", "score_command")]
        fixtures, sources = row.get("fixtures", {}), row.get("fixture_paths", [])
        if not (
            all(isinstance(text, str) for text in texts)
            and isinstance(fixtures, dict)
            and all(isinstance(text, str) for text in fixtures.values())
            and isinstance(sources, list)
            and all(isinstance(src, str) for src in sources)
        ):
            raise unreadable(
                f"case {number} needs id, with_command, baseline_command and score_command "
                "strings, fixtures mapping names to text and fixture_paths listing paths"
            )
        fixtures = dict(fixtures)
        for src in sources:
            source = (base / src).resolve()
            if not source.is_relative_to(base):
                raise PathEscapeError(src)
            try:
                fixtures[Path(src).name] = source.read_text("utf-8")
            except (OSError, ValueError) as exc:
                raise unreadable(f"case {number}: fixture {src}: {exc}") from None
        cases.append(BenchmarkCase(*texts, fixtures=fixtures))
    return cases
