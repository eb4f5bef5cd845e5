"""Shared fixtures: engine builders, mock scripts, and canned skill packages."""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import replace
from pathlib import Path

import pytest

from skillmine.config import EngineConfig
from skillmine.contracts import (
    ContractInput,
    ContractOutput,
    SkillContract,
    compile_package,
)
from skillmine.harness import ValidationHarness
from skillmine.novelty import filesystem_time
from skillmine.pipeline import Pipeline

FIXTURES = Path(__file__).parent / "fixtures"

MINI_TAXONOMY = (FIXTURES / "taxonomy_mini.txt").read_text("utf-8")


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def mini_taxonomy() -> str:
    return MINI_TAXONOMY


def write_mock(script_dir: Path, stage: str, key: str, n: int, payload: dict) -> Path:
    script_dir.mkdir(parents=True, exist_ok=True)
    path = script_dir / f"{stage}__{key}__{n}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def make_engine(
    root: Path,
    script_dir: Path,
    taxonomy: str = MINI_TAXONOMY,
    **overrides,
) -> Pipeline:
    config = EngineConfig(registry_root=root, provider="mock", script_dir=script_dir)
    config = replace(config, **overrides)
    return Pipeline.initialize(config, taxonomy)


@pytest.fixture
def campaign_script(fixtures_dir: Path) -> Path:
    return fixtures_dir / "scripts" / "campaign"


@pytest.fixture
def design_script(fixtures_dir: Path) -> Path:
    return fixtures_dir / "scripts" / "design"


@pytest.fixture
def harness(tmp_path: Path) -> ValidationHarness:
    return ValidationHarness(
        sandbox_root=tmp_path / "sandbox",
        reports_root=tmp_path / "reports",
        deterministic=True,
    )


# -- canned packages --------------------------------------------------------------

PASSING_SMOKE = """\
from pathlib import Path

Path("out").mkdir(exist_ok=True)
Path("out/result.txt").write_text("constant\\n")
print("ok")
"""

FAILING_SMOKE = """\
import sys

print("broken on purpose")
sys.exit(1)
"""

SLOW_SMOKE = """\
import time

time.sleep(5)
print("done")
"""


def passing_contract(**overrides) -> SkillContract:
    base = dict(
        task_scope="Render a constant result file for smoke checks",
        inputs=(),
        outputs=(ContractOutput(name="out/result.txt", description="constant", kind="file"),),
        environment_assumptions=("python3 on PATH",),
        execution_steps=("Run tests/smoke.py to produce out/result.txt",),
        provenance_links=("res-fixture",),
        example_invocations=("python3 tests/smoke.py",),
        test_commands=("python3 tests/smoke.py",),
    )
    base.update(overrides)
    return SkillContract(**base)


def make_passing_package(root: Path, name: str = "fixture-pass"):
    return compile_package(
        passing_contract(), {"tests/smoke.py": PASSING_SMOKE}, root / name, name=name
    )


def make_failing_package(root: Path, name: str = "fixture-fail"):
    return compile_package(
        passing_contract(), {"tests/smoke.py": FAILING_SMOKE}, root / name, name=name
    )


def make_timeout_package(root: Path, name: str = "fixture-slow"):
    return compile_package(
        passing_contract(), {"tests/smoke.py": SLOW_SMOKE}, root / name, name=name
    )


TIMESTAMP_SCRIPT = """\
import time
from pathlib import Path

Path("out").mkdir(exist_ok=True)
Path("out/result.txt").write_text(f"stamp={time.time_ns()}\\n")
print("stamped")
"""

CONSTANT_SCRIPT = """\
from pathlib import Path

Path("out").mkdir(exist_ok=True)
Path("out/result.txt").write_text("stamp=fixed\\n")
print("stamped")
"""


def make_timestamp_package(root: Path, deterministic: bool, name: str | None = None):
    name = name or ("fixture-stable" if deterministic else "fixture-unstable")
    contract = passing_contract(
        task_scope="Write a stamp file for stability checks",
        example_invocations=("python3 scripts/run.py",),
        test_commands=("python3 scripts/run.py",),
        execution_steps=("Run scripts/run.py to write out/result.txt",),
    )
    script = CONSTANT_SCRIPT if deterministic else TIMESTAMP_SCRIPT
    return compile_package(contract, {"scripts/run.py": script}, root / name, name=name)


IGNORED_INPUT_SCRIPT = """\
import sys
from pathlib import Path

data = Path(sys.argv[1]).read_text() if len(sys.argv) > 1 else ""
# sys.argv[2] (mode) is deliberately ignored.
Path("out").mkdir(exist_ok=True)
Path("out/result.txt").write_text(f"bytes={len(data)}\\n")
print(f"bytes={len(data)}")
"""


def make_ignored_input_package(root: Path, name: str = "fixture-ignored-input"):
    contract = SkillContract(
        task_scope="Summarize input bytes while honoring a processing mode switch",
        inputs=(
            ContractInput(name="data", description="input payload", required=True, kind="file"),
            ContractInput(name="mode", description="processing mode", required=True, kind="argument"),
        ),
        outputs=(ContractOutput(name="out/result.txt", description="byte count", kind="file"),),
        environment_assumptions=("python3 on PATH",),
        execution_steps=("Run scripts/run.py on {data} with {mode}",),
        provenance_links=("res-fixture",),
        example_invocations=("python3 scripts/run.py {data} {mode}",),
        test_commands=("python3 scripts/run.py README.txt plain",),
    )
    return compile_package(
        contract,
        {"scripts/run.py": IGNORED_INPUT_SCRIPT, "examples/README.txt": "sample\n"},
        root / name,
        name=name,
    )


SCHEDULER_SCRIPT = """\
import os
import sys

job_id = os.environ.get("SF_JOB_ID")
if not job_id:
    print("missing job id", file=sys.stderr)
    sys.exit(2)
print(f"running as job {job_id} with {os.environ.get('SF_NTASKS')} tasks")
"""


def make_scheduler_package(root: Path, ntasks: int = 2, name: str = "fixture-sched"):
    contract = passing_contract(
        task_scope="Exercise the batch scheduler submission path",
        environment_assumptions=(f"scheduler: slurm ntasks={ntasks}",),
        example_invocations=("python3 scripts/job.py",),
        test_commands=("python3 scripts/job.py",),
        execution_steps=("Submit scripts/job.py through the scheduler adapter",),
    )
    return compile_package(contract, {"scripts/job.py": SCHEDULER_SCRIPT}, root / name, name=name)


def copy_tree(source: Path, dest: Path) -> None:
    shutil.copytree(source, dest)


def settle_library_clock(library: Path) -> None:
    """Wait on the real clock until the library's filesystem time is past the
    ctime of every ``skill.json`` under ``skills/``, so that the next scan
    records keys it may trust. Makes the ``sandbox/`` the probe needs."""
    sandbox = library / "sandbox"
    sandbox.mkdir(exist_ok=True)
    newest = max(os.stat(p).st_ctime_ns for p in (library / "skills").rglob("skill.json"))
    while filesystem_time(str(sandbox)) <= newest:
        time.sleep(0.001)
