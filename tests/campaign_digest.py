"""Print the library and site digests of acceptance criterion 1's campaign,
and the digest of a validation scenario that criterion 1 never runs.

Runs the deterministic mock campaign of ``test_criterion_1_deterministic_mock_campaign``
once, in a temporary directory, against the ``src/`` of the checkout that
holds this file, and prints the two digests that the criterion compares
between runs. Criterion 1's script has no ``layer1_fix`` or
``layer2_optimize`` response, so a third line digests the packages and
reports of repairs (a pass, a pass through an edited ``skill.json``, a
rejected edit then a pass, an exhausted budget) and optimizations (a pass,
a guard failure, an exhausted budget). A change that keeps every byte
prints the same three lines as its parent; run it in each checkout and
compare:

    python3 tests/campaign_digest.py

The file name does not match pytest's ``test_*.py`` pattern, so the suite
does not collect it.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from conftest import (  # noqa: E402
    FAILING_SMOKE,
    FIXTURES,
    PASSING_SMOKE,
    make_engine,
    make_failing_package,
    passing_contract,
    write_mock,
)
from skillmine.contracts import compile_package, render_metadata  # noqa: E402
from skillmine.gateway import Gateway, MockProvider  # noqa: E402
from skillmine.harness import BenchmarkCase, ValidationHarness  # noqa: E402
from skillmine.site import export_site  # noqa: E402
from skillmine.util import digest_dir, dump_json_doc  # noqa: E402
from skillmine.workers import CampaignConfig, run_campaign  # noqa: E402

RETARGETED = dump_json_doc(render_metadata(passing_contract(test_commands=("python3 tests/ok.py",))))

# Per repaired skill, the edits of each fix in turn.
REPAIRS = {
    "fixed": [[("tests/smoke.py", PASSING_SMOKE)]],
    "retargeted": [[("skill.json", RETARGETED), ("tests/ok.py", PASSING_SMOKE)]],
    "escapee": [[("../../skills.ndjson", "tamper")], [("tests/smoke.py", PASSING_SMOKE)]],
    "hopeless": [[("tests/smoke.py", FAILING_SMOKE)], [("scripts/extra.txt", "x\n")]],
}

# Per optimized skill, the actions of each round in turn, and the budget.
OPTIMIZATIONS = {
    "tuned": ([[("scripts/tuned.txt", "tuned\n")]], 2),
    "fragile": ([[("tests/smoke.py", FAILING_SMOKE)]], 1),
    "stubborn": ([[], [("scripts/notes.txt", "no gain\n")]], 2),
}

# Scores 0.9 with the skill once scripts/tuned.txt exists, 0.5 otherwise.
CASE = BenchmarkCase(
    case_id="c1",
    with_command="python3 -c \"open('with.txt','w').write('x')\"",
    baseline_command="python3 -c \"print('base')\"",
    score_command=(
        "python3 -c \"from pathlib import Path; "
        "print('0.9' if Path('scripts/tuned.txt').exists() and Path('with.txt').exists() "
        "else '0.5')\""
    ),
)


def validation_digest(work: Path) -> str:
    """Run every repair and optimization above; digest packages and reports."""
    harness = ValidationHarness(work / "sandbox", work / "reports")
    script = work / "script"
    for skill_id, fixes in REPAIRS.items():
        for n, edits in enumerate(fixes, start=1):
            edits = [{"path": path, "content": text} for path, text in edits]
            write_mock(script, "layer1_fix", skill_id, n,
                       {"diagnosis": "broken", "edits": edits, "retest": True})
        package = make_failing_package(work / "pkgs", name=skill_id)
        failing = harness.execution_test(package, skill_id)
        harness.repair_loop(package, skill_id, failing, 3, Gateway(MockProvider(script)))
    for skill_id, (rounds, budget) in OPTIMIZATIONS.items():
        for n, actions in enumerate(rounds, start=1):
            actions = [{"path": path, "content": text} for path, text in actions]
            write_mock(script, "layer2_optimize", skill_id, n,
                       {"actions": actions, "rebenchmark": True})
        package = compile_package(
            passing_contract(), {"tests/smoke.py": PASSING_SMOKE}, work / "pkgs" / skill_id
        )
        weak = harness.benchmark_compare(package, [CASE], skill_id)
        harness.optimize_loop(
            package, skill_id, weak, budget, Gateway(MockProvider(script)), [CASE]
        )
    return digest_dir(work, exclude=("script", "sandbox"))


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "library"
        engine = make_engine(
            root, FIXTURES / "scripts" / "campaign", catalogs=(FIXTURES / "catalog_hub.ndjson",)
        )
        config = CampaignConfig(
            campaign_id="acceptance",
            branch_schedule=("science/genomics", "science/imaging"),
            cycles_per_branch=2,
        )
        report = run_campaign(engine, config)
        if report.status != "completed":
            print(f"campaign {report.status}", file=sys.stderr)
            return 1
        export_site(engine.registry, engine.tree, root / "site")
        print(f"library {digest_dir(root, exclude=('LOCK', 'workspaces', 'sandbox'))}")
        print(f"site {digest_dir(root / 'site')}")
        print(f"validation {validation_digest(Path(tmp) / 'validation')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
