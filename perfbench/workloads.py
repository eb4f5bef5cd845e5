"""The measured side of a benchmark run: one workload, one closed-loop caller.

``run.py`` starts this file in a fresh process per run, so set-up time and
peak memory belong to that workload alone. It repeats whole rounds of the
workload's fixed operations until the run's time is spent, times them, and
writes what it saw to a JSON file. It checks nothing itself: the checks run
in the parent after this process has exited, so their memory and time stay
out of the figures.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

from skillmine.cli import main as cli_main
from skillmine.config import EngineConfig
from skillmine.pipeline import Pipeline
from skillmine.workers import CampaignConfig, run_campaign

clock = time.perf_counter

FRESH_SETUP_BATCH = 8  # fresh initializations per setup sample (each is ~15 ms)
FRESH_SETUP_SAMPLES = 5
GROWN_SETUP_SAMPLES = 3
EVAL_BATCH = 16  # evaluate every pending skill in the phase after its cycle


def engine_config(plan: dict, lib: Path) -> EngineConfig:
    return EngineConfig(
        registry_root=lib,
        provider="mock",
        script_dir=Path(plan["scripts"]),
        catalogs=(Path(plan["catalog"]),),
        focus_k=max(3, plan["focus_k"]),
    )


def read_commands(plan: dict, lib: Path, work: Path, targets, campaign_id: str) -> list[list[str]]:
    """The read-only CLI commands of one read pass over a library."""
    config = work / "engine.conf"
    config.write_text(f"catalogs = {plan['catalog']}\n", "utf-8")
    common = ["--registry", str(lib), "--config", str(config),
              "--provider", "mock", "--script", plan["scripts"]]
    reads = [common + ["status"]]
    reads += [common + ["novelty", sid] for sid in sorted(targets)]
    reads.append(common + ["export-site", str(work / "site-export")])
    reads.append(common + ["campaign", "resume", campaign_id])
    return reads


def run_reads(commands: list[list[str]]) -> list[dict]:
    """Each command runs through the CLI entry point, opening the library anew."""
    outputs = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        start = clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli_main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code
        outputs.append({"argv": argv[argv.index("--script") + 2:], "code": code,
                        "seconds": clock() - start,
                        "stdout": out.getvalue(), "stderr": err.getvalue()})
    return outputs


class Runner:
    def __init__(self, plan: dict, work: Path):
        self.plan = plan
        self.work = work
        self.samples: list[float] = []  # set-up times


class Mining(Runner):
    """A round: design requests, then the campaign, then the read passes."""

    campaign_id = ""

    def engine(self, index: int) -> tuple[Pipeline, Path]:
        raise NotImplementedError

    def round(self, index: int) -> dict:
        pipeline, lib = self.engine(index)
        designs, design_s, failed = [], [], 0
        for design in self.plan["designs"]:
            start = clock()
            try:
                report = pipeline.design_skill(design["prompt"])
                designs.append({"skill_id": report.skill_id, "status": report.status,
                                "verdict": report.verdict})
            except Exception as exc:  # a failed operation; the parent reports it
                failed += 1
                designs.append({"error": f"{type(exc).__name__}: {exc}"})
            design_s.append(clock() - start)

        cycles: list[float] = []
        run_cycle = pipeline.run_cycle

        def timed_cycle(*args, **kwargs):
            start = clock()
            try:
                return run_cycle(*args, **kwargs)
            finally:
                cycles.append(clock() - start)

        pipeline.run_cycle = timed_cycle
        campaign = CampaignConfig(campaign_id=self.campaign_id,
                                  branch_schedule=tuple(self.plan["branches"]),
                                  cycles_per_branch=1, eval_batch_size=EVAL_BATCH)
        gc.collect()
        start = clock()
        report = run_campaign(pipeline, campaign)
        campaign_s = clock() - start
        phases = report.phases
        failed += sum(1 for p in phases if p["kind"].endswith("-failed"))

        # The read commands open the library anew, as separate CLI processes
        # would; the mining engine's heap would only slow their collections.
        del pipeline, run_cycle, timed_cycle
        gc.collect()
        round_dir = lib.parent
        commands = read_commands(self.plan, lib, round_dir, self.plan["mined_reads"], self.campaign_id)
        start = clock()
        reads = [read for _ in range(self.plan["read_passes"]) for read in run_reads(commands)]
        reads_s = clock() - start
        failed += sum(1 for r in reads if r["code"] != 0)
        return {"library": str(lib), "export": str(round_dir / "site-export"),
                "campaign": {"status": report.status, "phases": phases},
                "campaign_s": campaign_s, "cycle_s": cycles,
                "designs": designs, "design_s": design_s, "reads": reads, "reads_s": reads_s,
                "work_s": campaign_s + sum(design_s) + reads_s,
                "ops": len(designs) + len(phases) + len(reads), "failed": failed}


class MineFresh(Mining):
    """Empty library, seeded taxonomy, multi-branch campaign."""

    campaign_id = "fresh"

    def __init__(self, plan: dict, work: Path):
        super().__init__(plan, work)
        self.taxonomy = Path(plan["taxonomy"]).read_text("utf-8")

    def setup_samples(self) -> list[float]:
        for sample in range(FRESH_SETUP_SAMPLES + 1):  # the first one warms up
            roots = [self.work / "setup" / f"{sample}-{j}" for j in range(FRESH_SETUP_BATCH)]
            start = clock()
            for root in roots:
                Pipeline.initialize(engine_config(self.plan, root), self.taxonomy)
            elapsed = clock() - start
            shutil.rmtree(self.work / "setup")
            if sample:
                self.samples.append(elapsed / FRESH_SETUP_BATCH)
        return self.samples

    def engine(self, index: int) -> tuple[Pipeline, Path]:
        lib = self.work / f"round-{index}" / "library"
        return Pipeline.initialize(engine_config(self.plan, lib), self.taxonomy), lib


class Grown(Runner):
    """Opening and copying the pre-grown library."""

    def open(self, lib: Path) -> Pipeline:
        """Open the library and load the catalogs: one set-up sample."""
        start = clock()
        pipeline = Pipeline(engine_config(self.plan, lib))
        pipeline.external_catalogs()
        self.samples.append(clock() - start)
        return pipeline

    def copy(self, dest: Path) -> Path:
        shutil.copytree(self.plan["library"], dest, symlinks=True)
        return dest


class MineGrown(Grown, Mining):
    """Design requests and a campaign on top of the grown library."""

    campaign_id = "grow"

    def setup_samples(self) -> list[float]:
        lib = self.copy(self.work / "round-0" / "library")
        for _ in range(GROWN_SETUP_SAMPLES + 1):  # the first one warms up
            self.first = self.open(lib)
        return self.samples[1:]

    def engine(self, index: int) -> tuple[Pipeline, Path]:
        lib = self.work / f"round-{index}" / "library"
        if index == 0:
            first, self.first = self.first, None
            return first, lib
        return self.open(self.copy(lib)), lib


class BrowseGrown(Grown):
    """Read-only CLI commands against the grown library."""

    def setup_samples(self) -> list[float]:
        self.lib = self.copy(self.work / "library")
        for _ in range(GROWN_SETUP_SAMPLES + 1):
            self.open(self.lib)
        self.commands = read_commands(self.plan, self.lib, self.work, self.plan["read_targets"],
                                      self.plan["checkpoint_campaign"])
        return self.samples[1:]

    def round(self, index: int) -> dict:
        start = clock()
        reads = run_reads(self.commands)
        elapsed = clock() - start
        return {"library": str(self.lib), "export": str(self.work / "site-export"),
                "reads": reads, "reads_s": elapsed, "work_s": elapsed, "ops": len(reads),
                "failed": sum(1 for r in reads if r["code"] != 0)}


WORKLOADS = {"mine-fresh": MineFresh, "mine-grown": MineGrown, "browse-grown": BrowseGrown}


def measure(workload: str, plan: dict, work: Path, seconds: float, trace: bool) -> dict:
    """Set up, then run rounds until ``seconds`` is spent; traced rounds alternate
    with untraced ones when ``trace`` is set."""
    start = clock()
    runner = WORKLOADS[workload](plan, work)
    setup = runner.setup_samples()
    tracer = None
    if trace:
        from spans import Tracer, read_io

        tracer = Tracer()
    rounds: list[dict] = []
    layer_rounds: list[dict] = []
    longest = 0.0
    while True:
        index = len(rounds)
        traced = tracer is not None and index % 2 == 1
        gc.collect()  # every round starts from the same heap state
        if traced:
            first = len(tracer.spans)
            tracer.install()
            io_before = read_io()
        began = clock()
        try:
            result = runner.round(index)
        finally:
            if traced:
                tracer.uninstall()
        longest = max(longest, clock() - began)
        result["traced"] = traced
        if traced:
            io_after = read_io()
            layer = tracer.summarize(first)
            layer["metrics"]["io.read_mb"] = (io_after[0] - io_before[0]) / 1e6
            layer["metrics"]["io.written_mb"] = (io_after[1] - io_before[1]) / 1e6
            layer_rounds.append(layer)
        rounds.append(result)
        enough = not trace or len(rounds) >= 2
        # Start another round only if it would end at most half a round late.
        if enough and clock() - start + longest / 2 > seconds:
            break
    output = {
        "setup_s": setup,
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        output["layers"] = layer_rounds
        output["hits"] = tracer.hits
        output["spans"] = len(tracer.spans)
        trace_file = work / "spans.ndjson"
        tracer.write(trace_file)
        output["trace_file"] = str(trace_file)
    return output


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--plan", type=Path, required=True, help="manifest written by gen.py")
    parser.add_argument("--work", type=Path, required=True, help="scratch directory for this run")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    plan = json.loads(args.plan.read_text("utf-8"))
    output = measure(args.workload, plan, args.work, args.seconds, bool(args.trace))
    args.out.write_text(json.dumps(output), "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
