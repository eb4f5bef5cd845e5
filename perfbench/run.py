"""Benchmark entry point: generate inputs, measure one workload, check, report.

    python3 perfbench/run.py --workload mine-fresh --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout. It generates the workload's inputs
from ``--seed``, measures the workload in a fresh child process
(``workloads.py``) for about ``--seconds`` seconds, checks the engine's
outputs against results computed here without the engine, and prints one
JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from a traced run (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT = 170.0
TRACES_KEPT = 12

WORKLOADS = ("mine-fresh", "mine-grown", "browse-grown")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def tree_bytes(root: Path) -> int:
    return sum(f.stat().st_size for f in root.rglob("*") if f.is_file())


# -- checks ----------------------------------------------------------------------


class Checker:
    """Compares one run's engine outputs with independently computed results."""

    def __init__(self, manifest: dict):
        from oracle import NoveltyOracle

        self.manifest = manifest
        self.problems: list[str] = []
        external = [("hub", ref, task, scope) for ref, task, scope in manifest["catalog_entries"]]
        self.oracle = NoveltyOracle(external)
        self._decisions: dict[str, str] = {}

    def problem(self, text: str) -> None:
        if len(self.problems) < 50:
            self.problems.append(text)

    def expect(self, condition: bool, text: str) -> None:
        if not condition:
            self.problem(text)

    def mined(self) -> list[dict]:
        """Planted candidates plus designed skills: everything a round adds."""
        return self.manifest["planted"] + self.manifest["designs"]

    def decision(self, sid: str, rows: list[tuple]) -> str:
        """Oracle decision for skill ``sid`` against every other (id, task, scope) row."""
        if sid not in self._decisions:
            row = next(r for r in rows if r[0] == sid)
            self._decisions[sid] = self.oracle.decide(row[1], row[2], [r for r in rows if r[0] != sid])
        return self._decisions[sid]

    def library(self, lib: Path) -> dict:
        """Checks every workload's library must pass; returns the log replay."""
        from oracle import replay_library
        from skillmine.registry import open_registry

        registry = open_registry(lib)
        violations = registry.integrity_check(registry.load_tree_snapshot())
        self.expect(not violations, f"integrity_check: {violations[:3]}")
        replay = replay_library(lib, self.manifest["domains"], self.manifest["subdomains"])
        self.expect(not replay["verified_without_pass"],
                    f"verified without a passing execution record: {replay['verified_without_pass'][:3]}")
        return replay

    def exported_stats(self, stats_path: Path, replay: dict) -> None:
        exported = json.loads(stats_path.read_text("utf-8"))
        exported.pop("novel_percent", None)
        self.expect(exported == replay["stats"], f"exported stats {exported} != replay {replay['stats']}")

    def reads(self, result: dict, replay: dict, rows: list[tuple], targets: dict, phases: int) -> None:
        """One read pass: exit codes, status line, novelty decisions, export, resume."""
        for read in result["reads"]:
            argv, out = read["argv"], read["stdout"]
            self.expect(read["code"] == 0, f"{argv[0]} exited {read['code']}: {read['stderr'][-200:]}")
            if argv[0] == "status":
                self.expect(out.splitlines()[:1] == [replay["status_line"]],
                            f"status {out.splitlines()[:1]} != replay {replay['status_line']!r}")
            elif argv[0] == "novelty":
                sid = argv[1]
                oracle = self.decision(sid, rows)
                self.expect(oracle == targets[sid], f"planted read {sid}: oracle says {oracle}")
                self.expect(out.startswith(f"novelty {sid}: {oracle} ("),
                            f"novelty read {out.strip()!r}, oracle {oracle}")
            elif argv[0] == "campaign":
                self.expect(out == f"campaign {argv[2]}: completed; phases={phases}\n",
                            f"resume said {out!r}")
        self.exported_stats(Path(result["export"]) / "stats.json", replay)

    def mining_round(self, result: dict) -> None:
        from gen import EXPECTED, VERIFICATIONS

        replay = self.library(Path(result["library"]))
        campaign = result["campaign"]
        phases = campaign["phases"]
        self.expect(campaign["status"] == "completed", f"campaign ended {campaign['status']}")
        self.expect(len(phases) == 2 * len(self.manifest["branches"]), f"{len(phases)} campaign phases")
        self.expect(len(result["cycle_s"]) == len(self.manifest["branches"]),
                    f"{len(result['cycle_s'])} mining cycles")
        rows = [tuple(row) for row in self.manifest.get("local_skills", [])]
        rows += [(item["skill_id"], item["task"], item["scope"]) for item in self.mined()]
        outcomes = {}
        for phase in phases:
            outcomes.update(phase.get("outcomes", {}))
        for item in self.mined():
            sid = item["skill_id"]
            record = replay["skills"].get(sid)
            if record is None:
                self.problem(f"{item['kind']} skill {sid} was never registered")
                continue
            want = EXPECTED[item["kind"]]
            got = (record["status"], record.get("novelty_decision"))
            self.expect(got == want, f"{sid} ({item['kind']}) ended {got}, expected {want}")
            if record.get("novelty_decision") is not None:
                oracle = self.decision(sid, rows)
                self.expect(record["novelty_decision"] == oracle,
                            f"{sid}: engine decided {record['novelty_decision']}, oracle {oracle}")
            if item.get("merged_into"):
                self.expect(record.get("merged_into") == item["merged_into"],
                            f"{sid} merged into {record.get('merged_into')}, expected {item['merged_into']}")
            if item["kind"] in VERIFICATIONS:
                log = replay["verifications"].get(sid, [])
                self.expect(log == VERIFICATIONS[item["kind"]], f"{sid} verification log {log}")
            evaluation = {"bench_pass": "advantage margin=0.4000", "weak_opt": "optimized",
                          "weak_review": "review"}.get(item["kind"])
            if evaluation is not None:
                self.expect(outcomes.get(sid) == evaluation,
                            f"{sid} evaluation {outcomes.get(sid)!r}, expected {evaluation!r}")
        for design, got in zip(self.manifest["designs"], result["designs"]):
            self.expect(got.get("skill_id") == design["skill_id"] and got.get("status") == "verified",
                        f"design {design['skill_id']}: {got}")
        self.reads(result, replay, rows, self.manifest["mined_reads"], len(phases))

    def browse(self, rounds: list[dict]) -> None:
        from skillmine.workers import state_digest

        lib = Path(rounds[0]["library"])
        replay = self.library(lib)
        rows = [tuple(row) for row in self.manifest["local_skills"]]
        for result in rounds:
            self.reads(result, replay, rows, self.manifest["read_targets"],
                       self.manifest["checkpoint_phases"])
        self.expect(state_digest(lib) == self.manifest["library_digest"],
                    "browsing changed the library's state digest")

    def cache_untouched(self) -> None:
        from skillmine.workers import state_digest

        self.expect(state_digest(self.manifest["library"]) == self.manifest["library_digest"],
                    "the cached grown library changed; delete perfbench/_work/cache")


# -- metrics ---------------------------------------------------------------------


def end_to_end(workload: str, output: dict) -> dict:
    """Every end-to-end metric, as medians over the untraced rounds.

    browse-grown writes nothing, so its campaign, cycle and design figures are
    the read-only counterparts: one `campaign resume`, one whole pass of read
    commands, and one `novelty` review (the step a design request ends with).
    """
    rounds = [r for r in output["rounds"] if not r["traced"]]

    def reads(command: str) -> list[float]:
        return [read["seconds"] for r in rounds for read in r["reads"] if read["argv"][0] == command]

    median = statistics.median
    values = {
        "setup_s": median(output["setup_s"]),
        "peak_rss_mb": output["peak_rss_mb"],
        "reads_per_s": median(len(r["reads"]) / r["reads_s"] for r in rounds),
        "library_mb": median(r["library_bytes"] for r in rounds) / 1e6,
    }
    if workload == "browse-grown":
        values["campaign_s"] = median(reads("campaign"))
        values["cycle_s"] = median(r["reads_s"] for r in rounds)
        values["design_s"] = median(reads("novelty"))
    else:
        values["campaign_s"] = median(r["campaign_s"] for r in rounds)
        values["cycle_s"] = median(t for r in rounds for t in r["cycle_s"])
        values["design_s"] = median(t for r in rounds for t in r["design_s"])
    return declared("end_to_end", values)


def per_layer(output: dict) -> dict:
    from spans import median_metrics

    layer_rounds = output["layers"]
    metrics = median_metrics([r["metrics"] for r in layer_rounds])
    traced = statistics.median(r["work_s"] for r in output["rounds"] if r["traced"])
    plain = statistics.median(r["work_s"] for r in output["rounds"] if not r["traced"])
    metrics["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0)
    layers = median_metrics([r["layer_self_s"] for r in layer_rounds])
    print("perfbench: self time per layer (s, traced round median): "
          + ", ".join(f"{k}={v:.3f}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])),
          file=sys.stderr)
    return declared("per_layer", metrics)


def declared(kind: str, values: dict) -> dict:
    """The metrics BENCHMARK.json declares under ``kind``, with their units."""
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))[kind]
    differ = {m["name"] for m in metrics} ^ set(values)
    if differ:
        raise RuntimeError(f"{kind} metrics differ from BENCHMARK.json: {sorted(differ)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics}


# -- main --------------------------------------------------------------------------


def _keep_latest(directory: Path, keep: int) -> None:
    files = sorted(directory.glob("*.ndjson"), key=lambda p: p.stat().st_mtime, reverse=True)
    for old in files[keep:]:
        old.unlink()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="skillmine benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "skillmine" / "__init__.py").is_file():
        return fail(f"no engine source at {SRC}; run from a skillmine checkout")
    sys.path[:0] = [str(HERE), str(SRC)]
    import gen

    work = gen.WORK / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        started = time.perf_counter()
        manifest = gen.prepare(args.workload, args.seed, args.scale, work)
        generated = time.perf_counter()
        # The child gets no oracle data: only what the engine run needs.
        plan = {k: v for k, v in manifest.items() if k not in ("catalog_entries", "local_skills")}
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan), "utf-8")
        out_path = work / "measured.json"
        # A fixed hash seed keeps set and dict iteration order, and so the
        # engine's memory layout, the same from run to run.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]), PYTHONHASHSEED="0")
        child = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
                 "--plan", str(plan_path), "--work", str(work), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--out", str(out_path)]
        # Its own session, so a timeout also stops the validation commands it runs.
        process = subprocess.Popen(child, cwd=ROOT, env=env, start_new_session=True)
        try:
            returncode = process.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            return fail(f"workload process ran past {CHILD_TIMEOUT:.0f} s")
        if returncode != 0 or not out_path.is_file():
            return fail(f"workload process exited {returncode}")
        output = json.loads(out_path.read_text("utf-8"))
        measured = time.perf_counter()

        checker = Checker(manifest)
        sizes: dict[str, int] = {}
        for result in output["rounds"]:
            if result["library"] not in sizes:
                sizes[result["library"]] = tree_bytes(Path(result["library"]))
            result["library_bytes"] = sizes[result["library"]]
        if args.workload == "browse-grown":
            checker.browse(output["rounds"])
        else:
            for result in output["rounds"]:
                checker.mining_round(result)
        if args.workload != "mine-fresh":
            checker.cache_untouched()
        for text in checker.problems:
            print(f"perfbench: check failed: {text}", file=sys.stderr)

        if args.trace:
            metrics = per_layer(output)
            traces = gen.WORK / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            kept = traces / f"{args.workload}-seed{args.seed}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.ndjson"
            shutil.move(output["trace_file"], kept)
            _keep_latest(traces, TRACES_KEPT)
            print(f"perfbench: {output['spans']} spans written to {kept.relative_to(ROOT)}", file=sys.stderr)
        else:
            metrics = end_to_end(args.workload, output)
        summary = {
            "correct": not checker.problems,
            "attempted": sum(r["ops"] for r in output["rounds"]),
            "failed": sum(r["failed"] for r in output["rounds"]),
            "metrics": metrics,
        }
        print(f"perfbench: {len(output['rounds'])} rounds; inputs {generated - started:.1f} s, "
              f"measuring {measured - generated:.1f} s, checks {time.perf_counter() - measured:.1f} s",
              file=sys.stderr)
        print(json.dumps(summary))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
