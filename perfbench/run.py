"""End-to-end benchmark of the fairrank CLI on three generated workloads.

Run from the repository root:

    python3 perfbench/run.py --workload rec-rerank --seed 77 --seconds 30 --trace 0

Every measured run is one ``python3 -m fairrank.cli`` child process with a
fresh log directory, on a data root built from ``--seed``.  Each run's
report (``records.jsonl``, ``table.txt``, ``allocations.tsv``,
``config.yaml``) is checked for shape and hashed; the hashes must equal the
reference in ``reference.json`` when that file has the (workload, seed) pair,
and must agree between all runs of one invocation otherwise.

``--trace 0`` builds the data root, makes one untimed warm-up run, then
starts CLI runs until ``--seconds`` have passed, then builds the data root
five more times into a throw-away directory.  Each timed run and rebuild is
scaled to the reference host speed by the ``HostClock`` probes around it;
``run_s`` and ``setup_s`` are the medians of the scaled times, and the raw
wall times go out with the diagnostics.  ``--trace 1`` makes one untraced
run and one run under ``child.py``, which records a span around every layer
call, and prints per-layer self times (raw, not scaled) and counts;
``trace.overhead_s`` is the traced wall time minus the untraced one.

The last line of standard output is the result: ``correct``, ``attempted``
and ``failed`` count CLI runs, where a run fails on a non-zero exit, a
leftover ``.lock``, a malformed report or a report hash mismatch.
Diagnostics (per-run wall and CPU seconds, input sizes and hashes, report
hashes) go out as one JSON line before it.  Without ``src/fairrank`` in the
working directory the script exits with code 2 and prints no result; if the
data root cannot be built it exits with code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import yaml

from searchgen import QUERIES, write_search_inputs

HERE = Path(__file__).resolve().parent
REPORT_FILES = ("records.jsonl", "table.txt", "allocations.tsv", "config.yaml")
LOG_NAME = "bench"
DEADLINE_S = 170.0  # the whole invocation must end within 180 s
SETUPS = 5  # timed data-root rebuilds per untraced invocation
REFERENCE_PROBE_S = 0.33  # host_probe() seconds on the reference host speed


@dataclass(frozen=True)
class Workload:
    name: str
    task: str
    stage: str
    dataset: str
    models: tuple[str, ...]
    ks: tuple[int, ...]
    lists: int  # ranked lists per (model, K): users or queries
    groups: int  # allocation rows per (model, K)
    metrics: tuple[str, ...]  # report columns, as the stage defaults name them
    extra: dict

    @property
    def slates(self) -> int:
        return self.lists * len(self.models) * len(self.ks)

    def config(self) -> dict:
        return {"models": list(self.models), "K": list(self.ks), "log_name": LOG_NAME, **self.extra}


# The c11 oracle shape has 1000 users; 150 keeps one CLI run near 3 s, so that a run of
# the benchmark takes the median of about ten of them.
SYNTH = {"users": 150, "items": 500, "groups": 10}
RANKING = ("ndcg", "mrr", "hr", "mmf", "gini", "entropy")
WORKLOADS = {
    w.name: w
    for w in (
        # Re-ranking of stored scores: fair_rerank, metrics, ingest reads.
        Workload("rec-rerank", "recommendation", "post-processing", "synth",
                 ("topk", "min_regularizer", "cpfair", "fairrec", "pmmf", "welf"), (10, 20),
                 SYNTH["users"], SYNTH["groups"], RANKING + ("r_ndcg", "u_loss", "min_max_ratio"),
                 {"params": {"cpfair": {"swap_budget": 20}, "pmmf": {"lam": 5.0}}}),
        # Training on the same shape: trainer plus ingest writes; fair_rerank only as topk.
        Workload("rec-train", "recommendation", "in-processing", "synth",
                 ("bpr", "fairdual", "minmax_sgd", "reg"), (10, 20), SYNTH["users"], SYNTH["groups"], RANKING, {}),
        # Search diversification: diverse_rerank and the search metrics, no score matrix.
        Workload("search-diversify", "search", "post-processing", "web",
                 ("xquad", "pm2"), (5, 10, 20), QUERIES, 0, ("err_ia", "alpha_ndcg", "s_rec"), {"pool_size": 50}),
    )
}


class BenchError(Exception):
    """The workload's data root cannot be built."""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def child_env(checkout: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(checkout / "src")
    env.pop("FAIRRANK_DATA_DIR", None)
    return env


# ---------------------------------------------------------------------------
# Set-up: one data root per workload and invocation
# ---------------------------------------------------------------------------


def build_root(w: Workload, root: Path, seed: int, env: dict) -> dict[str, int]:
    """Write the workload's inputs and run config under ``root``; return input sizes."""
    if w.task == "search":
        sizes = write_search_inputs(root / "raw" / "input.run", root / "raw" / "qrels.diversity", seed)
        props = root / "properties" / "dataset" / f"{w.dataset}.yaml"
        props.parent.mkdir(parents=True, exist_ok=True)
        props.write_text(
            yaml.safe_dump({"type": "search", "run_file": "raw/input.run", "qrels": "raw/qrels.diversity"}),
            encoding="utf-8",
        )
    else:
        cmd = [sys.executable, "-m", "fairrank.synth", "--root", str(root), "--name", w.dataset,
               "--users", str(SYNTH["users"]), "--items", str(SYNTH["items"]), "--groups", str(SYNTH["groups"]),
               "--seed", str(seed)]
        try:
            done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            raise BenchError("synth did not finish within 60 s") from None
        if done.returncode != 0:
            raise BenchError(f"synth failed ({done.returncode}): {done.stderr.strip()[-500:]}")
        sizes = {}
    (root / "bench.yaml").write_text(yaml.safe_dump(w.config(), sort_keys=True), encoding="utf-8")
    return sizes


def synth_sizes(w: Workload, root: Path) -> dict[str, int]:
    ds = root / "datasets" / w.dataset
    manifest = yaml.safe_load((ds / "manifest.yaml").read_text(encoding="utf-8"))
    with (ds / "scores.tsv").open("rb") as fh:
        score_entries = sum(1 for _ in fh) - 1
    return {"score_entries": score_entries, **{f"{k}_records": v for k, v in manifest["counts"].items()}}


def input_hashes(root: Path) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): sha256(p) for p in sorted(root.rglob("*")) if p.is_file()}


def timed_build(w: Workload, root: Path, seed: int, env: dict) -> tuple[float, dict[str, int], dict[str, str]]:
    """Build the data root at ``root``; return the seconds taken, input sizes and input hashes."""
    started = time.perf_counter()
    sizes = build_root(w, root, seed, env)
    elapsed = time.perf_counter() - started
    if w.task != "search":
        sizes = synth_sizes(w, root)
    return elapsed, sizes, input_hashes(root)


def rebuild(w: Workload, work: Path, seed: int, env: dict, hashes: dict[str, str]) -> float:
    """Build a throw-away data root; it must have the same bytes as the first.  Return its seconds."""
    root = work / "rebuild"
    try:
        elapsed, _, these = timed_build(w, root, seed, env)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    if these != hashes:
        raise BenchError(f"{w.name} inputs differ between two builds with seed {seed}")
    return elapsed


def setup(w: Workload, work: Path, seed: int, env: dict) -> tuple[Path, float, dict, dict]:
    """Build the data root the runs use; return it with its build seconds, input sizes and hashes."""
    root = work / "root"
    elapsed, sizes, hashes = timed_build(w, root, seed, env)
    return root, elapsed, sizes, hashes


# ---------------------------------------------------------------------------
# One CLI run
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    hashes: dict | None
    problem: str | None
    spans_path: Path | None = None
    scaled_s: float | None = None


# A fixed piece of interpreter work, timed inside its own process.
PROBE_CODE = """
import time

def work():
    table = {}
    for i in range(2_500_000):
        key = i % 5003
        table[key] = table.get(key, 0.0) + i * 0.5
    total = 0.0
    for key in sorted(table, key=table.get):
        total += table[key] / (key + 1)
    return total

started = time.perf_counter()
work()
print(time.perf_counter() - started)
"""


def host_probe() -> float:
    """Seconds the probe work takes: the host's speed right now.

    Each probe is a fresh process, as each CLI run is, so that probes land on
    CPUs and memory the way the runs do rather than inheriting one process's luck.
    """
    done = subprocess.run([sys.executable, "-c", PROBE_CODE], capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


class HostClock:
    """Scales each timed step to the reference host speed.

    The host's speed drifts by a third within minutes, and the program slows
    with it.  A probe runs before the first step and after every step; a
    step's seconds are scaled by ``REFERENCE_PROBE_S`` over the mean of the
    probes on either side of it.  The probe is benchmark code, the same on
    every commit, so only the program's own cost moves a scaled time.
    """

    def __init__(self) -> None:
        self.probes = [host_probe()]

    def scale(self, seconds: float) -> float:
        self.probes.append(host_probe())
        return seconds * REFERENCE_PROBE_S / ((self.probes[-2] + self.probes[-1]) / 2)


def wait_with_deadline(proc: subprocess.Popen, deadline: float):
    """Reap ``proc`` with its resource usage; kill it if ``deadline`` passes first."""
    state = {"reaped": False, "killed": False}

    def kill() -> None:
        if not state["reaped"]:
            state["killed"] = True
            os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(max(0.0, deadline - time.perf_counter()), kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        state["reaped"] = True
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, state["killed"]


def run_once(w: Workload, root: Path, work: Path, env: dict, deadline: float, index: int, traced: bool) -> RunResult:
    log_dir = root / "log" / LOG_NAME
    if log_dir.exists():
        shutil.rmtree(log_dir)  # fresh log dir: a stale .lock cannot block this run
    spans_path = work / f"spans{index}.json" if traced else None
    if traced:
        cmd = [sys.executable, str(HERE / "child.py"), "--out", str(spans_path), "--models", ",".join(w.models), "--"]
    else:
        cmd = [sys.executable, "-m", "fairrank.cli"]
    cmd += ["--task", w.task, "--stage", w.stage, "--dataset", w.dataset,
            "--config", str(root / "bench.yaml"), "--data-dir", str(root)]
    with open(work / f"run{index}.log", "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=subprocess.STDOUT)
        code, usage, killed = wait_with_deadline(proc, deadline)
        wall = time.perf_counter() - started
    result = RunResult(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, code, None, None, spans_path)
    if killed:
        result.problem = "killed at the deadline"
    elif code != 0:
        tail = (work / f"run{index}.log").read_text(encoding="utf-8", errors="replace")[-400:]
        result.problem = f"exit code {code}: {tail}"
    elif (log_dir / ".lock").exists():
        result.problem = "run left its .lock behind"
    else:
        try:
            result.problem = check_report(w, log_dir)
        except (ValueError, KeyError, IndexError, TypeError, yaml.YAMLError) as exc:
            result.problem = f"malformed report: {exc!r}"
        if result.problem is None:
            result.hashes = {name: sha256(log_dir / name) for name in REPORT_FILES}
    return result


def check_report(w: Workload, log_dir: Path) -> str | None:
    """Shape of the report: one finite row per (model, K), matching tables and config."""
    for name in REPORT_FILES:
        if not (log_dir / name).is_file():
            return f"missing {name}"
    lines = (log_dir / "records.jsonl").read_text(encoding="utf-8").splitlines()
    meta, rows = json.loads(lines[0]), [json.loads(line) for line in lines[1:]]
    if (meta.get("record"), meta.get("task"), meta.get("stage"), meta.get("dataset")) != (
        "meta", w.task, w.stage, w.dataset,
    ):
        return f"unexpected meta record {meta}"
    expected = [(m, k) for m in w.models for k in w.ks]
    if [(r["model"], r["k"]) for r in rows] != expected:
        return "records.jsonl rows are not one per (model, K) in config order"
    for r in rows:
        if sorted(r["metrics"]) != sorted(f"{m}@{r['k']}" for m in w.metrics):
            return f"row {r['model']}@{r['k']} has metrics {sorted(r['metrics'])}"
        if not all(math.isfinite(v) for v in r["metrics"].values()):
            return f"row {r['model']}@{r['k']} has a non-finite metric"
    table_rows = [ln.split()[:2] for ln in (log_dir / "table.txt").read_text(encoding="utf-8").splitlines()
                  if ln and not ln.startswith(("##", "Model "))]
    sections = 2 if w.name == "rec-rerank" else 1
    if table_rows != [[m, str(k)] for m, k in expected] * sections:
        return "table.txt rows do not match the records"
    alloc = (log_dir / "allocations.tsv").read_text(encoding="utf-8").splitlines()
    if len(alloc) != 1 + len(expected) * w.groups:
        return f"allocations.tsv has {len(alloc) - 1} rows, expected {len(expected) * w.groups}"
    snapshot = yaml.safe_load((log_dir / "config.yaml").read_text(encoding="utf-8"))
    if snapshot.get("models") != list(w.models) or snapshot.get("K") != list(w.ks):
        return "config.yaml does not echo the requested models and K"
    return None


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    names = {f"fair_rerank.{m}.k{k}_s": "s" for m in WORKLOADS["rec-rerank"].models for k in (10, 20)}
    names.update({"fair_rerank.context_s": "s", "fair_rerank.slates": "count"})
    for n in ("read_scores", "write_scores", "read_dataset", "parse_run_file", "parse_diversity_qrels",
              "write_run_file"):
        names[f"ingest.{n}_s"] = "s"
    names.update({"ingest.read_scores_peak_mb": "MiB", "ingest.score_entries": "count", "core.group_utility_s": "s"})
    for n in ("rerank_quality", "accuracy", "fairness", "alpha_ndcg", "err_ia", "s_recall"):
        names[f"metrics.{n}_s"] = "s"
    names.update({"diverse_rerank.xquad_s": "s", "diverse_rerank.pm2_s": "s", "diverse_rerank.queries": "count"})
    for m in WORKLOADS["rec-train"].models:
        names[f"trainer.train.{m}_s"] = "s"
    names.update({"trainer.samples": "count", "trainer.predict_s": "s", "trainer.predict_peak_mb": "MiB",
                  "trainer.save_model_s": "s"})
    for n in ("import", "resolve_config", "emit_report", "self"):
        names[f"cli.{n}_s"] = "s"
    names.update({"trace.total_s": "s", "trace.overhead_s": "s"})
    return names


def self_times(spans: list) -> tuple[dict[str, float], float, float]:
    """Self seconds per span name, the root total and the sum of all self times."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, float] = {}
    for (name, start, end, _), covered in zip(spans, child_time):
        key = "cli.self" if name == "cli.run" else name
        totals[key] = totals.get(key, 0.0) + (end - start - covered)
    root_total = sum(end - start for _, start, end, parent in spans if parent is None)
    return totals, root_total, sum(totals.values())


def layer_metrics(trace: dict, traced_wall: float, untraced_wall: float) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced run, plus whatever is wrong with its spans."""
    units = per_layer_names()
    values = dict.fromkeys(units, 0.0)
    totals, root_total, self_sum = self_times(trace["spans"])
    problems = []
    if abs(root_total - self_sum) > 1e-6 * max(1.0, root_total):
        problems.append(f"span self times sum to {self_sum}, traced total is {root_total}")
    for name, seconds in totals.items():
        if seconds < -1e-9:
            problems.append(f"span {name!r} has negative self time")
        if f"{name}_s" not in units:
            problems.append(f"span {name!r} has no per-layer metric")
        values[f"{name}_s"] = seconds
    values.update(trace["counts"])
    values.update(trace["peaks_mb"])
    values["trace.total_s"] = root_total
    values["trace.overhead_s"] = traced_wall - trace["memory_pass_s"] - untraced_wall
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}, problems


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def load_reference(workload: str, seed: int) -> dict | None:
    path = HERE / "reference.json"
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))


def environment() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine()}


def measure(w: Workload, seed: int, seconds: float, trace: bool, checkout: Path, work: Path) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    env = child_env(checkout)
    root, first_build_s, sizes, in_hashes = setup(w, work, seed, env)
    setup_times = [first_build_s]
    runs: list[RunResult] = []
    if trace:
        runs.append(run_once(w, root, work, env, deadline, 0, traced=False))
        runs.append(run_once(w, root, work, env, deadline, 1, traced=True))
    else:
        # One untimed warm-up run fills the page cache and byte-code caches; it is still checked.
        # The first build was cold as well: set-up is timed on rebuilds made after the runs.
        runs.append(run_once(w, root, work, env, deadline, 0, traced=False))
        clock = HostClock()
        measure_start = time.perf_counter()
        while runs[-1].problem != "killed at the deadline":
            runs.append(run_once(w, root, work, env, deadline, len(runs), traced=False))
            runs[-1].scaled_s = clock.scale(runs[-1].wall_s)
            if time.perf_counter() - measure_start >= seconds:
                break
        setup_times = [clock.scale(rebuild(w, work, seed, env, in_hashes)) for _ in range(SETUPS)]

    reference = load_reference(w.name, seed)
    first = next((r.hashes for r in runs if r.hashes), None)
    expected = reference or first
    for r in runs:
        if r.problem is None and r.hashes != expected:
            r.problem = "report hash differs from the " + ("recorded reference" if reference else "first run")
    failed = sum(r.problem is not None for r in runs)
    problems = [r.problem for r in runs if r.problem]

    if trace:
        untraced, traced = runs
        trace_data = json.loads(traced.spans_path.read_text(encoding="utf-8")) if traced.problem is None else None
        if trace_data is None:
            metrics = {k: {"value": 0.0, "unit": u} for k, u in per_layer_names().items()}
        else:
            metrics, span_problems = layer_metrics(trace_data, traced.wall_s, untraced.wall_s)
            problems += span_problems
        samples = 1
    else:
        timed = runs[1:] or runs
        ok = [r for r in timed if r.problem is None] or timed
        samples = len(ok)
        run_s = statistics.median(r.scaled_s or r.wall_s for r in ok)
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "slates_per_s": {"value": w.slates / run_s, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r.rss_mb for r in ok), "unit": "MiB"},
        }
    diagnostics = {
        "workload": w.name,
        "seed": seed,
        "trace": trace,
        "environment": environment(),
        "run_s_samples": samples,
        "runs": [{"wall_s": r.wall_s, "scaled_s": r.scaled_s, "cpu_s": r.cpu_s, "rss_mb": r.rss_mb,
                  "exit_code": r.exit_code, "problem": r.problem} for r in runs],
        "setup_s": setup_times,
        "host_probe_s": [] if trace else clock.probes,
        "input_sizes": sizes,
        "input_sha256": in_hashes,
        "report_sha256": first,
        "reference_recorded": reference is not None,
    }
    print(json.dumps({"diagnostics": diagnostics}))
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    return {"correct": not problems, "attempted": len(runs), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fairrank end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout = Path.cwd()
    if not (checkout / "src" / "fairrank" / "cli.py").is_file():
        print("error: run from the root of a fairrank checkout (no src/fairrank/cli.py here)", file=sys.stderr)
        return 2
    work = checkout / ".perfbench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), checkout, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
