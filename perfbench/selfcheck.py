"""Checks of the benchmark's own code; needs no fairrank source tree.

Run from the repository root:

    python3 perfbench/selfcheck.py

It checks that the search generator writes the same bytes for the same seed
and other bytes for another seed, that span self times add up to the root
total, and that a child process past its deadline is killed and reported.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path

import run as bench
from searchgen import write_search_inputs


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def generator_is_deterministic(work: Path) -> None:
    digests = []
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        run_path, qrels_path = work / name / "input.run", work / name / "qrels"
        write_search_inputs(run_path, qrels_path, seed)
        digests.append((bench.sha256(run_path), bench.sha256(qrels_path)))
    check(digests[0] == digests[1], "search generator gives the same bytes for the same seed")
    check(digests[0][0] != digests[2][0] and digests[0][1] != digests[2][1],
          "search generator gives other bytes for another seed")


def self_times_add_up() -> None:
    spans = [
        ["cli.import", 0.0, 0.5, None],
        ["cli.run", 1.0, 11.0, None],
        ["fair_rerank.topk.k10", 2.0, 5.0, 1],
        ["metrics.accuracy", 3.0, 4.0, 2],
        ["metrics.accuracy", 6.0, 7.5, 1],
    ]
    totals, root_total, self_sum = bench.self_times(spans)
    check(totals == {"cli.import": 0.5, "cli.self": 5.5, "fair_rerank.topk.k10": 2.0, "metrics.accuracy": 2.5},
          "self time is duration minus child time, summed per name")
    check(root_total == 10.5 and abs(self_sum - root_total) < 1e-12, "self times sum to the root total")


def deadline_kills_child() -> None:
    proc = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    started = time.perf_counter()
    code, _, killed = bench.wait_with_deadline(proc, started + 0.5)
    check(killed and code != 0 and time.perf_counter() - started < 5, "a child past its deadline is killed")


def main() -> int:
    work = Path.cwd() / ".perfbench_work" / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        generator_is_deterministic(work)
        self_times_add_up()
        deadline_kills_child()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
