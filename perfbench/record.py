"""Record reference report hashes and input provenance for the benchmark.

Run from the repository root, with nothing else busy on the machine:

    python3 perfbench/record.py

For every workload and each seed in ``SEEDS`` it builds the data root, runs
the CLI once untraced, and writes the report sha256 of that run to
``perfbench/reference.json``.  ``perfbench/provenance.json`` gets the
machine, the Python and numpy versions, the source commit, and the size and
sha256 of every generated input, so that drift in a generator shows.
Re-record only when a change is meant to alter the reports or the inputs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import run as bench

# The default seed, and a held-out seed that later gain claims re-check.
SEEDS = {"default": 77, "held_out": 1013}


def source_commit(checkout: Path) -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main() -> int:
    checkout = Path.cwd()
    if not (checkout / "src" / "fairrank" / "cli.py").is_file():
        print("error: run from the root of a fairrank checkout", file=sys.stderr)
        return 2
    env = bench.child_env(checkout)
    reference: dict = {}
    inputs: dict = {}
    for name, w in bench.WORKLOADS.items():
        for seed in SEEDS.values():
            work = checkout / ".perfbench_work" / f"record-{name}-s{seed}"
            work.mkdir(parents=True)
            try:
                root, _, sizes, hashes = bench.setup(w, work, seed, env)
                result = bench.run_once(w, root, work, env, time.perf_counter() + bench.DEADLINE_S, 0, traced=False)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if result.problem:
                print(f"error: {name} seed {seed}: {result.problem}", file=sys.stderr)
                return 1
            reference.setdefault(name, {})[str(seed)] = result.hashes
            inputs.setdefault(name, {})[str(seed)] = {"sizes": sizes, "sha256": hashes}
            print(f"{name} seed {seed}: {result.wall_s:.2f} s")
    provenance = {
        "environment": bench.environment(),
        "source_commit": source_commit(checkout),
        "seeds": SEEDS,
        "inputs": inputs,
    }
    for file_name, data in (("reference.json", reference), ("provenance.json", provenance)):
        (bench.HERE / file_name).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
