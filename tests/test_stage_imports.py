"""What each CLI stage loads, and the names perfbench/child.py rebinds in ``fairrank.cli``.

Each stage imports only the model modules it runs (``trainer``, ``fair_rerank``, ``diverse_rerank``), so
these run the CLI in a fresh interpreter and list the ``fairrank`` modules it loaded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import fairrank.cli as cli
from fairrank.synth import init_workspace

SRC = Path(cli.__file__).parents[1]
CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
# Loaded by every stage: the CLI, its config, the readers and the report.
BASE = ["fairrank", "fairrank.cli", "fairrank.config", "fairrank.core", "fairrank.errors", "fairrank.ingest",
        "fairrank.metrics", "fairrank.report", "fairrank.store"]
MODEL_MODULES = {"fairrank.trainer", "fairrank.fair_rerank", "fairrank.diverse_rerank"}
LOADED = (
    "import sys\n"
    "from fairrank.cli import main\n"
    "try:\n"
    "    code = main(sys.argv[1:])\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
    "print(code)\n"
    "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'fairrank')))\n"
)


def _python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def _write_yaml(path: Path, payload: dict) -> str:
    path.write_text(yaml.safe_dump(payload), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def roots(tmp_path_factory) -> dict[str, Path]:
    """A recommendation root (synth dataset plus raw files for the process stage) and a search root."""
    rec = tmp_path_factory.mktemp("rec")
    init_workspace(rec, name="synth", n_users=20, n_items=15, n_groups=3, seed=13, per_user=(6, 9))
    raw = rec / "raw"
    raw.mkdir()
    (raw / "inter.tsv").write_text(
        "user_id\titem_id\tlabel\ttimestamp\n"
        + "".join(f"u{u}\ti{(u + j) % 10}\t1.0\t{6 * u + j}\n" for u in range(8) for j in range(6)),
        encoding="utf-8",
    )
    (raw / "groups.tsv").write_text("".join(f"i{j}\tg{j % 2}\n" for j in range(10)), encoding="utf-8")
    _write_yaml(rec / "properties" / "dataset" / "tiny.yaml",
                {"type": "recommendation", "interactions": "raw/inter.tsv", "item_groups": "raw/groups.tsv"})

    search = tmp_path_factory.mktemp("search")
    (search / "raw").mkdir()
    (search / "raw" / "input.run").write_text(
        "".join(f"q{q} Q0 q{q}d{j} {j + 1} {100 - j}.0 base\n" for q in range(3) for j in range(12)), encoding="utf-8")
    (search / "raw" / "qrels.div").write_text(
        "".join(f"q{q} {t} q{q}d{j} {(q + t + j) % 2}\n" for q in range(3) for t in range(1, 4) for j in range(6)),
        encoding="utf-8")
    (search / "properties" / "dataset").mkdir(parents=True)
    _write_yaml(search / "properties" / "dataset" / "web.yaml",
                {"type": "search", "run_file": "raw/input.run", "qrels": "raw/qrels.div"})
    return {"recommendation": rec, "search": search}


# (task, stage, dataset, config, model modules the stage loads)
STAGES = {
    "rec-process": ("recommendation", "process", "tiny", {}, []),
    "rec-in-processing": ("recommendation", "in-processing", "synth",
                          {"models": ["bpr"], "K": [5], "params": {"bpr": {"epochs": 1}}},
                          ["fairrank.fair_rerank", "fairrank.trainer"]),
    "rec-post-processing": ("recommendation", "post-processing", "synth", {"models": ["topk", "cpfair"], "K": [5]},
                            ["fairrank.fair_rerank"]),
    "rec-evaluate": ("recommendation", "evaluate", "synth", {"K": [5]}, ["fairrank.fair_rerank"]),
    "search-process": ("search", "process", "web", {}, []),
    "search-post-processing": ("search", "post-processing", "web", {"models": ["xquad", "pm2"], "K": [5]},
                               ["fairrank.diverse_rerank"]),
    "search-evaluate": ("search", "evaluate", "web", {"K": [5]}, []),
}


def _cli_loads(roots, tmp_path, task, stage, dataset, payload) -> tuple[str, list[str]]:
    cfg = _write_yaml(tmp_path / "c.yaml", {"log_name": f"imports-{tmp_path.name}", **payload})
    done = _python("-c", LOADED, "--task", task, "--stage", stage, "--dataset", dataset, "--config", cfg,
                   "--data-dir", str(roots[task]))
    assert done.returncode == 0, done.stderr
    code, loaded = done.stdout.splitlines()[-2:]
    return code, loaded.split()


@pytest.mark.parametrize("name", list(STAGES))
def test_stage_loads_only_the_model_modules_it_runs(roots, tmp_path, name):
    task, stage, dataset, payload, modules = STAGES[name]
    code, loaded = _cli_loads(roots, tmp_path, task, stage, dataset, payload)
    assert code == "0"
    assert loaded == sorted(BASE + modules)


def test_help_loads_no_model_module():
    done = _python("-c", LOADED, "--help")
    assert done.returncode == 0, done.stderr
    code, loaded = done.stdout.splitlines()[-2:]
    assert code == "0"
    assert loaded.split() == BASE


@pytest.mark.parametrize("task, stage, dataset", [
    ("recommendation", "in-processing", "synth"),
    ("recommendation", "post-processing", "synth"),
    ("search", "post-processing", "web"),
])
def test_unknown_model_is_refused_before_any_model_module_loads(roots, tmp_path, task, stage, dataset):
    code, loaded = _cli_loads(roots, tmp_path, task, stage, dataset, {"models": ["bogus"], "K": [5]})
    assert code == "1"
    assert loaded == BASE
    record = (roots[task] / "log" / f"imports-{tmp_path.name}" / "error.txt").read_text(encoding="utf-8")
    assert record == f"ConfigError: model 'bogus' not registered for ({task}, {stage})\n"


@pytest.mark.parametrize("key", ["models", "model"])
@pytest.mark.parametrize("task, dataset", [("recommendation", "synth"), ("search", "web")])
def test_empty_model_list_is_a_config_error(roots, tmp_path, capsys, key, task, dataset):
    log_name = f"empty-{key}-{tmp_path.name}"
    cfg = _write_yaml(tmp_path / "c.yaml", {"log_name": log_name, key: [], "K": [5]})
    code = cli.run(["--task", task, "--stage", "post-processing", "--dataset", dataset, "--config", cfg,
                    "--data-dir", str(roots[task])])
    assert code == 1
    assert "Traceback" not in capsys.readouterr().out
    log_dir = roots[task] / "log" / log_name
    assert sorted(p.name for p in log_dir.iterdir()) == ["error.txt"]
    assert (log_dir / "error.txt").read_text(encoding="utf-8") == (
        f"ConfigError: {key} must be a model name or a non-empty list of them, got []\n")


# (task, stage, dataset, models, K, params, spans the run must record in the CLI process)
TRACED = {
    "rec-post-processing": (
        "recommendation", "post-processing", "synth", ["topk", "min_regularizer", "cpfair", "fairrec", "pmmf", "welf"],
        [5, 10], {},
        [f"fair_rerank.{m}.k{k}" for m in ("topk", "min_regularizer", "cpfair", "fairrec", "pmmf", "welf")
         for k in (5, 10)] + ["fair_rerank.context", "ingest.read_dataset", "ingest.read_scores"],
    ),
    # Models trained in a forked worker record no span, and the first always trains in the CLI process.
    "rec-in-processing": (
        "recommendation", "in-processing", "synth", ["bpr", "reg"], [5],
        {"bpr": {"epochs": 1}, "reg": {"epochs": 1}},
        ["trainer.train.bpr", "trainer.predict", "trainer.save_model", "ingest.write_scores", "fair_rerank.topk.k5",
         "fair_rerank.context", "ingest.read_dataset"],
    ),
    "search-post-processing": (
        "search", "post-processing", "web", ["xquad", "pm2"], [5], {},
        ["diverse_rerank.xquad", "diverse_rerank.pm2", "ingest.parse_run_file", "ingest.parse_diversity_qrels",
         "ingest.write_run_file", "metrics.alpha_ndcg"],
    ),
}


@pytest.mark.parametrize("name", list(TRACED))
def test_perfbench_child_traces_every_layer(roots, tmp_path, name):
    """perfbench/child.py rebinds layer names in ``fairrank.cli``; each must resolve and be the one called."""
    task, stage, dataset, models, ks, params, expected = TRACED[name]
    cfg = _write_yaml(tmp_path / "c.yaml", {"log_name": f"traced-{tmp_path.name}", "models": models, "K": ks,
                                            "params": params})
    out = tmp_path / "spans.json"
    done = _python(str(CHILD), "--out", str(out), "--models", ",".join(models), "--",
                   "--task", task, "--stage", stage, "--dataset", dataset, "--config", cfg,
                   "--data-dir", str(roots[task]))
    assert done.returncode == 0, done.stdout + done.stderr
    names = {span[0] for span in json.loads(out.read_text(encoding="utf-8"))["spans"]}
    assert set(expected) | {"cli.import", "cli.run", "cli.resolve_config", "cli.emit_report"} <= names
