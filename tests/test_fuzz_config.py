"""Every config mapping over the keys in KEYS runs the CLI to exit 0, or to exit 1 with an error record."""

import itertools
import warnings

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from fairrank import cli
from fairrank.config import KEYS, MODELS, STAGES, TASKS
from fairrank.core import MODES
from fairrank.synth import init_workspace

YAML_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)
# A well-typed value of each key; the paths name the inputs the root fixture writes.
GOOD = {
    "task": st.sampled_from(TASKS),
    "stage": st.sampled_from(STAGES),
    "dataset": st.text(max_size=5),
    "type": st.sampled_from(TASKS),
    "K": st.integers(1, 6) | st.lists(st.integers(1, 6), min_size=1, max_size=2),
    "params": st.sampled_from([{}, {"pmmf": {"lam": 2.0}}, {"bpr": {"epochs": 2}}, {"xquad": {"lam": 0.3}}]),
    "seed": st.integers(0, 2**40),
    "arrival": st.sampled_from(["sorted", "shuffle"]),
    "data_type": st.just("pair"),
    "fair_rank": st.booleans(),
    "mode": st.sampled_from(MODES),
    "target_shares": st.sampled_from(["uniform", "proportional"]),
    "alpha": st.floats(0, 0.99),
    "pool_size": st.integers(1, 10),
    "scores": st.sampled_from([None, "datasets/synth"]),
    "interactions": st.just("raw/inter.tsv"),
    "item_groups": st.just("raw/groups.tsv"),
    "user_groups": st.sampled_from([None, "raw/users.tsv"]),
    "columns": st.sampled_from([None, {}, {"user": "user_id", "label": "label"}]),
    "min_interactions": st.integers(0, 6),
    "ratios": st.sampled_from([[0.8, 0.1, 0.1], [0.5, 0.25, 0.25]]),
    "run_file": st.just("raw/input.run"),
    "qrels": st.just("raw/qrels.div"),
}
# The run's log directory must be known for its error record to be written, so log_name is not drawn.
DRAWN = [name for name in KEYS if name != "log_name"]
# (task, stage) -> dataset: a raw one for the rec process stage, whose paths come only from the drawn config.
DATASETS = {pair: "tiny" if pair == ("recommendation", "process") else "web" if pair[0] == "search" else "synth"
            for pair in MODELS}
RUNS = itertools.count()


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzzroot")
    init_workspace(root, name="synth", n_users=12, n_items=10, n_groups=2, seed=3, per_user=(4, 6))
    raw = root / "raw"
    raw.mkdir()
    rows = [f"u{u}\ti{(u + j) % 10}\t1.0\t{6 * u + j}" for u in range(8) for j in range(6)]
    (raw / "inter.tsv").write_text("user_id\titem_id\tlabel\ttimestamp\n" + "\n".join(rows) + "\n", encoding="utf-8")
    (raw / "groups.tsv").write_text("".join(f"i{j}\tg{j % 2}\n" for j in range(10)), encoding="utf-8")
    (raw / "users.tsv").write_text("".join(f"u{u}\tg{u % 2}\n" for u in range(8)), encoding="utf-8")
    run = [f"{q} Q0 q{q}d{j} {j} {20 - j}.0 base" for q in (1, 2) for j in range(1, 9)]
    (raw / "input.run").write_text("\n".join(run) + "\n", encoding="utf-8")
    qrels = [f"{q} {t} q{q}d{j} {(j + t) % 2}" for q in (1, 2) for t in (1, 2) for j in range(1, 9)]
    (raw / "qrels.div").write_text("\n".join(qrels) + "\n", encoding="utf-8")
    return root


def good(name: str, task: str, stage: str):
    """A well-typed value of key ``name``; model and metric names are ones the stage offers."""
    if name == "metrics":
        offered = KEYS["metrics"].at(task, stage)
        return st.lists(st.sampled_from(offered), max_size=3) if offered else st.just([])
    if name in ("model", "models"):
        pick = st.sampled_from(sorted(MODELS[task, stage]))
        return pick if name == "model" else st.lists(pick, min_size=1, max_size=2)
    return GOOD[name]


@st.composite
def configs(draw, task: str, stage: str) -> dict:
    """In half the configs, up to two keys of any YAML value; each other key well typed, or absent one time in four."""
    wrong = draw(st.lists(st.sampled_from(DRAWN), max_size=2, unique=True) | st.just([]), label="wrong keys")
    config = {}
    for name in DRAWN:
        if name in wrong:
            config[name] = draw(YAML_VALUE, label=name)
        elif draw(st.integers(0, 3), label=f"{name} set"):
            config[name] = draw(good(name, task, stage), label=name)
    return config


def test_every_key_has_a_good_value():
    assert sorted([*GOOD, "model", "models", "metrics"]) == sorted(DRAWN)


@pytest.mark.parametrize("task, stage", list(MODELS), ids=[f"{t}-{s}" for t, s in MODELS])
@settings(max_examples=50)
@given(data=st.data())
def test_config_runs_or_records_its_error(root, task, stage, data):
    config = data.draw(configs(task, stage), label="config")
    log_name = f"fuzz{next(RUNS)}"
    path = root / f"{log_name}.yaml"
    path.write_text(yaml.safe_dump({**config, "log_name": log_name}), encoding="utf-8")
    argv = ["--task", task, "--stage", stage, "--dataset", DATASETS[task, stage], "--config", str(path),
            "--data-dir", str(root)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli.run(argv)
    assert code in (0, 1)
    assert (root / "log" / log_name / "error.txt").exists() == (code == 1)
