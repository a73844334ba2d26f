"""Config layering, CLI dispatch, and report emission."""

import contextlib
import hashlib
import itertools
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from fairrank import cli
from fairrank import metrics as M
from fairrank.config import KEYS, config_merge, load_config_file, resolve_config, validate_config
from fairrank.core import GroupUtilityVector
from fairrank.errors import ConfigError, IoError, UnknownKeyError
from fairrank.ingest import DATASET_FILES, read_scores, write_scores, write_scores_tsv
from fairrank.report import BenchmarkReport, emit_report, fmt4
from fairrank.synth import init_workspace

from conftest import with_bad_line_2


def _hash_dir(paths):
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


# Every registered model, per (task, stage).
STAGE_MODELS = {
    ("recommendation", "process"): ["none"],
    ("recommendation", "in-processing"): ["bpr", "ips", "fairdual", "minmax_sgd", "focf", "reg"],
    ("recommendation", "post-processing"): ["topk", "min_regularizer", "cpfair", "fairrec", "pmmf", "welf"],
    ("recommendation", "evaluate"): ["topk"],
    ("search", "process"): ["none"],
    ("search", "post-processing"): ["xquad", "pm2"],
    ("search", "evaluate"): ["original"],
}

# sha256 of the resolved config snapshot, ``yaml.safe_dump(raw, sort_keys=True)``,
# for each registered model alone and for each stage's full model list, and
# of the in-processing and evaluate reports below, all recorded before models
# and metrics were each declared in one table; a change that moves them
# changes behaviour.
SNAPSHOT_SHA256 = {
    "recommendation/process/none": "ef366e5503a9ae65a5d3edcaf95f5569dc6dca1bad835d46e7b0f9221933da6a",
    "recommendation/in-processing/bpr": "0dbb6a2367c31561dac001ca558ed05982e8e749f4dab3bd3f7dbb4de0b1c59f",
    "recommendation/in-processing/ips": "6d12f03a9ccd806f9e10b37783d186e6de639c28e24772e6eb19b1f0af31cf72",
    "recommendation/in-processing/fairdual": "dbbef303e6e9b986ca41ec71346fbe15db0182a61867a505a840e3b1553b7bc6",
    "recommendation/in-processing/minmax_sgd": "05a50c65124175e845492a90905218bc04e98d33c510664425adbf5e8f940014",
    "recommendation/in-processing/focf": "58d089aa9a4f239a3e6c407c14132b8ea156d89d11e45ce0c46ed1901f92ed94",
    "recommendation/in-processing/reg": "71a68ad8db075c93e2b911d0d2accbd45e741302eb517186c1c99070cb4647ab",
    "recommendation/in-processing/[bpr,ips,fairdual,minmax_sgd,focf,reg]": "b52fe7634be3ffbc76ff76fed221011ca506823294f37947ca72d25bafb0d7fb",
    "recommendation/post-processing/topk": "7e8d5ada3c9ae3a7bba29bbf41b40e8f622a023dd75bda25e6b645cdb7b9ce0c",
    "recommendation/post-processing/min_regularizer": "07ba9a9a7e2f91a3db5efbc63d3133b92a8fb0c34205c2466d3334cec630e9d7",
    "recommendation/post-processing/cpfair": "f252588420ec20ed4f6fe32756bea61444dae839c02b5f11334b6479849ac019",
    "recommendation/post-processing/fairrec": "9ffd1780452f89372979ed694eaeac9fe4e2ff3e90709024356372b86a27a2ef",
    "recommendation/post-processing/pmmf": "61a7a0219b45cbd9f31b40a4b2908ebe7b2b83bd29072624f61d0a5d17b848cd",
    "recommendation/post-processing/welf": "40bdd6df5e5121a28fd406ba5b491be3d3c317963545585f891ed38640819510",
    "recommendation/post-processing/[topk,min_regularizer,cpfair,fairrec,pmmf,welf]": "79e209835fbd8f96c9ba840b71c445351ca612fb241689eabeed71b553504f3b",
    "recommendation/evaluate/topk": "fad78b5bdc1bd93a84e7ba0a365fa86560b19af562b2e8a2f54e68e31af9d959",
    "search/process/none": "f84af628fdc7723f548b71ef5c27948cf9528180e824ae4522e7661e39374c05",
    "search/post-processing/xquad": "1b95cc1e99332fddfdfff51dc91c90d7e5393e93cbddd3e515d99dd1c2c152c1",
    "search/post-processing/pm2": "d4339b2d173c542fdcd776b0a7eac55d00d63a18ceb79743580ad8071c43ee60",
    "search/post-processing/[xquad,pm2]": "cd23f56cccc0808b39905dfdca8c9c3aee77da6a06ae69e8a301ea4b9f8ab706",
    "search/evaluate/original": "95fda97ca86a6a6a2320e8bb5929a95bec7a8706d6c1fcf8b9bef6b4881012d8",
}
INPROC_SHA256 = {
    "records.jsonl": "8febf0711ee5cc1f2681842a64cc36a7f2d934d05cd4849c4bf7480ccae837ec",
    "table.txt": "26d2d2596ccc62f8293fce1149b29b0cc32395a517bae78c54e5c1b81a75cd1e",
    "allocations.tsv": "6aad6ff51fa547480665aff72694e535705fe42dcd4b6baddec340f448e4570b",
    "config.yaml": "9c7ddef1d7c27bcd4991465bec84f92724909d559b12d99beac045167b6cef04",
}
EVALUATE_SHA256 = {
    "records.jsonl": "1e58e6740f863addc0eedc2b681076612c1ecf6a4e27e73a66fbc78179b092e3",
    "table.txt": "6394a74e3f2f0a0911f24ae1746ab0ba21f91bd865239578e1f12ef067d6d630",
    "allocations.tsv": "9348dcfbe38d465053f2a08626f7c5bbd3775be432feab0ed45e42ef39f38b7d",
    "config.yaml": "6f70d6cfc4c952bc3b81cf990861282e2da6a1969a1d7cf1a902fe9cb4893e67",
}


class TestConfigMerge:
    def test_empty_user_file_keeps_defaults(self):
        defaults = {"K": [10, 20], "seed": 42}
        assert config_merge(defaults, {}) == defaults

    def test_list_replaced_whole(self):
        merged = config_merge({"K": [10, 20]}, {"K": [20]})
        assert merged["K"] == [20]

    def test_nested_dicts_merge(self):
        merged = config_merge({"params": {"pmmf": {"lam": 1.0, "eta": 0.1}}}, {"params": {"pmmf": {"lam": 5.0}}})
        assert merged["params"]["pmmf"] == {"lam": 5.0, "eta": 0.1}

    def test_unknown_key_strict(self):
        with pytest.raises(UnknownKeyError):
            config_merge({"bogus_key": 1}, strict=True)

    def test_unknown_key_lenient_warns(self):
        with pytest.warns(UserWarning):
            merged = config_merge({"bogus_key": 1}, strict=False)
        assert merged["bogus_key"] == 1

    @settings(max_examples=80, deadline=None)
    @given(
        st.fixed_dictionaries(
            {},
            optional={
                "seed": st.booleans(),
                "log_name": st.booleans(),
                "K": st.booleans(),
                "mode": st.booleans(),
                "params": st.booleans(),
            },
        ),
        st.data(),
    )
    def test_merge_associative(self, kinds, data):
        # Each key keeps one shape (mapping vs scalar) across all layers,
        # matching the flat-with-one-nesting config format.
        def layer():
            out = {}
            for key, is_dict in kinds.items():
                if not data.draw(st.booleans()):
                    continue
                if is_dict:
                    out[key] = data.draw(
                        st.dictionaries(st.sampled_from(["a", "b", "c"]), st.integers(0, 9), max_size=3)
                    )
                else:
                    out[key] = data.draw(st.one_of(st.integers(-5, 5), st.text(max_size=3)))
            return out

        a, b, c = layer(), layer(), layer()
        left = config_merge(config_merge(a, b), c)
        right = config_merge(a, config_merge(b, c))
        flat = config_merge(a, b, c)
        assert left == right == flat


class TestValidateConfig:
    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError, match="not registered"):
            validate_config({"model": "mystery", "log_name": "x"}, "recommendation", "post-processing", "d")

    def test_nonpositive_k_rejected(self):
        with pytest.raises(ConfigError, match="K must be a positive integer"):
            validate_config({"model": "topk", "K": [0], "log_name": "x"}, "recommendation", "post-processing", "d")

    def test_empty_log_name_rejected(self):
        with pytest.raises(ConfigError, match="log_name"):
            validate_config({"model": "topk", "K": [5], "log_name": ""}, "recommendation", "post-processing", "d")

    def test_model_list_accepted(self):
        cfg = validate_config(
            {"models": ["topk", "pmmf"], "K": [5], "log_name": "x"},
            "recommendation",
            "post-processing",
            "d",
        )
        assert cfg.models == ["topk", "pmmf"]

    def test_pre_processing_not_available(self, tmp_path):
        for task in ("recommendation", "search"):
            with pytest.raises(ConfigError, match=f"^stage 'pre-processing' not available for task '{task}'$"):
                validate_config({"log_name": "x"}, task, "pre-processing", "d")
            with pytest.raises(ConfigError, match=f"^stage 'pre-processing' not available for task '{task}'$"):
                resolve_config(task, "pre-processing", "d", {}, tmp_path)

    def test_metric_outside_task_rejected(self):
        for task, stage, model, metrics, bad in [
            ("recommendation", "in-processing", "bpr", ["ndcg", "alpha_ndcg"], "alpha_ndcg"),
            ("recommendation", "post-processing", "topk", ["ndcg", "ndgc"], "ndgc"),
            ("search", "post-processing", "xquad", ["err_ia", "ndcg"], "ndcg"),
        ]:
            merged = {"model": model, "K": [5], "log_name": "x", "metrics": metrics}
            with pytest.raises(ConfigError, match=bad):
                validate_config(merged, task, stage, "d")

    def test_metric_outside_stage_sections_rejected(self):
        for stage, model in [("evaluate", "topk"), ("in-processing", "bpr")]:
            merged = {"model": model, "K": [5], "log_name": "x", "metrics": ["ndcg", "r_ndcg"]}
            with pytest.raises(ConfigError, match="r_ndcg"):
                validate_config(merged, "recommendation", stage, "d")
        merged = {"model": "topk", "K": [5], "log_name": "x", "metrics": ["ndcg", "r_ndcg"]}
        assert validate_config(merged, "recommendation", "post-processing", "d").metrics == ["ndcg", "r_ndcg"]

    def test_params_of_unregistered_model(self):
        merged = {"model": "cpfair", "K": [5], "log_name": "x", "params": {"cpfiar": {"lam": 9.0}}}
        with pytest.raises(UnknownKeyError, match="cpfiar"):
            validate_config(merged, "recommendation", "post-processing", "d", strict=True)
        with pytest.warns(UserWarning, match="cpfiar"):
            cfg = validate_config(merged, "recommendation", "post-processing", "d")
        assert cfg.params == {"cpfair": {"lam": 1.0, "swap_budget": 20}}
        # A model the task registers for another stage is not unknown: one file may serve several stages.
        merged = {"model": "bpr", "K": [5], "log_name": "x", "params": {"cpfair": {"lam": 9.0}}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            validate_config(merged, "recommendation", "in-processing", "d", strict=True)

    def test_undeclared_param_key(self):
        merged = {"model": "cpfair", "K": [5], "log_name": "x", "params": {"cpfair": {"lamda": 2, "lam": 2}}}
        with pytest.raises(UnknownKeyError, match="lamda"):
            validate_config(merged, "recommendation", "post-processing", "d", strict=True)
        with pytest.warns(UserWarning, match="lamda"):
            cfg = validate_config(merged, "recommendation", "post-processing", "d")
        assert cfg.params["cpfair"] == {"lam": 2.0, "swap_budget": 20}

    def test_param_values_cast_to_declared_type(self):
        merged = {"model": "welf", "K": [5], "log_name": "x", "params": {"welf": {"iters": 50.0, "lam": 2}}}
        params = validate_config(merged, "recommendation", "post-processing", "d").params["welf"]
        assert params == {"lam": 2.0, "alpha": 0.5, "iters": 50}
        assert type(params["iters"]) is int and type(params["lam"]) is float
        merged = {"model": "bpr", "K": [5], "log_name": "x", "params": {"bpr": {"use_item_bias": True, "epochs": 3.0}}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params = validate_config(merged, "recommendation", "in-processing", "d").params["bpr"]
        assert params["use_item_bias"] is True and params["epochs"] == 3
        merged = {"model": "pmmf", "K": [5], "log_name": "x", "params": {"pmmf": {"eta": "fast"}}}
        with pytest.raises(ConfigError, match="eta"):
            validate_config(merged, "recommendation", "post-processing", "d")


class TestResolveConfig:
    def test_defaults_flow_through(self, tmp_path):
        cfg = resolve_config("recommendation", "post-processing", "synth", {"log_name": "t"}, tmp_path)
        assert cfg.k_values == [10, 20]
        assert cfg.params["topk"] == {}
        assert cfg.seed == 42

    def test_user_overrides_model_defaults(self, tmp_path):
        user = {"model": "pmmf", "params": {"pmmf": {"lam": 9.0}}, "log_name": "t"}
        cfg = resolve_config("recommendation", "post-processing", "synth", user, tmp_path)
        assert cfg.params["pmmf"]["lam"] == 9.0
        assert cfg.params["pmmf"]["eta"] == 0.1

    def test_properties_file_layer(self, tmp_path):
        props = tmp_path / "properties" / "models"
        props.mkdir(parents=True)
        (props / "pmmf.yaml").write_text("lam: 3.5\n", encoding="utf-8")
        cfg = resolve_config("recommendation", "post-processing", "synth", {"model": "pmmf", "log_name": "t"}, tmp_path)
        assert cfg.params["pmmf"]["lam"] == 3.5


    def test_config_snapshots_pinned(self, tmp_path):
        got = {}
        for (task, stage), models in STAGE_MODELS.items():
            users = {f"{task}/{stage}/{m}": {"model": m} for m in models}
            if len(models) > 1:
                users[f"{task}/{stage}/[{','.join(models)}]"] = {"models": models}
            for key, user in users.items():
                raw = resolve_config(task, stage, "synth", {**user, "log_name": "pin"}, tmp_path).raw
                got[key] = hashlib.sha256(yaml.safe_dump(raw, sort_keys=True).encode()).hexdigest()
                if stage == "process":
                    assert raw["params"] == {}
                if stage == "in-processing":
                    assert raw["data_type"] == "pair"
        assert got == SNAPSHOT_SHA256


class TestEmitReport:
    def _report(self):
        rows = []
        for model in ("topk", "pmmf"):
            for k in (5, 10):
                guv = GroupUtilityVector("item", "exposure", ["g1", "g2"], [1.0, 2.0])
                rows.append((model, k, {"ndcg": 0.29250001, "gini": 0.29250001}, guv))
        return BenchmarkReport(
            task="recommendation",
            stage="post-processing",
            dataset="synth",
            rows=rows,
            sections=[("ranking", ["ndcg", "gini"])],
            config_snapshot={"seed": 42, "log_name": "t"},
            wall_clock=1.23,
        )

    def test_one_record_per_model_k(self, tmp_path):
        paths = emit_report(self._report(), tmp_path)
        lines = paths["records"].read_text().strip().splitlines()
        rows = [json.loads(l) for l in lines]
        assert rows[0]["record"] == "meta"
        assert sum(1 for r in rows if r["record"] == "row") == 4
        assert rows[1]["metrics"] == {"gini@5": 0.2925, "ndcg@5": 0.2925}

    def test_four_decimal_formatting(self, tmp_path):
        assert fmt4(0.29250001) == "0.2925"
        paths = emit_report(self._report(), tmp_path)
        assert "0.2925" in paths["table"].read_text()

    def test_byte_identical_re_emit(self, tmp_path):
        report = self._report()
        p1 = emit_report(report, tmp_path / "a")
        p2 = emit_report(report, tmp_path / "b")
        stable = ["records", "table", "allocations", "config"]
        assert _hash_dir(p1[s] for s in stable) == _hash_dir(p2[s] for s in stable)

    def test_write_killed_midway_leaves_previous_artifact_whole(self, tmp_path, monkeypatch):
        paths = emit_report(self._report(), tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in paths.values())
        before = paths["records"].read_bytes()
        write_text = Path.write_text

        def killed(path, text, **kwargs):
            write_text(path, text[: len(text) // 2], **kwargs)
            raise KeyboardInterrupt

        monkeypatch.setattr(Path, "write_text", killed)
        report = self._report()
        report.dataset = "other"
        with pytest.raises(KeyboardInterrupt):
            emit_report(report, tmp_path)
        assert paths["records"].read_bytes() == before

    def test_missing_metric_rejected(self):
        rows = [("topk", 5, {"ndcg": 0.1}, None)]
        with pytest.raises(Exception):
            BenchmarkReport(
                task="recommendation",
                stage="post-processing",
                dataset="synth",
                rows=rows,
                sections=[("ranking", ["ndcg", "gini"])],
                config_snapshot={"seed": 42},
            )


@pytest.fixture
def workspace(tmp_path):
    init_workspace(tmp_path, name="synth", n_users=40, n_items=30, n_groups=3, seed=13, per_user=(8, 12))
    return tmp_path


def user_config(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload), encoding="utf-8")
    return str(path)


class TestCliRecommendation:
    def test_post_processing_run(self, workspace, tmp_path):
        cfg = user_config(tmp_path, "c.yaml", {"models": ["topk", "pmmf"], "K": [5], "log_name": "t1"})
        code = cli.run(
            ["--task", "recommendation", "--stage", "post-processing", "--dataset", "synth",
             "--config", cfg, "--data-dir", str(workspace)]
        )
        assert code == 0
        table = (workspace / "log" / "t1" / "table.txt").read_text()
        for col in ("NDCG", "MRR", "HR", "MMF", "GINI", "Entropy", "R-NDCG", "u-loss", "MinMaxRatio"):
            assert col in table
        alloc = (workspace / "log" / "t1" / "allocations.tsv").read_text()
        assert "pmmf\t5" in alloc

    def test_run_is_deterministic(self, workspace, tmp_path):
        cfg = user_config(tmp_path, "c.yaml", {"models": ["topk", "welf"], "K": [5], "log_name": "t2"})
        argv = ["--task", "recommendation", "--stage", "post-processing", "--dataset", "synth",
                "--config", cfg, "--data-dir", str(workspace)]
        assert cli.run(argv) == 0
        stable = ["records.jsonl", "table.txt", "allocations.tsv", "config.yaml"]
        first = _hash_dir(workspace / "log" / "t2" / s for s in stable)
        assert cli.run(argv) == 0
        second = _hash_dir(workspace / "log" / "t2" / s for s in stable)
        assert first == second

    def test_snapshot_replay_reproduces_report(self, workspace, tmp_path):
        cfg = user_config(tmp_path, "c.yaml", {"models": ["pmmf"], "K": [5], "log_name": "t3"})
        argv = ["--task", "recommendation", "--stage", "post-processing", "--dataset", "synth",
                "--config", cfg, "--data-dir", str(workspace)]
        assert cli.run(argv) == 0
        records = (workspace / "log" / "t3" / "records.jsonl").read_bytes()
        snapshot = str(workspace / "log" / "t3" / "config.yaml")
        argv2 = ["--task", "recommendation", "--stage", "post-processing", "--dataset", "synth",
                 "--config", snapshot, "--data-dir", str(workspace)]
        assert cli.run(argv2) == 0
        assert (workspace / "log" / "t3" / "records.jsonl").read_bytes() == records

    def test_unknown_model_fails_with_error_record(self, workspace, tmp_path):
        cfg = user_config(tmp_path, "c.yaml", {"model": "mystery", "log_name": "bad"})
        code = cli.run(
            ["--task", "recommendation", "--stage", "post-processing", "--dataset", "synth",
             "--config", cfg, "--data-dir", str(workspace)]
        )
        assert code == 1
        record = (workspace / "log" / "bad" / "error.txt").read_text()
        assert "ConfigError" in record and "mystery" in record

    def test_one_rerank_quality_call_per_model_and_k(self, workspace, tmp_path, monkeypatch):
        calls = []
        original = M.rerank_quality
        monkeypatch.setattr(M, "rerank_quality", lambda *args: calls.append(args[1]) or original(*args))
        cfg = user_config(tmp_path, "c.yaml", {"models": ["topk", "pmmf"], "K": [5, 10], "log_name": "rq"})
        assert cli.run(
            ["--task", "recommendation", "--stage", "post-processing", "--dataset", "synth",
             "--config", cfg, "--data-dir", str(workspace)]
        ) == 0
        assert calls == [5, 10, 5, 10]

    def test_post_processing_leaves_scores_untouched(self, workspace, tmp_path):
        scores_path = workspace / "datasets" / "synth" / "scores.tsv"
        before = scores_path.read_bytes()
        cfg = user_config(tmp_path, "c.yaml", {"models": ["cpfair", "fairrec"], "K": [5], "log_name": "ro"})
        assert cli.run(
            ["--task", "recommendation", "--stage", "post-processing", "--dataset", "synth",
             "--config", cfg, "--data-dir", str(workspace)]
        ) == 0
        assert scores_path.read_bytes() == before

    def test_pre_processing_unsupported(self, workspace, capsys):
        code = cli.run(
            ["--task", "recommendation", "--stage", "pre-processing", "--dataset", "synth",
             "--data-dir", str(workspace)]
        )
        assert code == 1
        assert capsys.readouterr().out == (
            "error: UnsupportedStage: pre-processing models are not implemented in this build\n"
        )
        assert not (workspace / "log").exists()

    def test_lock_blocks_concurrent_run(self, workspace, tmp_path):
        cfg = user_config(tmp_path, "c.yaml", {"model": "topk", "K": [5], "log_name": "locked"})
        lock_dir = workspace / "log" / "locked"
        lock_dir.mkdir(parents=True)
        (lock_dir / ".lock").touch()
        code = cli.run(
            ["--task", "recommendation", "--stage", "post-processing", "--dataset", "synth",
             "--config", cfg, "--data-dir", str(workspace)]
        )
        assert code == 1
        assert (lock_dir / "error.txt").exists()

    def test_stale_lock_is_replaced(self, workspace, tmp_path, monkeypatch):
        child = subprocess.Popen([sys.executable, "-c", ""])
        assert child.wait(timeout=60) == 0  # reaped: its pid names no running process
        lock_dir = workspace / "log" / "stale"
        lock_dir.mkdir(parents=True)
        (lock_dir / ".lock").write_text(f"{child.pid}\n", encoding="ascii")
        held = []  # the lock's content while the run holds it
        emit = cli.emit_report
        monkeypatch.setattr(cli, "emit_report", lambda rep, d: held.append((d / ".lock").read_text()) or emit(rep, d))
        cfg = user_config(tmp_path, "c.yaml", {"model": "topk", "K": [5], "log_name": "stale"})
        code = cli.run(
            ["--task", "recommendation", "--stage", "post-processing", "--dataset", "synth",
             "--config", cfg, "--data-dir", str(workspace)]
        )
        assert code == 0 and held == [f"{os.getpid()}\n"]
        assert not (lock_dir / ".lock").exists()

    @pytest.mark.parametrize("content", ["self", "0", "-7", "not a pid", "99999999999999999999999"])
    def test_lock_not_naming_an_exited_pid_blocks(self, workspace, tmp_path, content):
        lock_dir = workspace / "log" / "held"
        lock_dir.mkdir(parents=True)
        content = str(os.getpid()) if content == "self" else content
        (lock_dir / ".lock").write_text(content, encoding="ascii")
        cfg = user_config(tmp_path, "c.yaml", {"model": "topk", "K": [5], "log_name": "held"})
        code = cli.run(
            ["--task", "recommendation", "--stage", "post-processing", "--dataset", "synth",
             "--config", cfg, "--data-dir", str(workspace)]
        )
        assert code == 1
        assert (lock_dir / ".lock").read_text(encoding="ascii") == content
        assert (lock_dir / "error.txt").read_text().startswith("IoError: log directory")

    def test_evaluate_stage(self, workspace, tmp_path):
        cfg = user_config(tmp_path, "c.yaml", {"K": [5], "log_name": "ev"})
        code = cli.run(
            ["--task", "recommendation", "--stage", "evaluate", "--dataset", "synth",
             "--config", cfg, "--data-dir", str(workspace)]
        )
        assert code == 0
        log_dir = workspace / "log" / "ev"
        assert {name: hashlib.sha256((log_dir / name).read_bytes()).hexdigest() for name in EVALUATE_SHA256} == EVALUATE_SHA256
        table = (log_dir / "table.txt").read_text()
        assert "R-NDCG" not in table
        assert "NDCG" in table
        (entry,) = (workspace / "cache").iterdir()  # the score table, parsed once, read warm below
        assert entry.name.startswith("scores-")
        assert cli.run(["--task", "recommendation", "--stage", "evaluate", "--dataset", "synth",
                        "--config", cfg, "--data-dir", str(workspace)]) == 0
        assert {name: hashlib.sha256((log_dir / name).read_bytes()).hexdigest() for name in EVALUATE_SHA256} == EVALUATE_SHA256

    def test_in_processing_stage(self, workspace, tmp_path):
        cfg = user_config(
            tmp_path,
            "c.yaml",
            {
                "model": "bpr",
                "K": [5],
                "log_name": "ip",
                "params": {"bpr": {"dim": 8, "epochs": 3, "batch_size": 64}},
            },
        )
        code = cli.run(
            ["--task", "recommendation", "--stage", "in-processing", "--dataset", "synth",
             "--config", cfg, "--data-dir", str(workspace)]
        )
        assert code == 0
        log_dir = workspace / "log" / "ip"
        assert (log_dir / "model-bpr" / "manifest.yaml").exists()
        store = log_dir / "scores-bpr"
        assert (store / "scores.npz").is_file() and (store / "scores.meta.yaml").is_file()
        assert not (store / "scores.tsv").exists()
        table = (log_dir / "table.txt").read_text()
        assert "NDCG" in table and "R-NDCG" not in table
        # Post-processing picks the trained scores from the log dir through the scores key.
        post_cfg = user_config(
            tmp_path,
            "p.yaml",
            {"models": ["pmmf"], "K": [5], "log_name": "ip-post", "scores": str(log_dir / "scores-bpr")},
        )
        assert cli.run(
            ["--task", "recommendation", "--stage", "post-processing", "--dataset", "synth",
             "--config", post_cfg, "--data-dir", str(workspace)]
        ) == 0

    def test_relative_scores_path_resolves_from_data_root(self, workspace, tmp_path, monkeypatch):
        write_scores(read_scores(workspace / "datasets" / "synth"), workspace / "log" / "ip" / "scores-bpr")
        payload = {"models": ["topk"], "K": [5], "log_name": "post", "scores": "log/ip/scores-bpr"}
        cfg = user_config(tmp_path, "p.yaml", payload)
        monkeypatch.chdir(workspace.parent)  # the working directory holds no log/ip/scores-bpr
        assert cli.run(
            ["--task", "recommendation", "--stage", "post-processing", "--dataset", "synth",
             "--config", cfg, "--data-dir", workspace.name]
        ) == 0
        assert (workspace / "log" / "post" / "records.jsonl").is_file()

    def test_in_processing_leaves_dataset_scores_untouched(self, workspace, tmp_path):
        scores_path = workspace / "datasets" / "synth" / "scores.tsv"
        before = scores_path.read_bytes()
        cfg = user_config(
            tmp_path,
            "c.yaml",
            {"models": ["bpr", "reg"], "K": [5], "log_name": "ip2", "params": {"bpr": {"epochs": 1}, "reg": {"epochs": 1}}},
        )
        code = cli.run(
            ["--task", "recommendation", "--stage", "in-processing", "--dataset", "synth",
             "--config", cfg, "--data-dir", str(workspace)]
        )
        assert code == 0
        assert scores_path.read_bytes() == before
        for model in ("bpr", "reg"):
            assert (workspace / "log" / "ip2" / f"scores-{model}" / "scores.npz").is_file()

    def test_post_processing_from_trained_store_matches_its_table(self, workspace, tmp_path):
        # The same matrix, read from the store in-processing wrote and from the text table.
        train_cfg = user_config(
            tmp_path, "t.yaml", {"model": "bpr", "K": [5], "log_name": "ipstore", "params": {"bpr": {"epochs": 1}}}
        )
        assert cli.run(
            ["--task", "recommendation", "--stage", "in-processing", "--dataset", "synth",
             "--config", train_cfg, "--data-dir", str(workspace)]
        ) == 0
        store = workspace / "log" / "ipstore" / "scores-bpr"
        write_scores_tsv(read_scores(store), workspace / "table-bpr")
        reports = []
        for log_name, scores in (("from-store", store), ("from-table", workspace / "table-bpr")):
            payload = {"models": STAGE_MODELS[("recommendation", "post-processing")], "K": [5, 10],
                       "log_name": log_name, "scores": str(scores)}
            assert cli.run(
                ["--task", "recommendation", "--stage", "post-processing", "--dataset", "synth",
                 "--config", user_config(tmp_path, f"{log_name}.yaml", payload), "--data-dir", str(workspace)]
            ) == 0
            log_dir = workspace / "log" / log_name
            reports.append({name: (log_dir / name).read_bytes() for name in ("records.jsonl", "table.txt", "allocations.tsv")})
        assert reports[0] == reports[1]

    def test_in_processing_all_trainers_pinned(self, workspace, tmp_path):
        trainers = STAGE_MODELS[("recommendation", "in-processing")]
        cfg = user_config(
            tmp_path,
            "c.yaml",
            {"models": trainers, "K": [5], "log_name": "ip6", "params": {m: {"epochs": 3} for m in trainers}},
        )
        code = cli.run(
            ["--task", "recommendation", "--stage", "in-processing", "--dataset", "synth",
             "--config", cfg, "--data-dir", str(workspace)]
        )
        assert code == 0
        log_dir = workspace / "log" / "ip6"
        assert {name: hashlib.sha256((log_dir / name).read_bytes()).hexdigest() for name in INPROC_SHA256} == INPROC_SHA256

    def test_unsupported_metric_fails_before_training(self, workspace, tmp_path):
        scores_path = workspace / "datasets" / "synth" / "scores.tsv"
        before = scores_path.read_bytes()
        cfg = user_config(
            tmp_path,
            "c.yaml",
            {"model": "bpr", "K": [5], "log_name": "badmetric", "metrics": ["ndcg", "alpha_ndcg"],
             "params": {"bpr": {"epochs": 1}}},
        )
        code = cli.run(
            ["--task", "recommendation", "--stage", "in-processing", "--dataset", "synth",
             "--config", cfg, "--data-dir", str(workspace)]
        )
        assert code == 1
        log_dir = workspace / "log" / "badmetric"
        record = (log_dir / "error.txt").read_text()
        assert record.startswith("ConfigError:") and "alpha_ndcg" in record
        assert not list(log_dir.glob("model-*"))
        assert scores_path.read_bytes() == before

    @pytest.mark.parametrize("smooth", [-0.5, -100.0])
    def test_negative_ips_smooth_fails_with_error_record(self, workspace, tmp_path, smooth):
        # -0.5 once trained and wrote a report; -100.0 ended in a ZeroPopularity error that blamed the data.
        cfg = user_config(tmp_path, "c.yaml", {"model": "ips", "K": [5], "log_name": "smooth",
                                               "params": {"ips": {"smooth": smooth, "epochs": 1}}})
        code = cli.run(
            ["--task", "recommendation", "--stage", "in-processing", "--dataset", "synth",
             "--config", cfg, "--data-dir", str(workspace)]
        )
        assert code == 1
        log_dir = workspace / "log" / "smooth"
        record = (log_dir / "error.txt").read_text().splitlines()[0]
        assert record == f"InvariantViolation: smooth must be non-negative and finite, got {smooth!r}"
        assert not (log_dir / "records.jsonl").exists() and not list(log_dir.glob("model-*"))

    def test_undeclared_param_key_warns_or_fails_under_strict(self, workspace, tmp_path):
        cfg = user_config(
            tmp_path, "c.yaml", {"model": "cpfair", "K": [5], "log_name": "pk", "params": {"cpfair": {"lamda": 2}}}
        )
        argv = ["--task", "recommendation", "--stage", "post-processing", "--dataset", "synth",
                "--config", cfg, "--data-dir", str(workspace)]
        with pytest.warns(UserWarning, match="lamda"):
            assert cli.run(argv) == 0
        assert cli.run(argv + ["--strict"]) == 1
        record = (workspace / "log" / "pk" / "error.txt").read_text()
        assert record.startswith("UnknownKeyError:") and "lamda" in record

    def test_param_values_cast_to_declared_type(self, workspace, tmp_path):
        reports = []
        for iters in (50, 50.0):
            cfg = user_config(
                tmp_path, "c.yaml", {"model": "welf", "K": [5], "log_name": "cast", "params": {"welf": {"iters": iters}}}
            )
            assert cli.run(
                ["--task", "recommendation", "--stage", "post-processing", "--dataset", "synth",
                 "--config", cfg, "--data-dir", str(workspace)]
            ) == 0
            reports.append((workspace / "log" / "cast" / "records.jsonl").read_bytes())
        assert reports[0] == reports[1]
        cfg = user_config(
            tmp_path,
            "t.yaml",
            {"model": "bpr", "K": [5], "log_name": "bias", "params": {"bpr": {"epochs": 1, "use_item_bias": True}}},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.run(
                ["--task", "recommendation", "--stage", "in-processing", "--dataset", "synth",
                 "--config", cfg, "--data-dir", str(workspace)]
            ) == 0
        manifest = yaml.safe_load((workspace / "log" / "bias" / "model-bpr" / "manifest.yaml").read_text())
        assert manifest["use_item_bias"] is True

    def test_arrival_shuffle_and_proportional_shares(self, workspace, tmp_path):
        cfg = user_config(
            tmp_path,
            "c.yaml",
            {
                "models": ["pmmf"],
                "K": [5],
                "log_name": "opts",
                "arrival": "shuffle",
                "target_shares": "proportional",
                "params": {"pmmf": {"lam": 3.0}},
            },
        )
        argv = ["--task", "recommendation", "--stage", "post-processing", "--dataset", "synth",
                "--config", cfg, "--data-dir", str(workspace)]
        assert cli.run(argv) == 0
        first = (workspace / "log" / "opts" / "records.jsonl").read_bytes()
        assert cli.run(argv) == 0
        # The shuffle is seeded from the config, so runs stay deterministic.
        assert (workspace / "log" / "opts" / "records.jsonl").read_bytes() == first
        snapshot = yaml.safe_load((workspace / "log" / "opts" / "config.yaml").read_text())
        assert snapshot["arrival"] == "shuffle"
        assert "seed" in snapshot

    def test_strict_mode_rejects_unknown_keys(self, workspace, tmp_path):
        cfg = user_config(tmp_path, "c.yaml", {"model": "topk", "K": [5], "log_name": "st", "bogus": 1})
        code = cli.run(
            ["--task", "recommendation", "--stage", "post-processing", "--dataset", "synth",
             "--config", cfg, "--data-dir", str(workspace), "--strict"]
        )
        assert code == 1

    def test_strict_key_in_config_file_is_unknown(self, workspace, tmp_path):
        cfg = user_config(tmp_path, "c.yaml", {"model": "topk", "K": [5], "log_name": "sk", "strict": True, "bogus": 1})
        argv = ["--task", "recommendation", "--stage", "post-processing", "--dataset", "synth",
                "--config", cfg, "--data-dir", str(workspace)]
        with pytest.warns(UserWarning) as caught:
            assert cli.run(argv) == 0
        assert {"unknown configuration key 'strict'", "unknown configuration key 'bogus'"} <= {
            str(w.message) for w in caught
        }
        assert cli.run(argv + ["--strict"]) == 1
        record = (workspace / "log" / "sk" / "error.txt").read_text()
        assert record.startswith("UnknownKeyError: unknown configuration key")

    def test_evaluate_rejects_rerank_metric(self, workspace, tmp_path):
        cfg = user_config(tmp_path, "c.yaml", {"model": "topk", "K": [5], "log_name": "evr", "metrics": ["ndcg", "r_ndcg"]})
        code = cli.run(
            ["--task", "recommendation", "--stage", "evaluate", "--dataset", "synth",
             "--config", cfg, "--data-dir", str(workspace)]
        )
        assert code == 1
        log_dir = workspace / "log" / "evr"
        record = (log_dir / "error.txt").read_text()
        assert record.startswith("ConfigError:") and "r_ndcg" in record
        assert not (log_dir / "records.jsonl").exists()

    def test_data_dir_env_var(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("FAIRRANK_DATA_DIR", str(workspace))
        cfg = user_config(tmp_path, "c.yaml", {"model": "topk", "K": [5], "log_name": "env"})
        code = cli.run(
            ["--task", "recommendation", "--stage", "post-processing", "--dataset", "synth", "--config", cfg]
        )
        assert code == 0
        assert (workspace / "log" / "env" / "table.txt").exists()

    def test_process_then_post(self, tmp_path):
        # Raw files -> process stage -> canonical dataset on disk.
        root = raw_rec_root(tmp_path)
        cfg = user_config(tmp_path, "p.yaml", {"log_name": "proc"})
        code = cli.run(
            ["--task", "recommendation", "--stage", "process", "--dataset", "tiny",
             "--config", cfg, "--data-dir", str(root)]
        )
        assert code == 0
        assert (root / "datasets" / "tiny" / "manifest.yaml").exists()

    def test_process_stage_writes_the_dataset_files_it_guards(self, tmp_path):
        root = raw_rec_root(tmp_path)
        cfg = user_config(tmp_path, "p.yaml", {"log_name": "proc"})
        argv = ["--task", "recommendation", "--stage", "process", "--dataset", "tiny", "--data-dir", str(root)]
        assert cli.run(argv + ["--config", cfg]) == 0
        assert sorted(path.name for path in (root / "datasets" / "tiny").iterdir()) == sorted(DATASET_FILES)

    def test_process_output_over_its_input_is_a_config_error(self, workspace, tmp_path, capsys):
        train = workspace / "datasets" / "synth" / "train.tsv"
        before = train.read_bytes()
        given = "datasets/synth/../synth/train.tsv"
        cfg = user_config(tmp_path, "p.yaml", {"log_name": "proc", "interactions": given,
                                               "item_groups": "datasets/synth/items.tsv"})
        code = cli.run(["--task", "recommendation", "--stage", "process", "--dataset", "synth", "--config", cfg,
                        "--data-dir", str(workspace)])
        assert code == 1
        out = capsys.readouterr().out
        assert "Traceback" not in out
        assert f"error: ConfigError: interactions {workspace / given} is also an output of the process stage" in out
        assert train.read_bytes() == before

    def test_malformed_user_groups_line_fails_with_error_record(self, tmp_path):
        root = raw_rec_root(tmp_path, user_groups="raw/users.tsv")
        (root / "raw" / "users.tsv").write_text("u0\tg0\nu1\tg1\tg0\n", encoding="utf-8")
        cfg = user_config(tmp_path, "p.yaml", {"log_name": "ug"})
        code = cli.run(
            ["--task", "recommendation", "--stage", "process", "--dataset", "tiny",
             "--config", cfg, "--data-dir", str(root)]
        )
        assert code == 1
        record = (root / "log" / "ug" / "error.txt").read_text()
        assert record.startswith("ParseError:") and "users.tsv: line 2" in record

    def test_user_groups_of_users_without_interactions_are_dropped(self, tmp_path):
        root = raw_rec_root(tmp_path, user_groups="raw/users.tsv")
        (root / "raw" / "users.tsv").write_text("u0\tg0\nu9\tg2\n", encoding="utf-8")
        cfg = user_config(tmp_path, "p.yaml", {"log_name": "ug"})
        code = cli.run(
            ["--task", "recommendation", "--stage", "process", "--dataset", "tiny",
             "--config", cfg, "--data-dir", str(root)]
        )
        assert code == 0
        users = (root / "datasets" / "tiny" / "users.tsv").read_text(encoding="utf-8").splitlines()
        assert users[:3] == ["user_id\tgroup", "u0\tg0", "u1\t"]
        assert not [line for line in users if line.startswith("u9\t")]

    def test_user_groups_stay_out_of_the_item_group_table(self, tmp_path):
        root = raw_rec_root(tmp_path, user_groups="raw/users.tsv")
        (root / "raw" / "groups.tsv").write_text("".join(f"i{j}\tg{j % 3}\n" for j in range(10)), encoding="utf-8")
        sexes = "".join(f"u{u}\t{('female', 'male')[u % 2]}\n" for u in range(8))
        (root / "raw" / "users.tsv").write_text(sexes, encoding="utf-8")
        runs = [
            ("process", {"log_name": "proc"}),
            ("in-processing", {"models": ["ips"], "K": [3], "log_name": "ips", "params": {"ips": {"smooth": 1.0}}}),
            ("post-processing", {"models": ["topk", "fairrec", "cpfair"], "K": [3], "log_name": "post",
                                 "scores": "log/ips/scores-ips"}),
        ]
        for stage, payload in runs:
            cfg = user_config(tmp_path, f"{stage}.yaml", payload)
            argv = ["--task", "recommendation", "--stage", stage, "--dataset", "tiny", "--config", cfg,
                    "--data-dir", str(root)]
            assert cli.run(argv) == 0, (root / "log" / payload["log_name"] / "error.txt").read_text()
        for log_name in ("ips", "post"):
            rows = (root / "log" / log_name / "allocations.tsv").read_text(encoding="utf-8").splitlines()[1:]
            assert {row.split("\t")[4] for row in rows} == {"g0", "g1", "g2"}
        records = (root / "log" / "post" / "records.jsonl").read_text(encoding="utf-8").splitlines()[1:]
        metrics = {row["model"]: row["metrics"] for row in map(json.loads, records)}
        assert metrics["fairrec"]["mmf@3"] > 0 and metrics["fairrec"]["min_max_ratio@3"] > 0

    @pytest.mark.parametrize(
        "bad", [{"columns": ["x"]}, {"min_interactions": "x"}, {"ratios": 5}, {"seed": "x"}],
        ids=["columns", "min_interactions", "ratios", "seed"],
    )
    def test_bad_process_value_is_a_config_error(self, tmp_path, capsys, bad):
        root = raw_rec_root(tmp_path)
        cfg = user_config(tmp_path, "p.yaml", {"log_name": "badvalue", **bad})
        code = cli.run(
            ["--task", "recommendation", "--stage", "process", "--dataset", "tiny",
             "--config", cfg, "--data-dir", str(root)]
        )
        assert code == 1
        record = (root / "log" / "badvalue" / "error.txt").read_text()
        assert record.startswith(f"ConfigError: {next(iter(bad))} must ")
        assert "Traceback" not in capsys.readouterr().out
        assert not (root / "datasets").exists()

    def test_malformed_dataset_users_line_fails_with_error_record(self, workspace, tmp_path):
        users = workspace / "datasets" / "synth" / "users.tsv"
        lines = users.read_text(encoding="utf-8").splitlines()
        lines[3] = lines[3].split("\t")[0]  # drop the group column
        users.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = user_config(tmp_path, "c.yaml", {"model": "topk", "K": [5], "log_name": "badusers"})
        code = cli.run(
            ["--task", "recommendation", "--stage", "post-processing", "--dataset", "synth",
             "--config", cfg, "--data-dir", str(workspace)]
        )
        assert code == 1
        record = (workspace / "log" / "badusers" / "error.txt").read_text()
        assert record.startswith("ParseError:") and "users.tsv: line 4" in record

    def test_malformed_dataset_test_line_fails_with_error_record(self, workspace, tmp_path):
        test = workspace / "datasets" / "synth" / "test.tsv"
        lines = test.read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2].rsplit("\t", 1)[0]  # drop the timestamp column
        test.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = user_config(tmp_path, "c.yaml", {"model": "topk", "K": [5], "log_name": "badtest"})
        code = cli.run(
            ["--task", "recommendation", "--stage", "post-processing", "--dataset", "synth",
             "--config", cfg, "--data-dir", str(workspace)]
        )
        assert code == 1
        record = (workspace / "log" / "badtest" / "error.txt").read_text()
        assert record.startswith("ParseError:") and f"{test}: line 3: expected 4 fields, got 3" in record

    def test_missing_users_file_fails_with_error_record(self, workspace, tmp_path):
        users = workspace / "datasets" / "synth" / "users.tsv"
        users.unlink()
        cfg = user_config(tmp_path, "c.yaml", {"model": "topk", "K": [5], "log_name": "nousers"})
        code = cli.run(
            ["--task", "recommendation", "--stage", "post-processing", "--dataset", "synth",
             "--config", cfg, "--data-dir", str(workspace)]
        )
        assert code == 1
        record = (workspace / "log" / "nousers" / "error.txt").read_text()
        assert record == f"IoError: user file not found: {users}\n"


    def test_corrupt_dataset_manifest_fails_with_error_record(self, workspace, tmp_path):
        manifest = workspace / "datasets" / "synth" / "manifest.yaml"
        manifest.write_text("counts: [unclosed\n", encoding="utf-8")
        cfg = user_config(tmp_path, "c.yaml", {"model": "topk", "K": [5], "log_name": "badmanifest"})
        code = cli.run(
            ["--task", "recommendation", "--stage", "post-processing", "--dataset", "synth",
             "--config", cfg, "--data-dir", str(workspace)]
        )
        assert code == 1
        record = (workspace / "log" / "badmanifest" / "error.txt").read_text()
        assert record.startswith(f"ParseError: {manifest}: line 2: not valid YAML (") and record.count("\n") == 1


@pytest.fixture
def watchdog(monkeypatch):
    """Fail a test that hangs: after 60 s, kill the workers it forked that still run, then raise in the main thread."""
    forked, fork = [], os.fork

    def recorded():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    def expired(signum, frame):
        for pid in forked:
            with contextlib.suppress(ChildProcessError):  # reaped already
                if os.waitpid(pid, os.WNOHANG) == (0, 0):  # still running, so the pid is not reused
                    os.kill(pid, signal.SIGKILL)
        raise TimeoutError("watchdog expired")

    monkeypatch.setattr(os, "fork", recorded)
    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _log_files(log_dir):
    """Every file under ``log_dir`` but ``timing.txt``, by path relative to it, with its bytes."""
    return {str(path.relative_to(log_dir)): path.read_bytes()
            for path in sorted(log_dir.rglob("*")) if path.is_file() and path.name != "timing.txt"}


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="in-processing workers need os.sched_getaffinity")
@pytest.mark.usefixtures("watchdog")
class TestInProcessingWorkers:
    """In-processing with the later models trained in forked workers, against the same run on one CPU."""

    @staticmethod
    def _train(root, tmp_path, monkeypatch, cpus, payload):
        """Run in-processing as if ``cpus`` CPUs were usable; the exit code and the log directory, moved aside."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        code = cli.run(["--task", "recommendation", "--stage", "in-processing", "--dataset", "synth",
                        "--config", user_config(tmp_path, "w.yaml", payload), "--data-dir", str(root)])
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)
        log_dir = root / "log" / payload["log_name"]
        return code, log_dir.rename(root / "log" / f"{payload['log_name']}-{cpus}")

    def test_all_trainers_write_the_one_cpu_files(self, workspace, tmp_path, monkeypatch):
        trainers = STAGE_MODELS[("recommendation", "in-processing")]
        payload = {"models": trainers, "K": [5], "log_name": "ip6", "params": {m: {"epochs": 3} for m in trainers}}
        code, one = self._train(workspace, tmp_path, monkeypatch, 1, payload)
        assert code == 0
        code, three = self._train(workspace, tmp_path, monkeypatch, 3, payload)
        assert code == 0
        files = _log_files(three)
        assert {f"model-{m}/model.npz" for m in trainers} <= set(files)
        assert files == _log_files(one)
        assert {name: hashlib.sha256(files[name]).hexdigest() for name in INPROC_SHA256} == INPROC_SHA256

    @pytest.mark.parametrize("models", [["bpr", "fairdual", "reg"], ["reg", "bpr", "fairdual"]])
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_divergence_ends_as_on_one_cpu(self, workspace, tmp_path, monkeypatch, capsys, models, cpus):
        """reg diverges at epoch 0; the models before it are written, the ones after it are not."""
        payload = {"models": models, "K": [5], "log_name": "div",
                   "params": {"reg": {"lr": 1.0e+200}, "bpr": {"epochs": 3}, "fairdual": {"epochs": 3}}}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the overflow that ends in the DivergenceError
            runs = [self._train(workspace, tmp_path, monkeypatch, n, payload) for n in (1, cpus)]
        assert [code for code, _ in runs] == [1, 1]
        one, many = (_log_files(log_dir) for _, log_dir in runs)
        assert one["error.txt"] == b"DivergenceError: non-finite loss at epoch 0\n"
        assert many == one
        written = models[:models.index("reg")]
        assert sorted({name.split("/")[0] for name in many}) == sorted(
            ["error.txt", *(f"model-{m}" for m in written), *(f"scores-{m}" for m in written)])
        assert "Traceback" not in capsys.readouterr().out

    def test_dead_worker_is_an_io_error(self, workspace, tmp_path, monkeypatch, capsys):
        parent, train = os.getpid(), cli.train

        def dies_in_a_worker(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(3)
            return train(*args, **kwargs)

        monkeypatch.setattr(cli, "train", dies_in_a_worker)
        payload = {"models": ["bpr", "reg"], "K": [5], "log_name": "dead", "params": {"bpr": {"epochs": 1}}}
        code, log_dir = self._train(workspace, tmp_path, monkeypatch, 2, payload)
        assert code == 1
        assert (log_dir / "error.txt").read_text() == (
            "IoError: the training worker for reg exited with status 3 without a whole result\n")
        assert sorted(p.name for p in log_dir.iterdir()) == ["error.txt", "model-bpr", "scores-bpr"]
        out = capsys.readouterr().out
        assert "Traceback" not in out and "error: IoError: the training worker for reg" in out

    def test_failed_fork_is_an_io_error(self, workspace, tmp_path, monkeypatch):
        def fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        payload = {"models": ["bpr", "reg"], "K": [5], "log_name": "nofork"}
        code, log_dir = self._train(workspace, tmp_path, monkeypatch, 2, payload)
        assert code == 1
        assert (log_dir / "error.txt").read_text().startswith("IoError: cannot start a training worker: ")
        assert sorted(p.name for p in log_dir.iterdir()) == ["error.txt"]

    def test_early_failure_kills_the_workers(self, workspace, tmp_path, monkeypatch):
        """A failure in the first chunk's writes kills the workers, which would train for minutes, and reaps them."""

        def fails(scores, directory):
            raise IoError(f"cannot write {directory}")

        monkeypatch.setattr(cli, "write_scores", fails)
        trainers = STAGE_MODELS[("recommendation", "in-processing")]
        params = {m: {"epochs": 1 if m in ("bpr", "ips") else 10**6} for m in trainers}  # bpr and ips train here
        payload = {"models": trainers, "K": [5], "log_name": "early", "params": params}
        code, log_dir = self._train(workspace, tmp_path, monkeypatch, 3, payload)
        assert code == 1
        assert (log_dir / "error.txt").read_text().startswith("IoError: cannot write ")


def raw_rec_root(tmp_path, **props):
    """Raw interaction and item-group files for a process stage on dataset ``tiny``."""
    root = tmp_path / "root"
    raw = root / "raw"
    raw.mkdir(parents=True)
    lines = ["user_id\titem_id\tlabel\ttimestamp"]
    ts = 0
    for ui in range(8):
        for j in range(6):
            ts += 1
            lines.append(f"u{ui}\ti{(ui + j) % 10}\t1.0\t{ts}")
    (raw / "inter.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (raw / "groups.tsv").write_text(
        "\n".join(f"i{j}\tg{j % 2}" for j in range(10)) + "\n", encoding="utf-8"
    )
    dataset_props = root / "properties" / "dataset"
    dataset_props.mkdir(parents=True)
    (dataset_props / "tiny.yaml").write_text(
        yaml.safe_dump(
            {
                "type": "recommendation",
                "interactions": "raw/inter.tsv",
                "item_groups": "raw/groups.tsv",
                "min_interactions": 5,
                "ratios": [0.8, 0.1, 0.1],
                **props,
            }
        ),
        encoding="utf-8",
    )
    return root


# Report hashes of the xquad/pm2 run below, recorded before the search path
# was batched across queries; a change that moves them changes behaviour.
SEARCH_SHA256 = {
    "records.jsonl": "d94ae4ad1885a6e64c76cf6dfa62ed1b76a03cc560cf9536abcea664f02df67a",
    "table.txt": "bb401dfb178e374c618eb4780493698e0bf1910aa3737cdb3cf21b6f634ec1de",
}
# The re-ranked run files of the same runs (and of the evaluate stage's cut of the
# input run), recorded at eb42b66, while runs were still dicts of (doc, score) lists.
RUN_FILE_SHA256 = {
    "rerank-xquad.run": "3d2cf3e131f88d0d6645e4a05389e0967654abf9bc0e797d3d46ddd54e7f6cee",
    "rerank-pm2.run": "6c3893f56dd76db90a91015fb30820519ed5b783ec2fccd2890be3bc1464b9da",
}
ORIGINAL_RUN_SHA256 = "7e01a020147ff1bfe7d924ea74adc43d9e7a909e42f240136e92dcf37988f051"


@pytest.fixture
def search_root(tmp_path, rng):
    root = tmp_path / "sroot"
    raw = root / "raw"
    raw.mkdir(parents=True)
    run_lines = []
    qrel_lines = []
    for qid in (1, 2, 3):
        docs = [f"q{qid}d{j}" for j in range(30)]
        for rank, doc in enumerate(docs, start=1):
            run_lines.append(f"{qid} Q0 {doc} {rank} {100 - rank}.0 base")
        n_intents = int(rng.integers(3, 9))
        for t in range(1, n_intents + 1):
            for doc in docs[: int(rng.integers(5, 12))]:
                qrel_lines.append(f"{qid} {t} {doc} {int(rng.integers(0, 2))}")
    (raw / "input.run").write_text("\n".join(run_lines) + "\n", encoding="utf-8")
    (raw / "qrels.div").write_text("\n".join(qrel_lines) + "\n", encoding="utf-8")
    props = root / "properties" / "dataset"
    props.mkdir(parents=True)
    (props / "web.yaml").write_text(
        yaml.safe_dump({"type": "search", "run_file": "raw/input.run", "qrels": "raw/qrels.div"}),
        encoding="utf-8",
    )
    return root


class TestCliSearch:
    def test_search_post_processing(self, search_root, tmp_path):
        cfg = user_config(tmp_path, "s.yaml", {"models": ["xquad", "pm2"], "log_name": "s1"})
        code = cli.run(
            ["--task", "search", "--stage", "post-processing", "--dataset", "web",
             "--config", cfg, "--data-dir", str(search_root)]
        )
        assert code == 0
        log_dir = search_root / "log" / "s1"
        assert {name: hashlib.sha256((log_dir / name).read_bytes()).hexdigest() for name in SEARCH_SHA256} == SEARCH_SHA256
        assert {
            name: hashlib.sha256((log_dir / name).read_bytes()).hexdigest() for name in RUN_FILE_SHA256
        } == RUN_FILE_SHA256
        table = (search_root / "log" / "s1" / "table.txt").read_text()
        for col in ("ERR-IA", "alpha-nDCG", "S-rec"):
            assert col in table
        records = [
            json.loads(l) for l in (search_root / "log" / "s1" / "records.jsonl").read_text().splitlines()
        ]
        ks = {r["k"] for r in records if r["record"] == "row"}
        assert ks == {5, 10, 20}
        assert (search_root / "log" / "s1" / "rerank-xquad.run").exists()

    def test_run_file_that_the_stage_writes_is_a_config_error(self, search_root, tmp_path, capsys):
        assert self._search(search_root, tmp_path) == 0
        run_file = search_root / "log" / "s1" / "rerank-xquad.run"
        before = run_file.read_bytes()
        cfg = user_config(tmp_path, "over.yaml", {"models": ["xquad"], "log_name": "s1",
                                                  "run_file": "log/s1/rerank-xquad.run"})
        code = cli.run(["--task", "search", "--stage", "post-processing", "--dataset", "web", "--config", cfg,
                        "--data-dir", str(search_root)])
        assert code == 1
        out = capsys.readouterr().out
        assert "Traceback" not in out
        assert f"error: ConfigError: run_file {run_file} is also an output of the post-processing stage" in out
        assert (search_root / "log" / "s1" / "error.txt").read_text().startswith("ConfigError: run_file ")
        assert run_file.read_bytes() == before

    def test_qrels_not_utf8_fails_with_error_record(self, search_root, tmp_path, capsys):
        with_bad_line_2(search_root / "raw" / "qrels.div")
        cfg = user_config(tmp_path, "s.yaml", {"models": ["xquad"], "log_name": "s8"})
        code = cli.run(
            ["--task", "search", "--stage", "post-processing", "--dataset", "web",
             "--config", cfg, "--data-dir", str(search_root)]
        )
        assert code == 1
        record = (search_root / "log" / "s8" / "error.txt").read_text()
        assert record.startswith("ParseError:") and "qrels.div: not valid UTF-8" in record
        assert "Traceback" not in capsys.readouterr().out

    def test_config_file_not_utf8_is_a_config_error(self, search_root, tmp_path, capsys):
        cfg = tmp_path / "s.yaml"
        cfg.write_bytes(b"models: [xquad]\nlog_name: \xff\xfe\n")
        code = cli.run(
            ["--task", "search", "--stage", "post-processing", "--dataset", "web",
             "--config", str(cfg), "--data-dir", str(search_root)]
        )
        assert code == 1
        assert "error: ConfigError: cannot parse" in capsys.readouterr().out

    @pytest.mark.parametrize("content", [None, "seed: 2024-13-01\n"], ids=["directory", "bad-date"])
    def test_unreadable_config_file_is_a_config_error_with_record(self, search_root, tmp_path, capsys, content):
        """A config file that cannot be read names no log_name, so its record goes to the default log directory."""
        cfg = tmp_path / "s.yaml"
        if content is None:
            cfg.mkdir()
        else:
            cfg.write_text(content, encoding="utf-8")
        code = cli.run(
            ["--task", "search", "--stage", "post-processing", "--dataset", "web",
             "--config", str(cfg), "--data-dir", str(search_root)]
        )
        assert code == 1
        assert "Traceback" not in capsys.readouterr().out
        record = (search_root / "log" / "run" / "error.txt").read_text(encoding="utf-8")
        assert record.startswith(f"ConfigError: cannot parse {cfg}: ")

    @pytest.mark.parametrize("text", ["", "# only a comment\n"], ids=["empty", "comment"])
    def test_empty_config_file_loads_as_an_empty_mapping(self, tmp_path, text):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(text, encoding="utf-8")
        assert load_config_file(cfg) == {}

    def test_search_run_files_parse_back(self, search_root, tmp_path):
        from fairrank.ingest import parse_run_file

        cfg = user_config(tmp_path, "s.yaml", {"models": ["pm2"], "log_name": "s2"})
        cli.run(
            ["--task", "search", "--stage", "post-processing", "--dataset", "web",
             "--config", cfg, "--data-dir", str(search_root)]
        )
        out = parse_run_file(search_root / "log" / "s2" / "rerank-pm2.run", truncate=None)
        assert out.query_ids == ["1", "2", "3"]

    def _search(self, root, tmp_path, stage="post-processing", log_name="s1"):
        cfg = user_config(tmp_path, f"{log_name}.yaml", {"models": ["xquad", "pm2"], "log_name": log_name}
                          if stage == "post-processing" else {"log_name": log_name})
        return cli.run(["--task", "search", "--stage", stage, "--dataset", "web", "--config", cfg,
                        "--data-dir", str(root)])

    @staticmethod
    def _report_bytes(log_dir):
        return {p.name: p.read_bytes() for p in log_dir.iterdir() if p.name != "timing.txt"}

    def test_warm_run_writes_the_cold_run_report(self, search_root, tmp_path):
        assert self._search(search_root, tmp_path) == 0
        cold = self._report_bytes(search_root / "log" / "s1")
        assert sorted(p.name[: p.name.index("-")] for p in (search_root / "cache").iterdir()) == ["qrels", "run"]
        assert self._search(search_root, tmp_path) == 0
        assert self._report_bytes(search_root / "log" / "s1") == cold
        hashes = {name: hashlib.sha256(data).hexdigest() for name, data in cold.items()}
        assert hashes == {**hashes, **SEARCH_SHA256, **RUN_FILE_SHA256}

    def test_process_stage_leaves_the_inputs_parsed(self, search_root, tmp_path, monkeypatch):
        assert self._search(search_root, tmp_path, stage="process", log_name="p") == 0

        def parse(*args, **kwargs):
            raise AssertionError("parsed, not read from the cache")

        monkeypatch.setattr("fairrank.ingest._read", parse)
        assert self._search(search_root, tmp_path) == 0
        log_dir = search_root / "log" / "s1"
        assert {name: hashlib.sha256((log_dir / name).read_bytes()).hexdigest() for name in SEARCH_SHA256} == SEARCH_SHA256
        assert self._search(search_root, tmp_path, stage="evaluate", log_name="s3") == 0
        run_file = search_root / "log" / "s3" / "rerank-original.run"
        assert hashlib.sha256(run_file.read_bytes()).hexdigest() == ORIGINAL_RUN_SHA256

    def test_unwritable_cache_gives_the_same_report_and_leaves_no_temporary(self, search_root, tmp_path):
        log_dir = search_root / "log" / "s1"
        assert self._search(search_root, tmp_path) == 0
        cold = self._report_bytes(log_dir)
        for entry in (search_root / "cache").iterdir():
            entry.write_bytes(entry.read_bytes()[:100])
        (search_root / "cache").chmod(0o555)  # read-only, unless the tests run as root
        try:
            assert self._search(search_root, tmp_path) == 0
        finally:
            (search_root / "cache").chmod(0o755)
        assert self._report_bytes(log_dir) == cold
        shutil.rmtree(search_root / "cache")
        (search_root / "cache").write_text("not a directory", encoding="utf-8")
        assert self._search(search_root, tmp_path) == 0
        assert self._report_bytes(log_dir) == cold
        assert [p for p in search_root.rglob("*") if p.name.endswith(".tmp")] == []

    def test_search_evaluate_original_ranking(self, search_root, tmp_path):
        cfg = user_config(tmp_path, "s.yaml", {"log_name": "s3"})
        code = cli.run(
            ["--task", "search", "--stage", "evaluate", "--dataset", "web",
             "--config", cfg, "--data-dir", str(search_root)]
        )
        assert code == 0
        records = [
            json.loads(l) for l in (search_root / "log" / "s3" / "records.jsonl").read_text().splitlines()
        ]
        assert {r["model"] for r in records if r["record"] == "row"} == {"original"}
        run_file = search_root / "log" / "s3" / "rerank-original.run"
        assert hashlib.sha256(run_file.read_bytes()).hexdigest() == ORIGINAL_RUN_SHA256


@pytest.fixture
def no_stage_work(monkeypatch):
    """Fail the test if the CLI reaches the first read of any stage."""

    def started(*args, **kwargs):
        raise AssertionError("stage work started")

    for name in ("read_dataset", "read_scores", "parse_interactions", "parse_run_file", "parse_diversity_qrels"):
        monkeypatch.setattr(cli, name, started)


def _first_error_line(root, task, stage, dataset, payload, tmp_path):
    cfg = user_config(tmp_path, "bad.yaml", {"log_name": "bad", **payload})
    code = cli.run(["--task", task, "--stage", stage, "--dataset", dataset, "--config", cfg, "--data-dir", str(root)])
    assert code == 1
    log_dir = root / "log" / "bad"
    assert sorted(p.name for p in log_dir.iterdir()) == ["error.txt"]
    return (log_dir / "error.txt").read_text(encoding="utf-8").splitlines()[0]


class TestConfigValues:
    # (task, stage, config entries, first line of error.txt): values that, unchecked, escape as raw
    # exceptions, run with another meaning or fail only after the inputs are read.
    BAD = {
        "pool_size-not-int": ("search", "post-processing", {"pool_size": "x"},
                              "pool_size must be a positive integer, got 'x'"),
        "alpha-not-number": ("search", "post-processing", {"alpha": "x"}, "alpha must be a number in [0, 1), got 'x'"),
        "alpha-out-of-range": ("search", "post-processing", {"alpha": 1.5},
                               "alpha must be a number in [0, 1), got 1.5"),
        "ratios-zero": ("recommendation", "process", {"ratios": [1, 0, 0]},
                        "ratios must be a list of three positive numbers that sum to 1, got [1, 0, 0]"),
        "fair_rank-string": ("recommendation", "in-processing", {"fair_rank": "no"},
                             "fair_rank must be true or false, got 'no'"),
        "arrival-list": ("recommendation", "post-processing", {"arrival": ["x"]},
                         "arrival must be one of sorted, shuffle, got ['x']"),
        "K-bool-entry": ("search", "post-processing", {"K": [True]},
                         "K must be a positive integer or a non-empty list of them, got [True]"),
        "seed-bool": ("recommendation", "post-processing", {"seed": True},
                      "seed must be a non-negative integer, got True"),
        "pool_size-bool": ("search", "post-processing", {"pool_size": True},
                           "pool_size must be a positive integer, got True"),
        "mode-bogus": ("recommendation", "post-processing", {"mode": "bogus"},
                       "mode must be one of exposure, click, got 'bogus'"),
        "scores-nul": ("recommendation", "post-processing", {"scores": "log/\0"},
                       "scores must be a path, got 'log/\\x00'"),
        "target_shares-bogus": ("recommendation", "post-processing", {"target_shares": "bogus"},
                                "target_shares must be one of uniform, proportional, got 'bogus'"),
        "models-repeated": ("recommendation", "in-processing", {"models": ["bpr", "bpr"]},
                            "models must list distinct values, got ['bpr', 'bpr']"),
        "model-list-repeated": ("search", "post-processing", {"model": ["xquad", "pm2", "xquad"]},
                                "model must list distinct values, got ['xquad', 'pm2', 'xquad']"),
        "K-repeated": ("recommendation", "post-processing", {"K": [5, 5]}, "K must list distinct values, got [5, 5]"),
        # A float param must be finite: each of these ran to a report, min_regularizer's at ndcg 0.0.
        "welf-lam-nan": ("recommendation", "post-processing", {"model": "welf", "params": {"welf": {"lam": math.nan}}},
                         "parameter 'lam' of model 'welf' must be a finite number, got nan"),
        "cpfair-lam-nan": ("recommendation", "post-processing",
                           {"model": "cpfair", "params": {"cpfair": {"lam": math.nan}}},
                           "parameter 'lam' of model 'cpfair' must be a finite number, got nan"),
        "pmmf-lam-nan": ("recommendation", "post-processing", {"model": "pmmf", "params": {"pmmf": {"lam": math.nan}}},
                         "parameter 'lam' of model 'pmmf' must be a finite number, got nan"),
        "min_regularizer-lam-inf": ("recommendation", "post-processing",
                                    {"model": "min_regularizer", "params": {"min_regularizer": {"lam": math.inf}}},
                                    "parameter 'lam' of model 'min_regularizer' must be a finite number, got inf"),
    }

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_bad_value_is_a_config_error_before_stage_work(self, workspace, search_root, tmp_path, no_stage_work,
                                                           case):
        task, stage, payload, message = self.BAD[case]
        root, dataset = (workspace, "synth") if task == "recommendation" else (search_root, "web")
        assert _first_error_line(root, task, stage, dataset, payload, tmp_path) == f"ConfigError: {message}"

    @pytest.mark.parametrize(
        "task, stage, missing",
        [
            ("recommendation", "process", "interactions"),
            ("search", "process", "run_file"),
            ("search", "post-processing", "run_file"),
            ("search", "evaluate", "qrels"),
        ],
    )
    def test_missing_path_key_is_a_config_error_before_stage_work(self, search_root, tmp_path, no_stage_work,
                                                                  task, stage, missing):
        root, dataset = (raw_rec_root(tmp_path), "tiny") if task == "recommendation" else (search_root, "web")
        props = root / "properties" / "dataset" / f"{dataset}.yaml"
        entries = yaml.safe_load(props.read_text(encoding="utf-8"))
        del entries[missing]
        props.write_text(yaml.safe_dump(entries), encoding="utf-8")
        line = _first_error_line(root, task, stage, dataset, {}, tmp_path)
        assert line == f"ConfigError: {missing} must be given for ({task}, {stage})"

    def test_log_name_with_nul_is_a_config_error(self, workspace, tmp_path, capsys):
        cfg = user_config(tmp_path, "c.yaml", {"log_name": "a\0b"})
        argv = ["--task", "recommendation", "--stage", "post-processing", "--dataset", "synth",
                "--config", cfg, "--data-dir", str(workspace)]
        assert cli.run(argv) == 1
        assert "error: ConfigError: log_name must be a non-empty path, got 'a\\x00b'" in capsys.readouterr().out

    def test_unusable_log_name_leaves_no_log_directory(self, workspace, tmp_path, capsys):
        cfg = user_config(tmp_path, "c.yaml", {"log_name": ["x"], "model": "bogus"})
        argv = ["--task", "recommendation", "--stage", "post-processing", "--dataset", "synth",
                "--config", cfg, "--data-dir", str(workspace)]
        assert cli.run(argv) == 1
        assert "error: ConfigError: " in capsys.readouterr().out
        assert not (workspace / "log").exists()

    def test_param_bool_is_not_a_number(self):
        merged = {"model": "welf", "K": [5], "log_name": "x", "params": {"welf": {"iters": True}}}
        with pytest.raises(ConfigError, match="parameter 'iters' of model 'welf' must be an integer, got True"):
            validate_config(merged, "recommendation", "post-processing", "d")

    def test_readme_tables_every_key(self):
        lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
        header = next(i for i, line in enumerate(lines) if line.startswith("| Key |"))
        rows = itertools.takewhile(lambda line: line.startswith("|"), lines[header + 2:])
        assert [row.split("|")[1].strip() for row in rows] == [f"`{name}`" for name in KEYS]
