"""Config layering, CLI dispatch, and report emission."""

import hashlib
import json
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from fairrank import cli
from fairrank.config import config_merge, resolve_config, validate_config
from fairrank.core import GroupUtilityVector
from fairrank.errors import ConfigError, UnknownKeyError
from fairrank.metrics import MetricReport
from fairrank.report import BenchmarkReport, emit_report, fmt4
from fairrank.synth import init_workspace


def _hash_dir(paths):
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


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
        with pytest.raises(ConfigError, match="K entries"):
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


class TestEmitReport:
    def _report(self):
        rows = []
        allocations = []
        for model in ("topk", "pmmf"):
            for k in (5, 10):
                values = {f"{m}@{k}": 0.29250001 for m in ("ndcg", "gini")}
                rows.append((model, k, MetricReport(values=values)))
                allocations.append(
                    (model, k, GroupUtilityVector.from_values("item", "exposure", {"g1": 1.0, "g2": 2.0}))
                )
        return BenchmarkReport(
            task="recommendation",
            stage="post-processing",
            dataset="synth",
            rows=rows,
            allocations=allocations,
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

    def test_missing_metric_rejected(self):
        rows = [("topk", 5, MetricReport(values={"ndcg@5": 0.1}))]
        with pytest.raises(Exception):
            BenchmarkReport(
                task="recommendation",
                stage="post-processing",
                dataset="synth",
                rows=rows,
                allocations=[],
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

    def test_post_processing_leaves_scores_untouched(self, workspace, tmp_path):
        scores_path = workspace / "datasets" / "synth" / "scores.tsv"
        before = scores_path.read_bytes()
        cfg = user_config(tmp_path, "c.yaml", {"models": ["cpfair", "fairrec"], "K": [5], "log_name": "ro"})
        assert cli.run(
            ["--task", "recommendation", "--stage", "post-processing", "--dataset", "synth",
             "--config", cfg, "--data-dir", str(workspace)]
        ) == 0
        assert scores_path.read_bytes() == before

    def test_pre_processing_unsupported(self, workspace):
        code = cli.run(
            ["--task", "recommendation", "--stage", "pre-processing", "--dataset", "synth",
             "--data-dir", str(workspace)]
        )
        assert code == 1

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

    def test_evaluate_stage(self, workspace, tmp_path):
        cfg = user_config(tmp_path, "c.yaml", {"K": [5], "log_name": "ev"})
        code = cli.run(
            ["--task", "recommendation", "--stage", "evaluate", "--dataset", "synth",
             "--config", cfg, "--data-dir", str(workspace)]
        )
        assert code == 0
        table = (workspace / "log" / "ev" / "table.txt").read_text()
        assert "R-NDCG" not in table
        assert "NDCG" in table

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
        assert (log_dir / "scores-bpr" / "scores.tsv").exists()
        table = (log_dir / "table.txt").read_text()
        assert "NDCG" in table and "R-NDCG" not in table
        # Trained scores stream into the dataset dir for post-processing.
        assert (workspace / "datasets" / "synth" / "scores.tsv").exists()
        post_cfg = user_config(tmp_path, "p.yaml", {"models": ["pmmf"], "K": [5], "log_name": "ip-post"})
        assert cli.run(
            ["--task", "recommendation", "--stage", "post-processing", "--dataset", "synth",
             "--config", post_cfg, "--data-dir", str(workspace)]
        ) == 0

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


class TestCliSearch:
    @pytest.fixture
    def search_root(self, tmp_path, rng):
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

    def test_search_post_processing(self, search_root, tmp_path):
        cfg = user_config(tmp_path, "s.yaml", {"models": ["xquad", "pm2"], "log_name": "s1"})
        code = cli.run(
            ["--task", "search", "--stage", "post-processing", "--dataset", "web",
             "--config", cfg, "--data-dir", str(search_root)]
        )
        assert code == 0
        log_dir = search_root / "log" / "s1"
        assert {name: hashlib.sha256((log_dir / name).read_bytes()).hexdigest() for name in SEARCH_SHA256} == SEARCH_SHA256
        table = (search_root / "log" / "s1" / "table.txt").read_text()
        for col in ("ERR-IA", "alpha-nDCG", "S-rec"):
            assert col in table
        records = [
            json.loads(l) for l in (search_root / "log" / "s1" / "records.jsonl").read_text().splitlines()
        ]
        ks = {r["k"] for r in records if r["record"] == "row"}
        assert ks == {5, 10, 20}
        assert (search_root / "log" / "s1" / "rerank-xquad.run").exists()

    def test_search_run_files_parse_back(self, search_root, tmp_path):
        from fairrank.ingest import parse_run_file

        cfg = user_config(tmp_path, "s.yaml", {"models": ["pm2"], "log_name": "s2"})
        cli.run(
            ["--task", "search", "--stage", "post-processing", "--dataset", "web",
             "--config", cfg, "--data-dir", str(search_root)]
        )
        out = parse_run_file(search_root / "log" / "s2" / "rerank-pm2.run", truncate=None)
        assert set(out.queries) == {"1", "2", "3"}

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
