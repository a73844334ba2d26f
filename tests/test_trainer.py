"""Pairwise trainer, fairness hooks, and gradient correctness."""

import math
import re

import numpy as np
import pytest
import yaml

from fairrank import cli
from fairrank.core import Catalog, InteractionLog, simplex_tolerance
from fairrank.errors import (
    DivergenceError,
    InvariantViolation,
    IoError,
    ParseError,
    UnknownEntity,
    VersionError,
    ZeroPopularity,
)
from fairrank.ingest import SplitDataset, filter_and_split, write_dataset
from fairrank.trainer import (
    MFModel,
    TrainConfig,
    TrainHooks,
    fairdual_step,
    fairness_penalty,
    ips_weights,
    load_model,
    minmax_sampler_update,
    predict,
    save_model,
    train,
)

from conftest import make_catalog, with_bad_line_2
from reference_ingest import Interaction, log_of, records_of
from reference_trainer import bpr_triple_loss, reference_train, score


def planted_dataset(
    n_per_cluster: int = 20,
    items_per_cluster: int = 20,
    preferred: int = 12,
    other: int = 1,
    seed: int = 0,
) -> SplitDataset:
    """Two user clusters, two item groups; users mostly pick their own group.

    Cluster users consume a shared hot pool plus one noisy foreign pick, so
    held-out positives are separable from the (cross-cluster) negatives.
    """
    rng = np.random.default_rng(seed)
    users = [f"u{i:03d}" for i in range(2 * n_per_cluster)]
    items = [f"i{j:03d}" for j in range(2 * items_per_cluster)]
    item_groups = {it: frozenset({"gA" if j < items_per_cluster else "gB"}) for j, it in enumerate(items)}
    catalog = Catalog(users=users, items=items, groups=["gA", "gB"], item_groups=item_groups)
    records = []
    ts = 0
    for ui, user in enumerate(users):
        own = list(range(0, items_per_cluster)) if ui < n_per_cluster else list(range(items_per_cluster, 2 * items_per_cluster))
        foreign = list(range(items_per_cluster, 2 * items_per_cluster)) if ui < n_per_cluster else list(range(0, items_per_cluster))
        chosen = own[:preferred] + list(rng.choice(foreign[: other + 1], size=other, replace=False))
        rng.shuffle(chosen)
        for j in chosen:
            ts += 1
            records.append(Interaction(user, items[j], 1.0, ts))
    return filter_and_split(log_of(records), min_interactions=5, catalog=catalog)


def biased_dataset(seed: int = 3) -> SplitDataset:
    """Group gA items vastly more popular than gB items."""
    rng = np.random.default_rng(seed)
    users = [f"u{i:03d}" for i in range(30)]
    items = [f"i{j:03d}" for j in range(30)]
    item_groups = {it: frozenset({"gA" if j < 15 else "gB"}) for j, it in enumerate(items)}
    catalog = Catalog(users=users, items=items, groups=["gA", "gB"], item_groups=item_groups)
    records = []
    ts = 0
    for user in users:
        popular = rng.choice(15, size=9, replace=False)
        rare = 15 + rng.choice(15, size=2, replace=False)
        chosen = list(popular) + list(rare)
        rng.shuffle(chosen)
        for j in chosen:
            ts += 1
            records.append(Interaction(user, items[int(j)], 1.0, ts))
    return filter_and_split(log_of(records), min_interactions=5, catalog=catalog)


def pairwise_auc(model: MFModel, dataset: SplitDataset) -> float:
    """Held-out AUC: P(score(test positive) > score(never-interacted item))."""
    interacted: dict[str, set[str]] = {}
    for split in dataset.splits().values():
        for rec in records_of(split):
            interacted.setdefault(rec.user, set()).add(rec.item)
    wins, total = 0.0, 0
    for rec in records_of(dataset.test):
        negs = [it for it in dataset.catalog.items if it not in interacted[rec.user]]
        pos_score = score(model, rec.user, rec.item)
        for neg in negs:
            neg_score = score(model, rec.user, neg)
            if pos_score > neg_score:
                wins += 1.0
            elif pos_score == neg_score:
                wins += 0.5
            total += 1
    return wins / total


def reference_bpr(dataset: SplitDataset, config: TrainConfig):
    """Hook-free BPR loop mirroring the production arithmetic step for step."""
    cat = dataset.catalog
    users, items = list(cat.users), list(cat.items)
    u_index = {u: i for i, u in enumerate(users)}
    i_index = {it: j for j, it in enumerate(items)}
    pos_mask = np.zeros((len(users), len(items)), dtype=bool)
    pos_u, pos_i = [], []
    for rec in records_of(dataset.train):
        pos_mask[u_index[rec.user], i_index[rec.item]] = True
        pos_u.append(u_index[rec.user])
        pos_i.append(i_index[rec.item])
    pos_u, pos_i = np.array(pos_u), np.array(pos_i)
    n_pos = pos_u.size

    rng = np.random.default_rng(config.seed)
    P = rng.normal(0.0, 0.1, size=(len(users), config.dim))
    Q = rng.normal(0.0, 0.1, size=(len(items), config.dim))
    for _ in range(config.epochs):
        order = rng.permutation(n_pos)
        for start in range(0, n_pos, config.batch_size):
            batch = order[start : start + config.batch_size]
            bu, bi = pos_u[batch], pos_i[batch]
            bn = rng.integers(0, len(items), size=batch.size)
            while True:
                bad = np.flatnonzero(pos_mask[bu, bn])
                if bad.size == 0:
                    break
                bn[bad] = rng.integers(0, len(items), size=bad.size)
            Pu, Qp, Qn = P[bu], Q[bi], Q[bn]
            x = np.einsum("bd,bd->b", Pu, Qp) - np.einsum("bd,bd->b", Pu, Qn)
            sig = 1.0 / (1.0 + np.exp(x))
            coef = np.ones(batch.size) * sig
            lr, l2 = config.lr, config.l2
            np.add.at(P, bu, -lr * (-coef[:, None] * (Qp - Qn) + 2.0 * l2 * Pu))
            np.add.at(Q, bi, -lr * (-coef[:, None] * Pu + 2.0 * l2 * Qp))
            np.add.at(Q, bn, -lr * (coef[:, None] * Pu + 2.0 * l2 * Qn))
    return P, Q


class TestIpsWeights:
    def _catalog(self):
        return make_catalog({"i1": {"g1"}, "i2": {"g2"}}, users=["u"])

    def _log(self, counts: dict[str, int]) -> InteractionLog:
        records = []
        ts = 0
        for item, n in counts.items():
            for _ in range(n):
                ts += 1
                records.append(Interaction("u", item, 1.0, ts))
        return log_of(records)

    def test_reciprocal_and_mean_one(self):
        w = ips_weights(self._log({"i1": 10, "i2": 5}), self._catalog())
        assert w.tolist() == pytest.approx([2 / 3, 4 / 3])

    def test_equal_popularity_all_one(self):
        w = ips_weights(self._log({"i1": 7, "i2": 7}), self._catalog())
        assert w.tolist() == pytest.approx([1.0, 1.0])

    def test_three_group_arithmetic(self):
        catalog = make_catalog({"i1": {"g1"}, "i2": {"g2"}, "i3": {"g3"}}, users=["u"])
        w = ips_weights(self._log({"i1": 1, "i2": 3, "i3": 4}), catalog)
        mean_raw = (1.0 + 1 / 3 + 1 / 4) / 3
        assert w.tolist() == pytest.approx([1.0 / mean_raw, (1 / 3) / mean_raw, (1 / 4) / mean_raw])

    def test_zero_popularity_raises_and_smoothing_helps(self):
        log = self._log({"i1": 4})
        with pytest.raises(ZeroPopularity, match="^group 'g2' has zero popularity"):
            ips_weights(log, self._catalog())
        w = ips_weights(log, self._catalog(), smooth=1.0)
        assert w[1] > w[0] > 0


def dual_batch(groups: list[str], batch: list[set[str]]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct group sets of ``batch`` as bool rows over ``groups``, and each sample's set."""
    sets = sorted({frozenset(gs) for gs in batch}, key=sorted)
    return np.array([[g in gs for g in groups] for gs in sets]), np.array([sets.index(frozenset(gs)) for gs in batch])


def on_simplex(prices: np.ndarray, budget: float, tol: float) -> bool:
    return abs(sum(prices.tolist()) - budget) <= tol and (prices >= 0).all()


class TestFairdualStep:
    def test_zero_budget_all_ones(self):
        prices = np.zeros(2)
        weights, new_prices = fairdual_step(prices, 0.0, 0.1, *dual_batch(["a", "b"], [{"a"}, {"b"}]))
        assert np.all(weights == 1.0)
        assert np.array_equal(new_prices, prices)

    def test_balanced_batch_is_fixed_point(self):
        prices = np.full(2, 1.0)
        weights, new_prices = fairdual_step(prices, 2.0, 0.1, *dual_batch(["a", "b"], [{"a"}, {"b"}]))
        assert np.allclose(weights, 1.0)
        assert new_prices.tolist() == pytest.approx(prices.tolist())

    def test_starved_group_price_increases(self):
        prices = np.full(2, 1.0)
        weights, new_prices = fairdual_step(prices, 2.0, 0.1, *dual_batch(["a", "b"], [{"b"}, {"b"}]))
        assert new_prices[0] > prices[0]
        assert new_prices[1] < prices[1]
        assert on_simplex(new_prices, 2.0, tol=1e-9)

    def test_simplex_preserved_over_many_steps(self, rng):
        prices = np.full(3, 0.5)
        pool = [{"a"}, {"b"}, {"c"}, {"a", "b"}]
        for _ in range(50):
            batch = [pool[i] for i in rng.integers(0, len(pool), size=8)]
            _, prices = fairdual_step(prices, 1.5, 0.3, *dual_batch(["a", "b", "c"], batch))
            assert on_simplex(prices, 1.5, tol=1e-6)

    def test_budget_far_above_one_stays_on_the_simplex(self, rng):
        # A fixed tolerance of 1e-6 refused budget 1e10: the prices' sum rounds by about n * eps * budget.
        groups = [f"g{i}" for i in range(20)]
        prices = np.full(20, 1e12 / 20)
        for _ in range(30):
            batch = [set(rng.choice(groups, int(rng.integers(1, 4)), replace=False).tolist()) for _ in range(8)]
            _, prices = fairdual_step(prices, 1e12, 0.5, *dual_batch(groups, batch))
            assert on_simplex(prices, 1e12, tol=simplex_tolerance(20, 1e12))

    def test_prices_off_the_simplex_rejected(self):
        with pytest.raises(InvariantViolation, match="off the simplex of budget 1.0"):
            fairdual_step(np.array([0.7, 0.7]), 1.0, 0.1, *dual_batch(["a", "b"], [{"a"}]))


def first_update(losses: list[float], sampler_step: float = 1.0):
    """The minmax update of a first batch in which every group has a loss."""
    n = len(losses)
    unseen, present = np.zeros(n, dtype=bool), np.ones(n, dtype=bool)
    return minmax_sampler_update(np.zeros(n), unseen, np.array(losses), present, sampler_step)


class TestMinmaxSampler:
    def test_equal_losses_uniform(self):
        q, _, _ = first_update([1.0, 1.0])
        assert q.tolist() == pytest.approx([0.5, 0.5])

    def test_larger_loss_oversampled(self):
        q, _, _ = first_update([0.5, 3.0])
        assert q[1] > 0.5

    def test_softmax_arithmetic(self):
        q, _, _ = first_update([1.0, 2.0])
        assert q[0] == pytest.approx(0.2689, abs=1e-4)
        assert q[1] == pytest.approx(0.7311, abs=1e-4)

    def test_ema_update_rule(self):
        seen = np.array([True, False])
        _, ema, _ = minmax_sampler_update(np.array([1.0, 0.0]), seen, np.array([2.0, 0.0]), seen)
        assert ema[0] == pytest.approx(0.9 * 1.0 + 0.1 * 2.0)

    def test_unseen_group_gets_the_largest_probability(self):
        present = np.array([True, True, False])
        q, ema, seen = minmax_sampler_update(np.zeros(3), np.zeros(3, dtype=bool), np.array([1.0, 2.0, 0.0]), present)
        assert seen.tolist() == [True, True, False] and ema.tolist() == [1.0, 2.0, 0.0]
        assert q[2] == q[1] > q[0]


def batch_of(groups: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Single-group samples with the given scores, group after group, and their rows over the sorted group names."""
    names = sorted(groups)
    member = np.repeat(np.eye(len(names), dtype=bool), [len(groups[g]) for g in names], axis=0)
    return np.concatenate([groups[g] for g in names]), member


def penalty(groups: dict[str, np.ndarray], kind: str) -> float:
    return fairness_penalty(*batch_of(groups), kind)[0]


class TestFairnessPenalty:
    def test_equal_means_zero(self):
        groups = {"a": np.array([1.0, 1.0]), "b": np.array([0.5, 1.5])}
        assert penalty(groups, "reg") == 0.0
        assert penalty(groups, "focf") == 0.0

    def test_reg_definition(self):
        groups = {"a": np.array([1.0]), "b": np.array([0.0])}
        assert penalty(groups, "reg") == pytest.approx(1.0)

    def test_focf_hand_value(self):
        groups = {"a": np.array([1.0]), "b": np.array([0.0]), "c": np.array([0.5])}
        assert penalty(groups, "focf") == pytest.approx(1.0)

    def test_single_group_zero(self):
        assert penalty({"a": np.array([3.0, 4.0])}, "reg") == 0.0

    def test_reg_nonnegative_zero_iff_equal(self, rng):
        for _ in range(25):
            groups = {
                f"g{i}": rng.normal(size=int(rng.integers(1, 5)))
                for i in range(int(rng.integers(2, 5)))
            }
            assert penalty(groups, "reg") >= 0.0
        equal = {"a": np.array([2.0]), "b": np.array([2.0])}
        assert penalty(equal, "reg") == 0.0

    def test_gradients_match_finite_differences(self, rng):
        for kind in ("reg", "focf"):
            scores, member = batch_of({f"g{i}": rng.normal(size=int(rng.integers(2, 5))) for i in range(3)})
            _, grads = fairness_penalty(scores, member, kind)
            h = 1e-6
            for j in range(scores.size):
                plus, minus = scores.copy(), scores.copy()
                plus[j] += h
                minus[j] -= h
                fd = (fairness_penalty(plus, member, kind)[0] - fairness_penalty(minus, member, kind)[0]) / (2 * h)
                assert grads[j] == pytest.approx(fd, abs=1e-5)


class TestTripleGradients:
    def test_matches_central_differences(self, rng):
        h = 1e-5
        for use_bias in (False, True):
            p = rng.normal(size=6)
            qp = rng.normal(size=6)
            qn = rng.normal(size=6)
            bp, bn = float(rng.normal()), float(rng.normal())
            w, l2 = 1.7, 0.01
            _, g_pu, g_qp, g_qn, g_bp, g_bn = bpr_triple_loss(p, qp, qn, w, l2, bp, bn, use_bias)

            def loss_at(pv, qpv, qnv, bpv, bnv):
                return bpr_triple_loss(pv, qpv, qnv, w, l2, bpv, bnv, use_bias)[0]

            for vec, grad in ((p, g_pu), (qp, g_qp), (qn, g_qn)):
                for j in range(vec.size):
                    plus, minus = vec.copy(), vec.copy()
                    plus[j] += h
                    minus[j] -= h
                    args_p = [p, qp, qn]
                    args_m = [p, qp, qn]
                    args_p[[id(p), id(qp), id(qn)].index(id(vec))] = plus
                    args_m[[id(p), id(qp), id(qn)].index(id(vec))] = minus
                    fd = (loss_at(*args_p, bp, bn) - loss_at(*args_m, bp, bn)) / (2 * h)
                    rel = abs(grad[j] - fd) / max(abs(fd), 1e-8)
                    assert rel < 1e-4
            if use_bias:
                fd_bp = (loss_at(p, qp, qn, bp + h, bn) - loss_at(p, qp, qn, bp - h, bn)) / (2 * h)
                fd_bn = (loss_at(p, qp, qn, bp, bn + h) - loss_at(p, qp, qn, bp, bn - h)) / (2 * h)
                assert g_bp == pytest.approx(fd_bp, rel=1e-4, abs=1e-6)
                assert g_bn == pytest.approx(fd_bn, rel=1e-4, abs=1e-6)


class TestTrain:
    def test_loss_decreases_on_planted_fixture(self):
        dataset = planted_dataset()
        config = TrainConfig(dim=16, epochs=10, lr=0.1, l2=1e-4, seed=1)
        model = train(dataset, config, TrainHooks())
        assert model.loss_curve[-1] < model.loss_curve[0]

    def test_planted_preference_auc(self):
        dataset = planted_dataset()
        config = TrainConfig(dim=16, epochs=50, lr=0.1, l2=1e-4, seed=1)
        model = train(dataset, config, TrainHooks())
        assert pairwise_auc(model, dataset) >= 0.9

    def test_bit_reproducible(self):
        dataset = planted_dataset(n_per_cluster=6, items_per_cluster=8, preferred=5, other=1)
        config = TrainConfig(dim=8, epochs=5, seed=11)
        m1 = train(dataset, config, TrainHooks())
        m2 = train(dataset, config, TrainHooks())
        assert np.array_equal(m1.user_vecs, m2.user_vecs)
        assert np.array_equal(m1.item_vecs, m2.item_vecs)
        assert m1.loss_curve == m2.loss_curve

    def test_neutral_hooks_bit_match_reference(self):
        dataset = planted_dataset(n_per_cluster=6, items_per_cluster=8, preferred=5, other=1)
        config = TrainConfig(dim=8, epochs=4, seed=5)
        model = train(dataset, config, TrainHooks())
        P_ref, Q_ref = reference_bpr(dataset, config)
        assert np.array_equal(model.user_vecs, P_ref)
        assert np.array_equal(model.item_vecs, Q_ref)

    def test_reg_hook_shrinks_group_gap(self):
        dataset = biased_dataset()

        def group_gap(model):
            sums = {"gA": [], "gB": []}
            for rec in records_of(dataset.train):
                g = next(iter(dataset.catalog.item_groups[rec.item]))
                sums[g].append(score(model, rec.user, rec.item))
            return abs(float(np.mean(sums["gA"])) - float(np.mean(sums["gB"])))

        config = TrainConfig(dim=16, epochs=30, lr=0.1, l2=1e-4, seed=2)
        plain = train(dataset, config, TrainHooks())
        regularized = train(dataset, config, TrainHooks(regularizer="reg", reg_weight=10.0))
        assert group_gap(regularized) < group_gap(plain)

    def test_divergence_detected(self):
        dataset = planted_dataset(n_per_cluster=4, items_per_cluster=6, preferred=4, other=1)
        config = TrainConfig(dim=8, epochs=30, lr=1e4, l2=10.0, seed=0)
        with pytest.raises(DivergenceError):
            with np.errstate(all="ignore"):
                train(dataset, config, TrainHooks())

    def test_hooked_variants_run(self):
        dataset = planted_dataset(n_per_cluster=5, items_per_cluster=6, preferred=4, other=1)
        config = TrainConfig(dim=8, epochs=3, seed=7, ips_smooth=1.0)
        for hooks in (
            TrainHooks(weight_provider="ips"),
            TrainHooks(weight_provider="fairdual", dual_budget=1.0),
            TrainHooks(group_sampler="minmax"),
            TrainHooks(regularizer="focf", reg_weight=0.5),
        ):
            model = train(dataset, config, hooks)
            assert np.all(np.isfinite(model.user_vecs))


def sparse_group_dataset() -> SplitDataset:
    """Five positives over four single-group items: one epoch's draws rarely reach every group."""
    items = [f"i{j}" for j in range(8)]
    groups = [f"g{g}" for g in range(4)]
    catalog = Catalog(
        users=["u0", "u1", "u2"],
        items=items,
        groups=groups,
        item_groups={item: frozenset({groups[j % 4]}) for j, item in enumerate(items)},
    )

    def log(picks, t0):
        return log_of((u, i, 1.0, t0 + t) for t, (u, i) in enumerate(picks))

    train_log = log([("u0", "i0"), ("u0", "i5"), ("u1", "i2"), ("u2", "i3"), ("u2", "i6")], 0)
    test_log = log([("u0", "i1"), ("u1", "i4"), ("u2", "i7")], 10)
    return SplitDataset(train_log, log([], 0), test_log, catalog, ((0.8, 0.1, 0.1), 1))


class TestMinmaxUnseenGroup:
    """An eligible group absent from every batch so far is drawn with the largest seen probability."""

    CONFIG = {"dim": 2, "epochs": 3, "batch_size": 2}
    HOOKS = TrainHooks(group_sampler="minmax", sampler_step=5.0)

    def test_train_matches_reference(self):
        # Seed 42 draws no g2 positive in the first epoch, which used to end in KeyError: 'g2'.
        dataset = sparse_group_dataset()
        config = TrainConfig(seed=42, **self.CONFIG)
        model = train(dataset, config, self.HOOKS)
        expected = reference_train(dataset, config, self.HOOKS)
        assert np.array_equal(model.user_vecs, expected.user_vecs)
        assert np.array_equal(model.item_vecs, expected.item_vecs)
        assert model.loss_curve == expected.loss_curve
        assert len(model.loss_curve) == 3 and np.all(np.isfinite(model.loss_curve))

    def test_cli_run_succeeds(self, tmp_path, capsys):
        write_dataset(sparse_group_dataset(), tmp_path / "datasets" / "sparse")
        cfg = tmp_path / "c.yaml"
        params = {**self.CONFIG, "sampler_step": self.HOOKS.sampler_step}
        payload = {"model": "minmax_sgd", "K": [2], "log_name": "mm", "params": {"minmax_sgd": params}}
        cfg.write_text(yaml.safe_dump(payload), encoding="utf-8")
        argv = ["--task", "recommendation", "--stage", "in-processing", "--dataset", "sparse",
                "--config", str(cfg), "--data-dir", str(tmp_path)]
        assert cli.run(argv) == 0
        assert "Traceback" not in capsys.readouterr().err
        log_dir = tmp_path / "log" / "mm"
        assert not (log_dir / "error.txt").exists()
        assert (log_dir / "scores-minmax_sgd" / "scores.npz").is_file()


class TestPredict:
    def _model(self, P, Q, users, items, dim):
        return MFModel(
            user_ids=users,
            item_ids=items,
            user_vecs=P,
            item_vecs=Q,
            item_bias=None,
            config=TrainConfig(dim=dim, epochs=1),
        )

    def test_zero_embeddings_zero_scores(self):
        model = self._model(np.zeros((1, 4)), np.zeros((2, 4)), ["u"], ["i1", "i2"], 4)
        scores = predict(model, ["u"])
        assert scores.row("u") == {"i1": 0.0, "i2": 0.0}

    def test_orthogonal_identity(self):
        P = np.eye(2)
        Q = np.eye(2)
        model = self._model(P, Q, ["u1", "u2"], ["i1", "i2"], 2)
        scores = predict(model, ["u1", "u2"])
        assert scores.row("u1")["i1"] == 1.0
        assert scores.row("u1")["i2"] == 0.0
        assert scores.row("u2")["i2"] == 1.0

    def test_matches_naive_dot_products(self, rng):
        P = rng.normal(size=(3, 5))
        Q = rng.normal(size=(4, 5))
        users = ["u1", "u2", "u3"]
        items = ["i1", "i2", "i3", "i4"]
        model = self._model(P, Q, users, items, 5)
        scores = predict(model, users)
        for ui, u in enumerate(users):
            for ii, it in enumerate(items):
                assert scores.row(u)[it] == pytest.approx(float(P[ui] @ Q[ii]), abs=1e-12)

    def test_exclude_train_filter(self):
        dataset = planted_dataset(n_per_cluster=4, items_per_cluster=6, preferred=4, other=1)
        model = train(dataset, TrainConfig(dim=4, epochs=1, seed=0), TrainHooks())
        scores = predict(model, dataset.catalog.users, exclude=dataset.train)
        banned = {}
        for rec in records_of(dataset.train):
            banned.setdefault(rec.user, set()).add(rec.item)
        assert banned
        for user, items in banned.items():
            assert not (set(scores.row(user)) & items)
            assert len(scores.row(user)) == len(dataset.catalog.items) - len(items)

    def test_exclude_skips_pairs_outside_the_rows(self):
        model = self._model(np.eye(2), np.eye(2), ["u1", "u2"], ["i1", "i2"], 2)
        exclude = log_of([("u2", "i2", 1.0, 0), ("u1", "i1", 0.0, 1), ("u1", "gone", 1.0, 2), ("u2", "i1", 1.0, 3)])
        scores = predict(model, ["u1"], exclude=exclude)
        assert scores.row("u1") == {"i2": 0.0}

    def test_unknown_user(self):
        model = self._model(np.zeros((1, 2)), np.zeros((1, 2)), ["u"], ["i"], 2)
        with pytest.raises(UnknownEntity):
            predict(model, ["ghost"])


@pytest.mark.parametrize(
    "make, field, value, message",
    [
        (TrainConfig, "lr", math.nan, "lr must be positive and l2 non-negative"),
        (TrainConfig, "lr", math.inf, "lr must be positive and l2 non-negative"),
        (TrainConfig, "l2", math.nan, "lr must be positive and l2 non-negative"),
        (TrainConfig, "l2", math.inf, "lr must be positive and l2 non-negative"),
        # A negative smooth lowers each group's popularity: a run trained on it or ended in ZeroPopularity.
        (TrainConfig, "ips_smooth", -0.5, "smooth must be non-negative and finite, got -0.5"),
        (TrainConfig, "ips_smooth", math.nan, "smooth must be non-negative and finite, got nan"),
        (TrainConfig, "ips_smooth", math.inf, "smooth must be non-negative and finite, got inf"),
        (TrainConfig, "ips_smooth", -math.inf, "smooth must be non-negative and finite, got -inf"),
        (TrainHooks, "reg_weight", math.nan, "reg_weight must be non-negative"),
        (TrainHooks, "reg_weight", math.inf, "reg_weight must be non-negative"),
        (TrainHooks, "dual_budget", math.nan, "dual budget must be non-negative"),
        (TrainHooks, "dual_step", math.nan, "dual step size must be positive"),
        (TrainHooks, "dual_step", math.inf, "dual step size must be positive"),
        (TrainHooks, "sampler_step", math.nan, "sampler_step must be finite"),
        (TrainHooks, "sampler_step", -math.inf, "sampler_step must be finite"),
    ],
    ids=lambda v: repr(v) if isinstance(v, float) else getattr(v, "__name__", None),
)
def test_non_finite_hyperparameter_is_rejected(make, field, value, message):
    # Each comparison in these guards is False for NaN, so a guard written as
    # "refuse if value < 0" let every one of these through.
    with pytest.raises(InvariantViolation, match=f"^{message}$"):
        make(**{field: value})


class TestModelInvariants:
    """The model constructor rejects a model that predict or a checkpoint would misread."""

    @pytest.mark.parametrize(
        "users, items, bias, use_item_bias, message",
        [
            (["u0", "u0"], ["i0", "i1"], None, False, "duplicate user or item ids in model"),
            (["u0", "u1"], ["i0", "i0"], None, False, "duplicate user or item ids in model"),
            (["u0", "u1"], ["i0", "i1"], np.zeros(5), True, "item bias shape mismatch"),
            (["u0", "u1"], ["i0", "i1"], np.zeros(2), False, "item bias given with use_item_bias=False"),
            (["u0", "u1"], ["i0", "i1"], None, True, "item bias missing with use_item_bias=True"),
            (["u0", "u1"], ["i0", "i1"], np.array([0.0, np.inf]), True, "non-finite model parameter"),
        ],
        ids=["duplicate-user", "duplicate-item", "bias-shape", "undeclared-bias", "missing-bias", "non-finite"],
    )
    def test_inconsistent_model_is_rejected(self, users, items, bias, use_item_bias, message):
        config = TrainConfig(dim=2, use_item_bias=use_item_bias)
        with pytest.raises(InvariantViolation, match=f"^{message}$"):
            MFModel(users, items, np.zeros((2, 2)), np.zeros((2, 2)), bias, config)

    def test_parameters_are_held_as_float64(self, tmp_path):
        model = MFModel(["u0"], ["i0", "i1"], np.full((1, 2), 0.1, np.float32), np.arange(4).reshape(2, 2),
                        [0.5, 1], TrainConfig(dim=2, use_item_bias=True))
        save_model(model, tmp_path)
        back = load_model(tmp_path)
        for name in ("user_vecs", "item_vecs", "item_bias"):
            assert getattr(model, name).dtype == getattr(back, name).dtype == np.float64
            assert getattr(back, name).tobytes() == getattr(model, name).tobytes()
        assert model.user_vecs[0, 0] == np.float32(0.1)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        dataset = planted_dataset(n_per_cluster=4, items_per_cluster=6, preferred=4, other=1)
        for use_bias in (False, True):
            config = TrainConfig(dim=6, epochs=2, seed=9, use_item_bias=use_bias)
            model = train(dataset, config, TrainHooks())
            save_model(model, tmp_path / f"ckpt{use_bias}", hooks=TrainHooks())
            back = load_model(tmp_path / f"ckpt{use_bias}")
            assert back.user_ids == model.user_ids
            assert back.item_ids == model.item_ids
            assert np.array_equal(back.user_vecs, model.user_vecs)
            assert np.array_equal(back.item_vecs, model.item_vecs)
            if use_bias:
                assert np.array_equal(back.item_bias, model.item_bias)
            assert back.loss_curve == model.loss_curve
            # Scores survive the round trip bit for bit.
            users = dataset.catalog.users[:3]
            assert predict(back, users) == predict(model, users)

    def test_retrain_from_checkpoint_is_bit_identical(self, tmp_path):
        dataset = planted_dataset(n_per_cluster=4, items_per_cluster=6, preferred=4, other=1)
        for name, config, hooks in (
            ("ips", TrainConfig(dim=4, epochs=2, seed=4, ips_smooth=1.0), TrainHooks(weight_provider="ips")),
            ("fairdual", TrainConfig(dim=4, epochs=2, seed=4, use_item_bias=True),
             TrainHooks(weight_provider="fairdual", dual_budget=2.0, dual_step=0.35)),
        ):
            model = train(dataset, config, hooks)
            save_model(model, tmp_path / name, hooks=hooks)
            back = load_model(tmp_path / name)
            assert back.config == config
            manifest = yaml.safe_load((tmp_path / name / "manifest.yaml").read_text(encoding="utf-8"))
            again = train(dataset, back.config, TrainHooks(**manifest["hooks"]))
            assert np.array_equal(again.user_vecs, model.user_vecs)
            assert np.array_equal(again.item_vecs, model.item_vecs)
            if config.use_item_bias:
                assert np.array_equal(again.item_bias, model.item_bias)

    def test_checkpoint_without_ips_smooth_loads_as_zero(self, tmp_path):
        dataset = planted_dataset(n_per_cluster=4, items_per_cluster=6, preferred=4, other=1)
        model = train(dataset, TrainConfig(dim=4, epochs=1, seed=0, ips_smooth=1.0), TrainHooks())
        save_model(model, tmp_path / "ckpt")
        manifest = tmp_path / "ckpt" / "manifest.yaml"
        manifest.write_text(manifest.read_text().replace("ips_smooth: 1.0\n", ""))
        assert load_model(tmp_path / "ckpt").config.ips_smooth == 0.0

    @pytest.mark.parametrize("name", ["manifest.yaml"])
    def test_file_not_utf8_is_a_parse_error(self, tmp_path, name):
        dataset = planted_dataset(n_per_cluster=4, items_per_cluster=6, preferred=4, other=1)
        save_model(train(dataset, TrainConfig(dim=4, epochs=1, seed=0), TrainHooks()), tmp_path, hooks=TrainHooks())
        with_bad_line_2(tmp_path / name)
        with pytest.raises(ParseError, match=rf"{name}: not valid UTF-8"):
            load_model(tmp_path)

    def test_store_that_is_not_an_archive_is_a_parse_error(self, tmp_path):
        dataset = planted_dataset(n_per_cluster=4, items_per_cluster=6, preferred=4, other=1)
        save_model(train(dataset, TrainConfig(dim=4, epochs=1, seed=0), TrainHooks()), tmp_path, hooks=TrainHooks())
        store = tmp_path / "model.npz"
        store.write_text("u0\t0.5\t0.25\t-1.0\t2.0\n", encoding="utf-8")
        message = f"{store}: not a readable model store (BadZipFile: File is not a zip file)"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            load_model(tmp_path)

    @staticmethod
    def rewrite_store(directory, edit):
        """Replace the members of ``directory``'s ``model.npz`` by ``edit`` of them, in the same order."""
        with np.load(directory / "model.npz") as store:
            arrays = dict(store)
        np.savez(directory / "model.npz", **edit(arrays))

    @pytest.mark.parametrize(
        "use_bias, edit, message",
        [
            (False, lambda a: {**a, "user_vecs": a["user_vecs"].astype("U8")},
             "member user_vecs is 2-d <U8, expected 2-d float64"),
            (False, lambda a: {**a, "user_vecs": a["user_vecs"][:, :-1]}, "user embedding shape mismatch"),
            (False, lambda a: {**a, "item_vecs": np.hstack([a["item_vecs"], a["item_vecs"][:, :1]])},
             "item embedding shape mismatch"),
            (True, lambda a: {**a, "item_bias": a["item_bias"][:-1]}, "item bias shape mismatch"),
        ],
        ids=["non-numeric", "short-row", "long-row", "missing-bias"],
    )
    def test_malformed_table_line_is_a_parse_error(self, tmp_path, use_bias, edit, message):
        dataset = planted_dataset(n_per_cluster=4, items_per_cluster=6, preferred=4, other=1)
        model = train(dataset, TrainConfig(dim=4, epochs=1, seed=0, use_item_bias=use_bias), TrainHooks())
        save_model(model, tmp_path, hooks=TrainHooks())
        self.rewrite_store(tmp_path, edit)
        store = tmp_path / "model.npz"
        with pytest.raises(ParseError, match=f"^{re.escape(f'{store}: {message}')}$"):
            load_model(tmp_path)

    def test_missing_store_is_an_io_error(self, tmp_path):
        dataset = planted_dataset(n_per_cluster=4, items_per_cluster=6, preferred=4, other=1)
        save_model(train(dataset, TrainConfig(dim=4, epochs=1, seed=0), TrainHooks()), tmp_path)
        (tmp_path / "model.npz").unlink()
        with pytest.raises(IoError, match=f"^model store file not found: {re.escape(str(tmp_path / 'model.npz'))}$"):
            load_model(tmp_path)

    @pytest.mark.parametrize("name", ["user_vecs.tsv", "item_vecs.tsv"])
    def test_missing_table_is_an_io_error(self, tmp_path, name):
        """A version-1 text table left beside the manifest does not stand in for a missing ``model.npz``."""
        dataset = planted_dataset(n_per_cluster=4, items_per_cluster=6, preferred=4, other=1)
        save_model(train(dataset, TrainConfig(dim=2, epochs=1, seed=0), TrainHooks()), tmp_path)
        (tmp_path / "model.npz").unlink()
        (tmp_path / name).write_text("u0\t0.5\t0.25\n", encoding="utf-8")
        with pytest.raises(IoError, match=f"^model store file not found: {re.escape(str(tmp_path / 'model.npz'))}$"):
            load_model(tmp_path)

    def test_store_members_load_in_any_order(self, tmp_path):
        dataset = planted_dataset(n_per_cluster=4, items_per_cluster=6, preferred=4, other=1)
        model = train(dataset, TrainConfig(dim=4, epochs=1, seed=0, use_item_bias=True), TrainHooks())
        save_model(model, tmp_path)
        self.rewrite_store(tmp_path, lambda arrays: dict(reversed(arrays.items())))
        back = load_model(tmp_path)
        assert back.user_ids == model.user_ids and np.array_equal(back.item_vecs, model.item_vecs)
        assert np.array_equal(back.item_bias, model.item_bias)

    def test_text_checkpoint_of_version_1_is_a_version_error(self, tmp_path):
        dataset = planted_dataset(n_per_cluster=4, items_per_cluster=6, preferred=4, other=1)
        save_model(train(dataset, TrainConfig(dim=2, epochs=1, seed=0), TrainHooks()), tmp_path)
        manifest = tmp_path / "manifest.yaml"
        manifest.write_text(manifest.read_text().replace("format_version: 3", "format_version: 1"))
        (tmp_path / "model.npz").unlink()
        (tmp_path / "user_vecs.tsv").write_text("u0\t0.5\t0.25\n", encoding="utf-8")
        (tmp_path / "item_vecs.tsv").write_text("i0\t-1.0\t2.0\n", encoding="utf-8")
        with pytest.raises(VersionError, match="^checkpoint version 1 unsupported$"):
            load_model(tmp_path)

    def test_checkpoint_of_version_2_is_a_version_error(self, tmp_path):
        """Version 2 kept its id tables as str arrays of end-marked ids."""
        dataset = planted_dataset(n_per_cluster=4, items_per_cluster=6, preferred=4, other=1)
        save_model(train(dataset, TrainConfig(dim=2, epochs=1, seed=0), TrainHooks()), tmp_path)
        manifest = tmp_path / "manifest.yaml"
        manifest.write_text(manifest.read_text().replace("format_version: 3", "format_version: 2"))
        end_marked = lambda ids: np.array([f"{i}." for i in ids.tobytes().decode().splitlines()])
        self.rewrite_store(tmp_path, lambda a: {**a, "user_ids": end_marked(a["user_ids"]),
                                                "item_ids": end_marked(a["item_ids"])})
        with pytest.raises(VersionError, match="^checkpoint version 2 unsupported$"):
            load_model(tmp_path)

    def test_manifest_value_the_config_rejects_is_a_parse_error(self, tmp_path):
        dataset = planted_dataset(n_per_cluster=4, items_per_cluster=6, preferred=4, other=1)
        save_model(train(dataset, TrainConfig(dim=2, epochs=1, seed=0), TrainHooks()), tmp_path)
        manifest = tmp_path / "manifest.yaml"
        manifest.write_text(manifest.read_text().replace("dim: 2", "dim: 0"))
        message = f"{manifest}: dim, epochs, and batch_size must be positive"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            load_model(tmp_path)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("loss_curve", "12", "loss_curve must be a list of numbers, got '12'"),
            ("dim", 2.9, "dim must be an integer, got 2.9"),
            ("epochs", "3", "epochs must be an integer, got '3'"),
            ("lr", True, "lr must be a number, got True"),
            ("use_item_bias", "no", "use_item_bias must be true or false, got 'no'"),
        ],
        ids=["loss_curve-string", "dim-float", "epochs-string", "lr-bool", "use_item_bias-string"],
    )
    def test_manifest_value_of_another_type_is_a_parse_error(self, tmp_path, key, value, message):
        dataset = planted_dataset(n_per_cluster=4, items_per_cluster=6, preferred=4, other=1)
        save_model(train(dataset, TrainConfig(dim=2, epochs=1, seed=0), TrainHooks()), tmp_path)
        manifest = tmp_path / "manifest.yaml"
        manifest.write_text(yaml.safe_dump({**yaml.safe_load(manifest.read_text()), key: value}))
        with pytest.raises(ParseError, match=f"^{re.escape(f'{manifest}: {message}')}$"):
            load_model(tmp_path)

    @pytest.mark.parametrize("entry", [".nan", ".inf", "-.inf"])
    def test_manifest_non_finite_loss_curve_entry_is_a_parse_error(self, tmp_path, entry):
        dataset = planted_dataset(n_per_cluster=4, items_per_cluster=6, preferred=4, other=1)
        save_model(train(dataset, TrainConfig(dim=2, epochs=2, seed=0), TrainHooks()), tmp_path)
        manifest = tmp_path / "manifest.yaml"
        text = manifest.read_text()
        first = re.search(r"^loss_curve:\n- (\S+)$", text, re.M)
        manifest.write_text(text[: first.start(1)] + entry + text[first.end(1) :])
        with pytest.raises(ParseError, match=f"^{re.escape(str(manifest))}: loss_curve must hold finite numbers, got "):
            load_model(tmp_path)

    def test_manifest_int_for_a_float_field_loads_as_a_float(self, tmp_path):
        dataset = planted_dataset(n_per_cluster=4, items_per_cluster=6, preferred=4, other=1)
        save_model(train(dataset, TrainConfig(dim=2, epochs=1, seed=0), TrainHooks()), tmp_path)
        manifest = tmp_path / "manifest.yaml"
        manifest.write_text(yaml.safe_dump({**yaml.safe_load(manifest.read_text()), "lr": 1, "loss_curve": [2, 0.5]}))
        back = load_model(tmp_path)
        assert (back.config.lr, back.loss_curve) == (1.0, [2.0, 0.5])
        assert type(back.config.lr) is float and all(type(x) is float for x in back.loss_curve)

    def test_save_under_a_regular_file_is_an_io_error(self, tmp_path):
        dataset = planted_dataset(n_per_cluster=4, items_per_cluster=6, preferred=4, other=1)
        (tmp_path / "file").write_text("", encoding="utf-8")
        model = train(dataset, TrainConfig(dim=4, epochs=1, seed=0), TrainHooks())
        with pytest.raises(IoError, match="cannot write model to"):
            save_model(model, tmp_path / "file" / "ckpt")

    def test_version_guard(self, tmp_path):
        dataset = planted_dataset(n_per_cluster=4, items_per_cluster=6, preferred=4, other=1)
        model = train(dataset, TrainConfig(dim=4, epochs=1, seed=0), TrainHooks())
        save_model(model, tmp_path / "ckpt")
        manifest = tmp_path / "ckpt" / "manifest.yaml"
        manifest.write_text(manifest.read_text().replace("format_version: 3", "format_version: 9"))
        with pytest.raises(VersionError):
            load_model(tmp_path / "ckpt")
