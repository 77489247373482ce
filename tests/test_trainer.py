import copy
import hashlib
import json
import math
import os
import re
import struct
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from socnav import nn, trainer
from socnav.config import Config
from socnav.env import ActionBoundsError, CrowdEnv
from socnav.nn import ParamStore
from socnav.replay import HybridBuffer
from socnav.rtgp import RtgPredictor

# sha256 of the JSON list of [batch function, [(trajectory seed, end), ...]]
# drawn by TestDistinctWindows's run, recorded with the batch assembly that
# built one window per draw, before draws were grouped
PINNED_DRAWS = "b0c34cdb1c9c71497844f8bebc9b2f6ff55cb7254166dc9185a523265129ae50"


class TestPretrain:
    def test_losses_decrease_and_counters(self, tiny_cfg, tiny_dataset):
        trajs, _, _ = tiny_dataset
        res = trainer.pretrain_offline(trajs, tiny_cfg, seed=1)
        assert res.env_transitions == 0          # offline phase: no environment
        assert res.iterations == tiny_cfg.train.pretrain_iters
        assert np.mean(res.policy_losses[-4:]) < res.policy_losses[0]
        assert np.mean(res.rtgp_losses[-4:]) < res.rtgp_losses[0]

    def test_bit_identical_loss_curves(self, tiny_cfg, tiny_dataset):
        trajs, _, _ = tiny_dataset
        a = trainer.pretrain_offline(trajs, tiny_cfg, seed=1)
        b = trainer.pretrain_offline(trajs, tiny_cfg, seed=1)
        assert a.policy_losses == b.policy_losses
        assert a.rtgp_losses == b.rtgp_losses

    def test_empty_dataset_rejected(self, tiny_cfg):
        with pytest.raises(ValueError):
            trainer.pretrain_offline([], tiny_cfg)

    def test_non_finite_loss_aborts_with_the_live_stores(self, tiny_cfg, tiny_dataset,
                                                          monkeypatch):
        # the poisoned iteration 54 lies past the first epoch boundary (50)
        trajs, _, _ = tiny_dataset
        cfg = copy.deepcopy(tiny_cfg)
        cfg.train.pretrain_iters = 54
        done = trainer.pretrain_offline(trajs, cfg, seed=1)
        calls = []
        update = trainer.rtgp_update

        def poisoned(*args):
            loss = update(*args)
            calls.append(1)
            return float("nan") if len(calls) == 55 else loss

        monkeypatch.setattr(trainer, "rtgp_update", poisoned)
        cfg.train.pretrain_iters = 60
        with pytest.raises(trainer.TrainingAborted, match="iteration 54") as exc:
            trainer.pretrain_offline(trajs, cfg, seed=1)
        assert exc.value.policy_store.to_bytes() == done.policy_store.to_bytes()
        assert exc.value.rtgp_store.to_bytes() == done.rtgp_store.to_bytes()

    def test_plateau_detector(self):
        flat = [1.0] * 11
        assert trainer._plateaued(flat, patience=10, delta=1e-4)
        falling = list(np.linspace(1.0, 0.0, 11))
        assert not trainer._plateaued(falling, patience=10, delta=1e-4)
        assert not trainer._plateaued([1.0, 0.9], patience=10, delta=1e-4)


class TestDistinctWindows:
    def test_groups_by_identity_in_first_draw_order(self, tiny_dataset):
        a, b = tiny_dataset[0][:2]
        windows, counts = trainer.distinct_windows([(a, 3), (b, 3), (a, 3), (a, 0), (b, 3)])
        assert [(t is a, e) for t, e in windows] == [(True, 3), (False, 3), (True, 0)]
        assert counts.tolist() == [2, 2, 1]

    def test_draws_unchanged_and_expand_to_the_batch(self, tiny_cfg, tiny_dataset,
                                                     monkeypatch):
        trajs, _, _ = tiny_dataset
        cfg = copy.deepcopy(tiny_cfg)
        cfg.train.pretrain_iters = 2
        cfg.train.batch_size = 48
        drawn, grouped = [], []
        for name in ("policy_batch_from", "rtgp_batch_from"):
            def recorded(trajs_ends, *args, _fn=getattr(trainer, name), _name=name):
                batch, targets, counts = _fn(trajs_ends, *args)
                drawn.append([_name, [(t.seed, e) for t, e in trajs_ends]])
                windows, want = trainer.distinct_windows(trajs_ends)
                assert counts.tolist() == want.tolist()
                assert len(targets) == len(counts)
                grouped.append(Counter({(t.seed, e): c
                                        for (t, e), c in zip(windows, counts)}))
                return batch, targets, counts
            monkeypatch.setattr(trainer, name, recorded)
        trainer.pretrain_offline(trajs, cfg, seed=1)
        pol, rtgp = trainer.build_models(cfg)
        trainer.finetune_online(pol.init_store(0), rtgp.init_store(1), trajs, cfg,
                                seed=1, episodes=1)
        # pretraining's 2 + 2 batches, then 2 fast updates and the slow one
        assert len(drawn) == 7
        digest = hashlib.sha256(json.dumps(drawn).encode()).hexdigest()
        assert digest == PINNED_DRAWS
        for (_, pairs), counts in zip(drawn, grouped):
            assert counts == Counter(pairs)
        assert max(max(c.values()) for c in grouped) > 1


def draws(trajs, size, seed):
    rng = np.random.default_rng(seed)
    return [(trajs[i], e) for i, e in trainer.sample_windows(trajs, size, rng)]


def shard_case(network, cfg, trajs):
    """One network's batch of the windows of 48 draws, and its outputs
    for any part of that batch; the policy head, which init_store zeroes,
    is drawn, so the actions differ from window to window."""
    policy, rtgp = trainer.build_models(cfg)
    trajs_ends = draws(trajs, 48, seed=6)
    if network == "policy":
        store = policy.init_store(3)
        head = store.blocks["head.W"]
        head[...] = 0.2 * nn.xavier_uniform(np.random.default_rng(3), *head.shape)
        batch, _, _ = trainer.policy_batch_from(trajs_ends, policy,
                                                [t.rtg for t, _ in trajs_ends])
        return batch, lambda part: policy.forward(store, part)[0]
    store = rtgp.init_store(3)
    batch, _, _ = trainer.rtgp_batch_from(trajs_ends, rtgp)
    return batch, lambda part: rtgp.predict_batch(store, part)


@pytest.fixture()
def forced_pool(monkeypatch):
    """Run the training threads on a pool of the given size."""
    pools = []

    def force(workers):
        pools.append(ThreadPoolExecutor(workers))
        monkeypatch.setattr(trainer, "_pool", pools[-1])

    yield force
    for pool in pools:
        pool.shutdown(wait=True)


class TestShards:
    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-10)])
    def test_sharded_update_matches_one_batch(self, tiny_cfg, tiny_dataset, dtype, tol):
        # shards change the gradients' float summation order only; each
        # loss is the exact sum of the same per-window terms, and a window's
        # outputs do not depend on its shard
        trajs, _, _ = tiny_dataset
        policy, rtgp = trainer.build_models(tiny_cfg)
        trajs_ends = draws(trajs, 48, seed=5)
        pol_args = trainer.policy_batch_from(trajs_ends, policy, [t.rtg for t, _ in trajs_ends])
        rtg_args = trainer.rtgp_batch_from(trajs_ends, rtgp)
        for _, _, counts in (pol_args, rtg_args):   # enough windows for every shard
            assert len(counts) >= trainer.SHARDS * trainer.MIN_SHARD_WINDOWS
        head = np.random.default_rng(2).normal(size=(policy.hidden, 2)) * 0.1
        for model, update, args in ((policy, trainer.policy_update, pol_args),
                                    (rtgp, trainer.rtgp_update, rtg_args)):
            sharded, whole = model.init_store(9, dtype=dtype), model.init_store(9, dtype=dtype)
            if model is policy:   # a zero head has no gradient below it
                sharded.blocks["head.W"][...] = whole.blocks["head.W"][...] = head
            loss = update(model, sharded, *args)
            want, _ = model.loss_and_grad(whole, *args)
            assert loss == want
            assert sum(np.any(g != 0.0) for g in whole.grads.values()) > len(whole.grads) / 2
            for name, g in whole.grads.items():
                assert sharded.grads[name].dtype == dtype
                np.testing.assert_allclose(sharded.grads[name], g, rtol=tol, atol=tol,
                                           err_msg=name)

    @pytest.mark.parametrize("network", ["policy", "predictor"])
    def test_shard_reads_only_its_rows(self, tiny_cfg, tiny_dataset, network):
        # every window alone, every fifth window and drawn subsets each give
        # the whole batch's bytes
        batch, outputs = shard_case(network, tiny_cfg, tiny_dataset[0])
        whole = outputs(batch)
        rng = np.random.default_rng(6)
        subsets = ([[i] for i in range(len(whole))] + [np.arange(len(whole))[::5]]
                   + [np.flatnonzero(rng.random(len(whole)) < p) for p in (0.1, 0.3, 0.6, 0.9)
                      for _ in range(3)])
        for idx in subsets:
            part = batch.take(idx)
            for name, table in batch.tables.items():
                assert len(part.tables[name]) == len(np.union1d(0, batch.rows[idx])) < len(table)
                assert np.array_equal(part.slots(name), table[batch.rows[idx]])
            assert outputs(part).tobytes() == whole[idx].tobytes()

    @pytest.mark.parametrize("network", ["policy", "predictor"])
    def test_shard_without_padded_slots_keeps_the_padding_row(self, tiny_cfg, tiny_dataset,
                                                              network):
        # row 0 is padding in every batch, also in a shard that reads none
        batch, outputs = shard_case(network, tiny_cfg, tiny_dataset[0])
        whole = outputs(batch)
        idx = np.flatnonzero((batch.rows > 0).all(axis=1))
        assert 0 < len(idx) < len(whole)
        part = batch.take(idx)
        assert (part.rows > 0).all()
        for name, table in batch.tables.items():
            assert not part.tables[name][0].any()
            assert np.array_equal(part.slots(name), table[batch.rows[idx]])
        assert outputs(part).tobytes() == whole[idx].tobytes()

    def test_worker_count_does_not_change_bytes(self, tiny_cfg, tiny_dataset, forced_pool,
                                                monkeypatch):
        trajs, _, _ = tiny_dataset
        cfg = copy.deepcopy(tiny_cfg)
        cfg.train.batch_size = 48
        shards = []
        pool_map = trainer.pool_map

        def counted(fn, items):
            items = list(items)
            shards.append(len(items))
            return pool_map(fn, items)

        monkeypatch.setattr(trainer, "pool_map", counted)
        runs = []
        for workers in (1, 2):
            forced_pool(workers)
            pre = trainer.pretrain_offline(trajs, cfg, seed=1)
            ft = trainer.finetune_online(pre.policy_store, pre.rtgp_store, trajs,
                                         cfg, seed=1, episodes=1)
            runs.append((pre.policy_losses, pre.rtgp_losses, ft.episodes,
                         ft.policy_store.to_bytes(), ft.rtgp_store.to_bytes()))
        assert max(shards) == trainer.SHARDS
        assert runs[0] == runs[1]

    def test_more_workers_than_cores_with_fast_switching(self, tiny_cfg, tiny_dataset,
                                                         forced_pool):
        # a lost or doubled gradient accumulation under heavy interleaving
        # would change the summed gradients' bytes
        trajs, _, _ = tiny_dataset
        policy, rtgp = trainer.build_models(tiny_cfg)
        trajs_ends = draws(trajs, 48, seed=7)
        args = {policy: trainer.policy_batch_from(trajs_ends, policy,
                                                  [t.rtg for t, _ in trajs_ends]),
                rtgp: trainer.rtgp_batch_from(trajs_ends, rtgp)}
        assert min(len(a[2]) for a in args.values()) >= (
            trainer.SHARDS * trainer.MIN_SHARD_WINDOWS)
        runs = []
        interval = sys.getswitchinterval()
        for workers in (1, 8):
            forced_pool(workers)
            sys.setswitchinterval(1e-6)
            try:
                stores = [policy.init_store(1), rtgp.init_store(2)]
                for _ in range(3):
                    trainer.policy_update(policy, stores[0], *args[policy])
                    trainer.rtgp_update(rtgp, stores[1], *args[rtgp])
            finally:
                sys.setswitchinterval(interval)
            runs.append([g.tobytes() for s in stores for g in s.grads.values()])
        assert runs[0] == runs[1]

    def test_pool_never_exceeds_two_threads(self, monkeypatch):
        monkeypatch.setattr(trainer, "_pool", None)
        pool = trainer._training_pool()
        try:
            assert pool is trainer._training_pool()
            assert pool._max_workers == min(2, len(os.sched_getaffinity(0)))
            ran = set(trainer.pool_map(lambda _: threading.current_thread().name, range(16)))
            assert 1 <= len(ran) <= pool._max_workers
        finally:
            pool.shutdown(wait=True)

    def test_failing_shard_propagates_without_a_step(self, tiny_cfg, tiny_dataset,
                                                     monkeypatch, forced_pool):
        trajs, _, _ = tiny_dataset
        forced_pool(2)
        pol, rtgp = trainer.build_models(tiny_cfg)
        raised_in = []
        loss_and_grad = RtgPredictor.loss_and_grad

        def failing(self, store, batch, *args, **kwargs):
            if not raised_in:
                raised_in.append(threading.current_thread())
                raise FloatingPointError("shard failed")
            return loss_and_grad(self, store, batch, *args, **kwargs)

        monkeypatch.setattr(RtgPredictor, "loss_and_grad", failing)
        ps, rs = pol.init_store(0), rtgp.init_store(1)
        before = rs.to_bytes() + ps.to_bytes()
        with pytest.raises(FloatingPointError, match="shard failed"):
            trainer.finetune_online(ps, rs, trajs, tiny_cfg, seed=1, episodes=1)
        assert raised_in[0] is not threading.main_thread()
        assert rs.step == ps.step == 0
        assert rs.to_bytes() + ps.to_bytes() == before


class TestFinetune:
    def test_schedule_instrumentation(self, tiny_cfg, tiny_dataset):
        trajs, _, _ = tiny_dataset
        pre = trainer.pretrain_offline(trajs, tiny_cfg, seed=1)
        ft = trainer.finetune_online(pre.policy_store, pre.rtgp_store, trajs,
                                     tiny_cfg, seed=1, episodes=3)
        assert len(ft.episodes) == 3
        for ep in ft.episodes:
            assert ep.sampled == tiny_cfg.train.sampled_trajs
            assert ep.fast_updates == ep.sampled
            assert ep.fast_updates > ep.slow_updates == 1
        assert ft.env_transitions == sum(e.steps for e in ft.episodes)

    def test_fixed_mode_does_not_touch_rtgp(self, tiny_cfg, tiny_dataset):
        trajs, _, _ = tiny_dataset
        pre = trainer.pretrain_offline(trajs, tiny_cfg, seed=1)
        before = {k: v.copy() for k, v in pre.rtgp_store.blocks.items()}
        ft = trainer.finetune_online(pre.policy_store, pre.rtgp_store, trajs,
                                     tiny_cfg, seed=1, episodes=2, rtg_mode="fixed")
        for k, v in before.items():
            assert np.array_equal(ft.rtgp_store[k], v)
        for ep in ft.episodes:
            assert ep.fast_updates == 0
            assert ep.slow_updates == 1

    def test_repeated_draw_is_predicted_once(self, tiny_cfg, tiny_dataset, monkeypatch):
        trajs, _, _ = tiny_dataset
        assert tiny_cfg.train.sampled_trajs > 1
        pol, rtgp = trainer.build_models(tiny_cfg)
        sample = HybridBuffer.sample_trajectories

        def sample_repeated(self, batch, rng):
            drawn = sample(self, batch, rng)
            return [drawn[0]] * len(drawn)

        calls = []
        predict = RtgPredictor.predict_sequence

        def counted(self, *args):
            calls.append(1)
            return predict(self, *args)

        monkeypatch.setattr(HybridBuffer, "sample_trajectories", sample_repeated)
        monkeypatch.setattr(RtgPredictor, "predict_sequence", counted)
        trainer.finetune_online(pol.init_store(0), rtgp.init_store(1), trajs,
                                tiny_cfg, seed=1, episodes=2)
        assert len(calls) == 2   # one prediction per episode, not one per draw

    def test_policy_changes_during_finetune(self, tiny_cfg, tiny_dataset):
        trajs, _, _ = tiny_dataset
        pre = trainer.pretrain_offline(trajs, tiny_cfg, seed=1)
        before = {k: v.copy() for k, v in pre.policy_store.blocks.items()}
        ft = trainer.finetune_online(pre.policy_store, pre.rtgp_store, trajs,
                                     tiny_cfg, seed=1, episodes=2)
        changed = any(not np.array_equal(ft.policy_store[k], v)
                      for k, v in before.items())
        assert changed

    def test_episode_log_records_losses(self, tiny_cfg, tiny_dataset, monkeypatch):
        trajs, _, _ = tiny_dataset
        pol, rtgp = trainer.build_models(tiny_cfg)
        losses = []
        update = trainer.rtgp_update

        def recorded(*args):
            loss = update(*args)
            losses.append(loss)
            return loss

        monkeypatch.setattr(trainer, "rtgp_update", recorded)
        ft = trainer.finetune_online(pol.init_store(0), rtgp.init_store(1), trajs,
                                     tiny_cfg, seed=1, episodes=2)
        n = tiny_cfg.train.sampled_trajs
        for k, ep in enumerate(ft.episodes):
            assert math.isfinite(ep.policy_loss) and ep.policy_loss >= 0.0
            assert ep.rtgp_loss == math.fsum(losses[k * n:(k + 1) * n]) / n
        fixed = trainer.finetune_online(pol.init_store(0), rtgp.init_store(1), trajs,
                                        tiny_cfg, seed=1, episodes=1, rtg_mode="fixed")
        assert fixed.episodes[0].rtgp_loss is None
        assert math.isfinite(fixed.episodes[0].policy_loss)

    def test_non_finite_predictor_loss_aborts_before_the_step(self, tiny_cfg, tiny_dataset,
                                                              monkeypatch):
        trajs, _, _ = tiny_dataset
        pol, rtgp = trainer.build_models(tiny_cfg)
        calls = []
        update = trainer.rtgp_update

        def poisoned(*args):
            loss = update(*args)
            calls.append(1)
            return float("nan") if len(calls) == 3 else loss

        monkeypatch.setattr(trainer, "rtgp_update", poisoned)
        rtgp_store = rtgp.init_store(1)
        with pytest.raises(trainer.TrainingAborted,
                           match="predictor loss at episode 1, fast update 0") as exc:
            trainer.finetune_online(pol.init_store(0), rtgp_store, trajs, tiny_cfg,
                                    seed=1, episodes=2)
        assert exc.value.rtgp_store is rtgp_store
        # two steps taken in episode 0, none for the poisoned update
        assert rtgp_store.step == tiny_cfg.train.sampled_trajs == 2
        for store in (exc.value.policy_store, exc.value.rtgp_store):
            assert all(np.isfinite(b).all() for b in store.blocks.values())

    def test_rollout_error_propagates(self, tiny_cfg, tiny_dataset, monkeypatch):
        # a defect inside a rollout is not episode data: it must surface
        trajs, _, _ = tiny_dataset
        pol, rtgp = trainer.build_models(tiny_cfg)

        def step(self, action):
            raise ActionBoundsError("speed 1.5 exceeds v_max 1.0")

        monkeypatch.setattr(CrowdEnv, "step", step)
        with pytest.raises(ActionBoundsError):
            trainer.finetune_online(pol.init_store(0), rtgp.init_store(1), trajs,
                                    tiny_cfg, seed=1, episodes=2)


class TestEvaluate:
    def test_report_fields_and_determinism(self, tiny_cfg, tiny_dataset):
        trajs, _, _ = tiny_dataset
        pre = trainer.pretrain_offline(trajs, tiny_cfg, seed=1)
        r1, _ = trainer.evaluate(pre.policy_store, pre.rtgp_store, tiny_cfg,
                                 num_episodes=3, seed=1, train_transitions=100)
        r2, _ = trainer.evaluate(pre.policy_store, pre.rtgp_store, tiny_cfg,
                                 num_episodes=3, seed=1, train_transitions=100)
        assert r1.to_json() == r2.to_json()
        total = r1.success_rate + r1.collision_rate + r1.timeout_rate
        assert total == pytest.approx(1.0, abs=1e-12)
        assert len(r1.per_episode) == 3

    def test_zero_success_report(self, tiny_cfg, tiny_dataset):
        trajs, _, _ = tiny_dataset
        pol, rtgp = trainer.build_models(tiny_cfg)
        ps = pol.init_store(0)   # untrained head outputs zeros: robot idles
        rs = rtgp.init_store(1)
        rep, _ = trainer.evaluate(ps, rs, tiny_cfg, num_episodes=3, seed=0)
        if rep.success_rate == 0.0:
            assert rep.mean_nav_time is None
            assert rep.collision_rate + rep.timeout_rate == pytest.approx(1.0)

    def test_eval_seeds_disjoint_from_training(self, tiny_cfg, tiny_dataset):
        trajs, _, _ = tiny_dataset
        pre = trainer.pretrain_offline(trajs, tiny_cfg, seed=1)
        ft = trainer.finetune_online(pre.policy_store, pre.rtgp_store, trajs,
                                     tiny_cfg, seed=1, episodes=2)
        rep, _ = trainer.evaluate(ft.policy_store, ft.rtgp_store, tiny_cfg,
                                  num_episodes=2, seed=1)
        train_seeds = {e.seed for e in ft.episodes}
        data_seeds = {t.seed for t in trajs}
        eval_seeds = {e["seed"] for e in rep.per_episode}
        assert eval_seeds.isdisjoint(train_seeds)
        assert eval_seeds.isdisjoint(data_seeds)


class TestSamplingEfficiency:
    def test_definition_audit(self):
        assert trainer.sampling_efficiency(0.5, 100) == pytest.approx(0.005)
        assert trainer.sampling_efficiency(0.5, 0) is None

    def test_strictly_decreasing_in_samples(self):
        etas = [trainer.sampling_efficiency(0.8309, u) for u in (10, 100, 1000)]
        assert etas[0] > etas[1] > etas[2]

    def test_reported_table_arithmetic(self):
        # reward 0.8309 at efficiency 0.156 implies its sample size; the
        # formula reproduces the table entry at table precision
        implied_u = 0.8309 / 0.156
        eta = trainer.sampling_efficiency(0.8309, implied_u)
        assert round(eta, 3) == 0.156

    def test_recompute_from_report_fields(self, tiny_cfg, tiny_dataset):
        trajs, _, _ = tiny_dataset
        pre = trainer.pretrain_offline(trajs, tiny_cfg, seed=1)
        rep, _ = trainer.evaluate(pre.policy_store, pre.rtgp_store, tiny_cfg,
                                  num_episodes=2, seed=1, train_transitions=777)
        assert rep.sampling_efficiency == pytest.approx(
            rep.mean_return / rep.train_transitions, abs=1e-12)


class TestCheckpointBundle:
    def test_roundtrip_evaluation_identical(self, tmp_path, tiny_cfg, tiny_dataset):
        trajs, _, _ = tiny_dataset
        pre = trainer.pretrain_offline(trajs, tiny_cfg, seed=1)
        before, _ = trainer.evaluate(pre.policy_store, pre.rtgp_store, tiny_cfg,
                                     num_episodes=2, seed=1)
        path = tmp_path / "bundle.ckpt"
        trainer.save_bundle(path, pre.policy_store, pre.rtgp_store,
                            meta={"env_transitions": 5})
        ps, rs, meta = trainer.load_bundle(path)
        assert meta == {"env_transitions": 5}
        after, _ = trainer.evaluate(ps, rs, tiny_cfg, num_episodes=2, seed=1)
        assert before.to_json() == after.to_json()

    def test_bundle_bytes_deterministic(self, tmp_path, tiny_cfg, tiny_dataset):
        trajs, _, _ = tiny_dataset
        pre = trainer.pretrain_offline(trajs, tiny_cfg, seed=1)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        trainer.save_bundle(p1, pre.policy_store, pre.rtgp_store, meta={"x": 1})
        trainer.save_bundle(p2, pre.policy_store, pre.rtgp_store, meta={"x": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def _bundle_bytes(self, tmp_path, tiny_cfg):
        pol, rtgp = trainer.build_models(tiny_cfg)
        path = tmp_path / "bundle.ckpt"
        trainer.save_bundle(path, pol.init_store(0), rtgp.init_store(1), meta={})
        return path, path.read_bytes()

    def test_truncated_bundle_names_block_and_offset(self, tmp_path, tiny_cfg):
        path, data = self._bundle_bytes(tmp_path, tiny_cfg)
        path.write_bytes(data[:-2])   # the last block is the 4-byte head2.b moment
        with pytest.raises(ValueError, match=r"truncated in v block 'head2\.b' "
                                             rf"at byte offset {len(data) - 4}"):
            trainer.load_bundle(path)

    @staticmethod
    def _patched_policy_header(tmp_path, patch):
        """A bundle whose policy stream header is patch(header), and the byte
        offset of that header."""
        store = ParamStore()
        store.add("w", np.ones((2, 3), dtype=np.float32))
        path = tmp_path / "patched.ckpt"
        trainer.save_bundle(path, store, store, meta={})
        data = path.read_bytes()
        _, start = nn.read_header(data, 0, trainer.BUNDLE_MAGIC, "bundle")
        at = start + len(nn.CKPT_MAGIC) + 8
        (hlen,) = struct.unpack("<Q", data[at - 8:at])
        payload = json.dumps(patch(json.loads(data[at:at + hlen]))).encode()
        path.write_bytes(data[:at - 8] + struct.pack("<Q", len(payload)) + payload
                         + data[at + hlen:])
        return path, at

    @pytest.mark.parametrize("patch, problem", [
        (lambda h: [h], "is a list, not an object"),
        (lambda h: {k: v for k, v in h.items() if k != "dtype"}, "lacks 'dtype'"),
        (lambda h: {k: v for k, v in h.items() if k != "step"}, "lacks 'step'"),
        (lambda h: h | {"dtype": "float99"}, "has dtype 'float99', not a float dtype"),
        (lambda h: h | {"blocks": [{"name": "w", "shape": "23"}]}, "has block .*'23'"),
        (lambda h: h | {"blocks": [{"name": "w", "shape": [-2, 3]}]},
         r"has block .*\[-2, 3\]"),
    ], ids=["list", "no-dtype", "no-step", "float99", "string-shape", "negative-dim"])
    def test_bad_stream_header_names_path_and_offset(self, tmp_path, patch, problem):
        path, at = self._patched_policy_header(tmp_path, patch)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: checkpoint byte "
                                             rf"stream header at byte offset {at} {problem}"):
            trainer.load_bundle(path)

    def test_stream_format_checked(self, tmp_path):
        path, at = self._patched_policy_header(tmp_path, lambda h: h | {"format": 2})
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: checkpoint byte "
                                             rf"stream header at byte offset {at} "
                                             r"has format 2, not 1"):
            trainer.load_bundle(path)

    @staticmethod
    def _rebuilt_bundle(tmp_path, patch=lambda h: h, roles=("policy", "rtgp")):
        """A bundle of two one-block streams with the given roles whose
        bundle header is patch(header), and the byte offsets of that header
        and of each stream."""
        store = ParamStore()
        store.add("w", np.ones((2, 3), dtype=np.float32))
        streams = [store.to_bytes(extra={"role": role}) for role in roles]
        header = {"format": 1, "meta": {}, "policy_len": len(streams[0]),
                  "rtgp_len": len(streams[1])}
        payload = json.dumps(patch(header)).encode()
        path = tmp_path / "rebuilt.ckpt"
        path.write_bytes(trainer.BUNDLE_MAGIC + struct.pack("<Q", len(payload)) + payload
                         + b"".join(streams))
        at = len(trainer.BUNDLE_MAGIC) + 8
        return path, at, (at + len(payload), at + len(payload) + len(streams[0]))

    def test_rebuilt_bundle_is_a_saved_one(self, tmp_path):
        path, _, _ = self._rebuilt_bundle(tmp_path)
        store = ParamStore()
        store.add("w", np.ones((2, 3), dtype=np.float32))
        trainer.save_bundle(tmp_path / "saved.ckpt", store, store)
        assert path.read_bytes() == (tmp_path / "saved.ckpt").read_bytes()
        trainer.load_bundle(path)

    @pytest.mark.parametrize("patch, problem", [
        (lambda h: h | {"format": 7}, "has format 7, not 1"),
        (lambda h: {k: v for k, v in h.items() if k != "format"}, "has format None, not 1"),
        (lambda h: h | {"meta": [1]}, r"has meta \[1\], not an object"),
        (lambda h: {k: v for k, v in h.items() if k != "rtgp_len"}, "lacks 'rtgp_len'"),
    ], ids=["format-7", "no-format", "meta-list", "no-rtgp-len"])
    def test_bad_bundle_header_names_path_and_offset(self, tmp_path, patch, problem):
        path, at, _ = self._rebuilt_bundle(tmp_path, patch)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: checkpoint "
                                             rf"bundle header at byte offset {at} {problem}"):
            trainer.load_bundle(path)

    @pytest.mark.parametrize("first", [b"\xff", b"]"], ids=["not-utf8", "not-json"])
    def test_header_not_json_names_path_and_offset(self, tmp_path, first):
        path, at, _ = self._rebuilt_bundle(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:at] + first + data[at + 1:])
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: checkpoint "
                                             rf"bundle header at byte offset {at} is not JSON"):
            trainer.load_bundle(path)

    @pytest.mark.parametrize("role, patch", [
        ("policy", lambda h: h | {"policy_len": 1}),
        ("rtgp", lambda h: h | {"rtgp_len": -5}),
    ], ids=["policy-1", "rtgp-negative"])
    def test_stream_length_checked(self, tmp_path, role, patch):
        path, _, starts = self._rebuilt_bundle(tmp_path, patch)
        at = starts[role == "rtgp"]
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {role} stream at "
                                             rf"byte offset {at} spans \d+ bytes, not the "
                                             rf"header's {role}_len"):
            trainer.load_bundle(path)

    @pytest.mark.parametrize("roles, role", [
        (("rtgp", "rtgp"), "policy"), (("policy", "policy"), "rtgp"),
        (("rtgp", "policy"), "policy"),
    ], ids=["policy-says-rtgp", "rtgp-says-policy", "swapped"])
    def test_stream_role_checked(self, tmp_path, roles, role):
        path, _, starts = self._rebuilt_bundle(tmp_path, roles=roles)
        at = starts[role == "rtgp"]
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {role} stream at "
                                             rf"byte offset {at} has extra .*, not role "
                                             rf"'{role}'"):
            trainer.load_bundle(path)

    def test_read_span_refuses_negative_length(self):
        with pytest.raises(ValueError, match="negative length -24 for w at byte offset 5"):
            nn.read_span(bytes(64), 5, -24, "w")

    def test_every_cut_names_its_byte_offset(self, tmp_path):
        stores = []
        for k in range(2):
            store = ParamStore()
            store.add("w", np.full((2, 3), k + 0.5, dtype=np.float32))
            store.add("b", np.zeros(2, dtype=np.float32))
            stores.append(store)
        path = tmp_path / "small.ckpt"
        trainer.save_bundle(path, *stores, meta={"k": 1})
        data = path.read_bytes()
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(ValueError) as err:
                trainer.load_bundle(path)
            message = str(err.value)
            if cut < len(trainer.BUNDLE_MAGIC) and "not a checkpoint bundle" in message:
                continue
            found = re.search(r"truncated in .* at byte offset (\d+)", message)
            assert found and int(found.group(1)) <= cut, (cut, message)

    def test_appended_bytes_rejected(self, tmp_path, tiny_cfg):
        path, data = self._bundle_bytes(tmp_path, tiny_cfg)
        path.write_bytes(data + b"junk")
        with pytest.raises(ValueError, match=rf"4 unexpected bytes .* offset {len(data)}"):
            trainer.load_bundle(path)

    def test_bad_file_rejected(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError):
            trainer.load_bundle(p)


class TestModels:
    def test_build_models_uses_config(self, tiny_cfg):
        policy, rtgp = trainer.build_models(tiny_cfg)
        assert policy.context == tiny_cfg.net.policy_context
        assert rtgp.window == tiny_cfg.net.rtgp_window
        assert policy.num_peds == rtgp.num_peds == tiny_cfg.sim.num_peds

    def test_store_dtype_is_float32(self, tiny_cfg):
        policy, _ = trainer.build_models(tiny_cfg)
        store = policy.init_store(0)
        assert store.dtype == np.float32

    def test_training_path_stays_float32(self, tiny_cfg, tiny_dataset, monkeypatch):
        # a float64 leak (an input, a constant or a cast left out) would double
        # the memory traffic of every layer it touches without failing anything
        trajs, _, _ = tiny_dataset
        outputs, grads = [], []
        for name in ("dense_fwd", "dense_bwd", "attention_fwd", "attention_bwd",
                     "layer_norm_fwd", "layer_norm_bwd", "encoder_block_fwd",
                     "encoder_block_bwd"):
            def recorded(*args, _fn=getattr(nn, name), _name=name, **kwargs):
                result = _fn(*args, **kwargs)
                outputs.append((_name, result))
                return result
            monkeypatch.setattr(nn, name, recorded)
        accumulate = ParamStore.accumulate

        def recorded_accumulate(store, name, grad):
            grads.append(((id(store), name), np.asarray(grad).dtype))
            accumulate(store, name, grad)
        monkeypatch.setattr(ParamStore, "accumulate", recorded_accumulate)

        policy, rtgp = trainer.build_models(tiny_cfg)
        rng = np.random.default_rng(0)
        trajs_ends = [(trajs[i], e) for i, e in trainer.sample_windows(trajs, 8, rng)]
        trajs_ends += trajs_ends[:3]   # repeated draws: counts above one reach the loss
        stores = policy.init_store(0), rtgp.init_store(1)
        policy.loss_and_grad(stores[0], *trainer.policy_batch_from(
            trajs_ends, policy, [t.rtg for t, _ in trajs_ends]))
        rtgp.loss_and_grad(stores[1], *trainer.rtgp_batch_from(trajs_ends, rtgp))

        def arrays(obj):
            if isinstance(obj, np.ndarray):
                yield obj
            elif isinstance(obj, tuple):
                for item in obj:
                    yield from arrays(item)

        layer_dtypes = {(name, a.dtype) for name, result in outputs
                        for a in arrays(result) if a.dtype != bool}
        assert {name for name, _ in layer_dtypes} == {
            "dense_fwd", "dense_bwd", "attention_fwd", "attention_bwd",
            "layer_norm_fwd", "layer_norm_bwd", "encoder_block_fwd", "encoder_block_bwd"}
        assert {dtype for _, dtype in layer_dtypes} == {np.dtype(np.float32)}
        assert {key for key, _ in grads} == {(id(s), name) for s in stores
                                             for name in s.blocks}
        assert {dtype for _, dtype in grads} == {np.dtype(np.float32)}
