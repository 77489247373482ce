import numpy as np
import pytest

from socnav import trainer
from socnav.config import Config
from socnav.env import ActionBoundsError, CrowdEnv
from socnav.nn import ParamStore
from socnav.replay import HybridBuffer
from socnav.rtgp import RtgPredictor


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

    def test_plateau_detector(self):
        flat = [1.0] * 11
        assert trainer._plateaued(flat, patience=10, delta=1e-4)
        falling = list(np.linspace(1.0, 0.0, 11))
        assert not trainer._plateaued(falling, patience=10, delta=1e-4)
        assert not trainer._plateaued([1.0, 0.9], patience=10, delta=1e-4)


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
