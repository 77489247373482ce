import numpy as np
import pytest
from scipy import stats as scistats

from socnav import replay
from socnav.dataset import Trajectory, compute_rtg
from socnav.replay import PRIORITY_EPSILON, SUCCESS_MULTIPLIER, HybridBuffer


def traj(ret, steps=10, outcome="success", seed=0):
    """Trajectory with a chosen undiscounted episode return."""
    rewards = np.zeros(steps)
    rewards[-1] = ret
    return Trajectory(states=np.zeros((steps, 20)), actions=np.zeros((steps, 2)),
                      rewards=rewards, rtg=compute_rtg(rewards, 1.0),
                      outcome=outcome, duration=steps * 0.25, seed=seed)


class TestInsertEvict:
    def test_insert_grows(self):
        buf = HybridBuffer([], capacity=1000)
        buf.insert(traj(1.0))
        assert len(buf) == 1
        assert buf.num_online == 1

    def test_oldest_online_evicted_offline_untouched(self):
        offline = [traj(0.5, steps=10, seed=100 + i) for i in range(3)]
        buf = HybridBuffer(offline, capacity=60)   # online budget: 30 transitions
        for i in range(4):                          # 40 transitions inserted
            buf.insert(traj(1.0, steps=10, seed=i))
        assert buf.num_offline == 3
        assert buf.num_online == 3
        assert buf.trajectories[3].seed == 1        # seed 0 evicted first
        assert [t.seed for t in buf.trajectories[:3]] == [100, 101, 102]

    def test_offline_overflow_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            HybridBuffer([traj(1.0, steps=10)], capacity=5)

    def test_empty_trajectory_rejected(self):
        buf = HybridBuffer([], capacity=100)
        t = traj(1.0, steps=1)
        t.states = np.zeros((0, 20))
        t.actions = np.zeros((0, 2))
        t.rewards = np.zeros(0)
        t.rtg = np.zeros(0)
        with pytest.raises(ValueError, match="incomplete"):
            buf.insert(t)

    def test_priority_registered_only_for_inserted(self):
        # priorities follow inserts and evictions: weights() equals a
        # brute-force recompute over the offline set plus the newest four
        offline = [traj(0.1 * i, seed=i, outcome="collision") for i in range(5)]
        buf = HybridBuffer(offline, capacity=90)    # online budget: 40 transitions
        rng = np.random.default_rng(4)
        inserted = []
        for i in range(12):
            inserted.append(traj(float(rng.normal()), steps=10, seed=10 + i,
                                 outcome="success" if i % 3 else "timeout"))
            buf.insert(inserted[-1])
            stored = offline + inserted[-4:]
            assert [t.seed for t in buf.trajectories] == [t.seed for t in stored]
            g = np.array([t.episode_return for t in stored])
            w = (g - g.min()) / (g.max() - g.min()) + PRIORITY_EPSILON
            w = np.where([t.success for t in stored], SUCCESS_MULTIPLIER * w, w)
            np.testing.assert_array_equal(buf.weights(), w)
        assert buf.num_online == 4


class TestPriority:
    def test_degenerate_range_uniform(self):
        buf = HybridBuffer([traj(1.0, outcome="collision", seed=i)
                            for i in range(4)], capacity=1000)
        w = buf.weights()
        np.testing.assert_allclose(w, 0.01)

    def test_success_multiplier_on_degenerate_range(self):
        buf = HybridBuffer([traj(1.0, outcome="success"),
                            traj(1.0, outcome="collision")], capacity=1000)
        w = buf.weights()
        assert w[0] == pytest.approx(0.02)
        assert w[1] == pytest.approx(0.01)

    def test_highest_return_success_has_max_priority(self):
        trajs = [traj(r, outcome="collision", seed=i)
                 for i, r in enumerate([-1.0, 0.0, 0.5])]
        trajs.append(traj(2.0, outcome="success", seed=9))
        buf = HybridBuffer(trajs, capacity=1000)
        w = buf.weights()
        assert w.argmax() == 3
        # normalized to the top of the range, plus floor, doubled for success
        assert w[3] == pytest.approx(2.0 * (1.0 + 0.01))

    def test_monotone_in_return_within_outcome_class(self):
        trajs = [traj(r, outcome="collision", seed=i)
                 for i, r in enumerate(np.linspace(-1, 1, 7))]
        buf = HybridBuffer(trajs, capacity=1000)
        w = buf.weights()
        assert np.all(np.diff(w) > 0)

    def test_probabilities_sum_to_one_after_every_insert(self):
        buf = HybridBuffer([traj(0.3, seed=50)], capacity=400)
        rng = np.random.default_rng(0)
        for i in range(30):
            buf.insert(traj(float(rng.normal()), steps=10, seed=i,
                            outcome="success" if i % 2 else "collision"))
            assert abs(buf.probabilities().sum() - 1.0) < 1e-12

    def test_priority_positive_always(self, rng):
        trajs = [traj(float(rng.normal()), seed=i,
                      outcome="success" if rng.random() < 0.5 else "timeout")
                 for i in range(20)]
        buf = HybridBuffer(trajs, capacity=10000)
        assert np.all(buf.weights() > 0)


class TestSampling:
    def test_single_trajectory_always_sampled(self):
        buf = HybridBuffer([traj(1.0, seed=7)], capacity=100)
        out = buf.sample_trajectories(5, np.random.default_rng(0))
        assert all(t.seed == 7 for t in out)

    def test_empty_buffer_rejected(self):
        buf = HybridBuffer([], capacity=100)
        with pytest.raises(ValueError, match="empty"):
            buf.sample_trajectories(1, np.random.default_rng(0))

    def test_three_to_one_ratio(self, monkeypatch):
        # returns chosen so normalized priorities are 3 : 1
        monkeypatch.setattr(replay, "PRIORITY_EPSILON", 0.5)
        buf = HybridBuffer([], capacity=10_000)
        buf.insert(traj(1.0, outcome="collision", seed=0))   # weight 1.5
        buf.insert(traj(0.0, outcome="collision", seed=1))   # weight 0.5
        rng = np.random.default_rng(42)
        draws = buf.sample_trajectories(40_000, rng)
        count0 = sum(1 for t in draws if t.seed == 0)
        ratio = count0 / (len(draws) - count0)
        assert ratio == pytest.approx(3.0, rel=0.05)

    def test_chi_square_at_99_percent(self):
        rng_mk = np.random.default_rng(3)
        trajs = [traj(float(rng_mk.uniform(-1, 2)), seed=i,
                      outcome="success" if rng_mk.random() < 0.4 else "collision")
                 for i in range(12)]
        buf = HybridBuffer(trajs, capacity=10_000)
        p = buf.probabilities()
        draws = buf.sample_trajectories(100_000, np.random.default_rng(11))
        counts = np.zeros(len(trajs))
        for t in draws:
            counts[t.seed] += 1
        expected = p * len(draws)
        chi2 = ((counts - expected) ** 2 / expected).sum()
        bound = scistats.chi2.ppf(0.99, df=len(trajs) - 1)
        assert chi2 < bound

    def test_seeded_sampler_reproducible(self):
        buf = HybridBuffer([traj(float(i), seed=i) for i in range(6)],
                           capacity=10_000)
        a = [t.seed for t in buf.sample_trajectories(50, np.random.default_rng(9))]
        b = [t.seed for t in buf.sample_trajectories(50, np.random.default_rng(9))]
        assert a == b
