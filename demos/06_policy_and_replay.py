"""The return-conditioned policy's token windows, the hybrid prioritized
buffer, and the dual-timescale update counts of online fine-tuning."""

import tempfile
from pathlib import Path

import numpy as np

from socnav import trainer
from socnav.config import Config, SimConfig
from socnav.dataset import generate_dataset
from socnav.policy import Actor, DtPolicy, tokenize
from socnav.replay import HybridBuffer

out = Path(tempfile.mkdtemp()) / "demo.jsonl"
trajs, _ = generate_dataset(30, seed=1_000_000, sim_cfg=SimConfig(), gamma=0.99,
                            out_path=out)
traj = trajs[0]
end = min(5, traj.num_steps - 1)
policy = DtPolicy(num_peds=5, context=4, hidden_dim=32, num_heads=2,
                  ffn_dim=32, num_blocks=1)
store = policy.init_store(0)

print("== conditioning for the same window ==")
# offline training conditions on the stored return labels; online, the
# actor computes the slots (here the fixed target minus rewards so far,
# replaying the logged episode)
actor = Actor(policy, store, rtg_source="fixed", fixed_target=2.0)
actor.begin_episode()
for u in range(end + 1):
    actor.act(traj.states[u])
    actor.observe(traj.actions[u], traj.rewards[u])
for source, rtg in (("labels", traj.rtg), ("fixed", actor.history("rtg"))):
    seq = tokenize([(traj.states, traj.actions, rtg)], [end], context=4, num_peds=5)
    print(f"  {source:>6}: rtg slots {np.round(seq.slots('rtg')[0], 3).tolist()}")

print("\n== hybrid buffer with return-based priorities ==")
buf = HybridBuffer(trajs, capacity=100_000)
probs = buf.probabilities()
by_outcome = {}
for t, p in zip(trajs, probs):
    by_outcome.setdefault(t.outcome, []).append(p)
for outcome, ps in sorted(by_outcome.items()):
    print(f"  {outcome:>9}: {len(ps):2d} trajectories, "
          f"mean sampling probability {np.mean(ps):.4f}")

rng = np.random.default_rng(0)
draws = buf.sample_trajectories(5000, rng)
frac = sum(1 for t in draws if t.outcome == "success") / len(draws)
succ = sum(1 for t in trajs if t.outcome == "success") / len(trajs)
print(f"  successes are {succ:.0%} of the data but {frac:.0%} of the draws")

print("\n== dual-timescale updates per fine-tuning episode ==")
cfg = Config.from_dict({
    "sim": {"num_peds": 5},
    "net": {"hidden_dim": 16, "num_heads": 2, "ffn_dim": 16, "rtgp_window": 4,
            "policy_context": 4, "policy_blocks": 1, "head_hidden": 8},
    "train": {"sampled_trajs": 4, "batch_size": 8},
})
small_policy, small_rtgp = trainer.build_models(cfg)
ft = trainer.finetune_online(small_policy.init_store(0), small_rtgp.init_store(1),
                             trajs, cfg, seed=0, episodes=3)
fast = slow = 0
for i, ep in enumerate(ft.episodes):
    fast += ep.fast_updates
    slow += ep.slow_updates
    print(f"  episode {i}: {ep.fast_updates} predictor updates, "
          f"{ep.slow_updates} policy update (cumulative {fast} > {slow})")

print("\n== deterministic bounded actions ==")
batch = tokenize([(traj.states, traj.actions, traj.rtg)], [3], context=4, num_peds=5)
a_hat, _ = policy.forward(store, batch)
print(f"  action at the last step {a_hat[0, -1]}, "
      f"speed {np.linalg.norm(a_hat[0, -1]):.3f} <= 1.0")
