import numpy as np
import pytest

from socnav.config import Config
from socnav.dataset import generate_dataset


def tiny_config(num_peds=2, seed=3) -> Config:
    """Small but complete config for fast unit tests."""
    cfg = Config.from_dict({
        "sim": {"num_peds": num_peds},
        "net": {"hidden_dim": 16, "num_heads": 2, "ffn_dim": 16,
                "rtgp_window": 5, "policy_context": 5, "policy_blocks": 1,
                "head_hidden": 8},
        "train": {"pretrain_iters": 12, "batch_size": 8,
                  "sampled_trajs": 2, "offline_episodes": 8,
                  "finetune_episodes": 4},
        "seed": seed,
    })
    return cfg


@pytest.fixture(scope="session")
def tiny_cfg():
    return tiny_config()


@pytest.fixture(scope="session")
def tiny_dataset(tmp_path_factory, tiny_cfg):
    """Eight short episodes under the reference controller."""
    path = tmp_path_factory.mktemp("data") / "tiny.jsonl"
    trajs, stats = generate_dataset(8, seed=1_000_000, sim_cfg=tiny_cfg.sim,
                                    gamma=tiny_cfg.train.gamma, out_path=path)
    return trajs, stats, path


@pytest.fixture()
def rng():
    return np.random.default_rng(123)
