"""Crowd navigation with offline pre-training and online fine-tuning.

A numpy library providing: a circle-crossing crowd simulator, a reciprocal
collision-avoidance controller, offline dataset generation with
return-to-go labels, transformer building blocks with hand-written
backward passes, a spatio-temporal return predictor, a return-conditioned
causal-transformer policy, hybrid prioritized replay, and the training
pipeline tying them together.
"""

__version__ = "0.1.0"

from .config import Config, NetConfig, OrcaConfig, SimConfig, TrainConfig  # noqa: F401
from .core import AgentState, Scenario, Status, reward, sample_scenario, to_robot_frame  # noqa: F401
from .dataset import rollout  # noqa: F401
from .env import CrowdEnv  # noqa: F401
