"""Window assembly against a per-slot reference.

The reference functions below fill one slot at a time from the whole
canonicalized episode, the way window assembly was first written. The
gather-based `tokenize`, `history_window`, `window_batch` and
`policy_batch_from` must reproduce them array for array, bit for bit.
"""

import numpy as np
import pytest

from socnav.core import PED_PART_DIM, ROBOT_PART_DIM, joint_dim
from socnav.dataset import Trajectory, compute_rtg
from socnav.features import (SPATIAL_TOKEN_DIM, canonicalize_joint, clip_action_norm,
                             history_window, temporal_token_dim)
from socnav.policy import DtPolicy, TokenSequence, tokenize
from socnav.rtgp import RtgPredictor
from socnav.trainer import policy_batch_from

STEPS = 6
WIDTHS = (1, 3, 5, 8)


def ref_tokenize(states, actions, rtg, end, context, num_peds, action_known_at_end=True):
    lo = max(0, end - context + 1)
    pad = context - (end - lo + 1)
    out = (np.zeros(context), np.zeros((context, joint_dim(num_peds))),
           np.zeros((context, 2)), np.zeros(context, dtype=bool),
           np.zeros(context, dtype=bool))
    canon = canonicalize_joint(np.asarray(states, dtype=np.float64), num_peds)
    for slot, u in enumerate(range(lo, end + 1), start=pad):
        out[0][slot] = rtg[u]
        out[1][slot] = canon[u]
        out[3][slot] = True
        if u < len(actions) and (action_known_at_end or u < end):
            out[2][slot] = actions[u]
            out[4][slot] = True
    return out


def ref_history_window(states, actions, rewards, end, width, num_peds):
    joint = canonicalize_joint(np.asarray(states, dtype=np.float64), num_peds)
    lo = max(0, end - width + 1)
    pad = width - (end - lo + 1)
    spatial = np.zeros((width, num_peds + 1, SPATIAL_TOKEN_DIM))
    temporal = np.zeros((width, temporal_token_dim(num_peds)))
    valid = np.zeros(width, dtype=bool)
    jd = joint.shape[-1]
    for slot, u in enumerate(range(lo, end + 1), start=pad):
        prev_a = actions[u - 1] if u > 0 else (0.0, 0.0)
        prev_r = rewards[u - 1] if u > 0 else 0.0
        spatial[slot, 0, :ROBOT_PART_DIM] = joint[u, :ROBOT_PART_DIM]
        spatial[slot, 0, ROBOT_PART_DIM:ROBOT_PART_DIM + 2] = prev_a
        spatial[slot, 0, ROBOT_PART_DIM + 2] = prev_r
        spatial[slot, 1:, :PED_PART_DIM] = joint[u, ROBOT_PART_DIM:].reshape(
            num_peds, PED_PART_DIM)
        temporal[slot, :jd] = joint[u]
        temporal[slot, jd:jd + 2] = prev_a
        temporal[slot, jd + 2] = prev_r
        valid[slot] = True
    return spatial, temporal, valid, joint[end]


def ref_window_batch(net, episodes, ends):
    B = len(ends)
    spatial = np.zeros((B, net.window, net.num_peds + 1, SPATIAL_TOKEN_DIM))
    temporal = np.zeros((B, net.window, net.temporal_dim))
    valid = np.zeros((B, net.window), dtype=bool)
    current = np.zeros((B, net.joint_dim))
    for i, ((s, a, r), end) in enumerate(zip(episodes, ends)):
        spatial[i], temporal[i], valid[i], current[i] = ref_history_window(
            s, a, r, end, net.window, net.num_peds)
    return spatial, temporal, valid, current


def assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.asarray(w)
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


def episode(rng, num_peds, steps=STEPS):
    """Random episode whose pedestrian distances include ties."""
    states = rng.normal(size=(steps, joint_dim(num_peds)))
    if num_peds > 1:
        dist = ROBOT_PART_DIM + 5
        states[::2, dist + PED_PART_DIM] = states[::2, dist]
    actions = rng.normal(size=(steps, 2))
    rewards = rng.normal(size=steps) * 0.1
    return states, actions, rewards, compute_rtg(rewards, 0.99)


def as_actor_history(states, actions, rewards, rtg, end):
    """Lists the way Actor holds them when deciding step `end`: no action
    or reward for the current step yet."""
    return (list(states[:end + 1]), list(actions[:end]), list(rewards[:end]),
            list(rtg[:end + 1]))


@pytest.mark.parametrize("num_peds", [0, 2])
@pytest.mark.parametrize("as_list", [False, True], ids=["arrays", "lists"])
@pytest.mark.parametrize("action_known_at_end", [True, False])
def test_tokenize_matches_reference(rng, num_peds, as_list, action_known_at_end):
    ep = episode(rng, num_peds)
    for width in WIDTHS:
        for end in range(STEPS):
            s, a, _, g = as_actor_history(*ep, end) if as_list else (*ep[:2], None, ep[3])
            got = tokenize(s, a, g, end=end, context=width, num_peds=num_peds,
                           action_known_at_end=action_known_at_end)
            assert isinstance(got, TokenSequence)
            assert_same(got, ref_tokenize(s, a, g, end, width, num_peds,
                                          action_known_at_end))


@pytest.mark.parametrize("num_peds", [0, 2])
@pytest.mark.parametrize("as_list", [False, True], ids=["arrays", "lists"])
def test_history_window_matches_reference(rng, num_peds, as_list):
    ep = episode(rng, num_peds)
    for width in WIDTHS:
        for end in range(STEPS):
            s, a, r, _ = as_actor_history(*ep, end) if as_list else ep
            assert_same(history_window(s, a, r, end, width, num_peds),
                        ref_history_window(s, a, r, end, width, num_peds))


def test_episode_start_with_empty_action_list(rng):
    states, _, _, _ = episode(rng, 2, steps=1)
    seq = tokenize(list(states), [], [0.5], end=0, context=4, num_peds=2,
                   action_known_at_end=False)
    assert_same(seq, ref_tokenize(list(states), [], [0.5], 0, 4, 2, False))
    assert seq.step_valid.tolist() == [False, False, False, True]
    assert not seq.action_valid.any()
    assert_same(history_window(list(states), [], [], 0, 4, 2),
                ref_history_window(list(states), [], [], 0, 4, 2))


@pytest.mark.parametrize("num_peds", [0, 2])
def test_window_batch_matches_reference(rng, num_peds):
    net = RtgPredictor(num_peds=num_peds, window=4, hidden_dim=16, num_heads=2,
                       ffn_dim=16, head_hidden=8)
    eps = [episode(rng, num_peds, steps=n)[:3] for n in (1, 3, 7)]
    episodes = [eps[0], eps[1], eps[1], eps[2], eps[2], eps[2]]
    ends = [0, 0, 2, 1, 3, 6]
    batch = net.window_batch(episodes, ends)
    # gathered back to one token set per slot, the shared step rows give the
    # per-window layout byte for byte
    assert_same((batch.spatial[batch.rows], *batch[1:4]),
                ref_window_batch(net, episodes, ends))
    # one all-zero padding row plus each episode's steps from its earliest
    # window's first slot to its latest end, each built once
    assert len(batch.spatial) == 1 + 1 + 3 + 7
    assert not batch.spatial[0].any()
    assert np.array_equal(batch.rows == 0, ~batch.valid)


@pytest.mark.parametrize("end", [-1, STEPS])
def test_out_of_range_end_raises(rng, end):
    states, actions, rewards, rtg = episode(rng, 2)
    with pytest.raises(ValueError, match="window"):
        history_window(states, actions, rewards, end, 4, 2)
    with pytest.raises(ValueError, match="window"):
        tokenize(states, actions, rtg, end=end, context=4, num_peds=2)


def test_window_batch_empty_raises():
    net = RtgPredictor(num_peds=2, window=4)
    with pytest.raises(ValueError, match="empty"):
        net.window_batch([], [])


def test_policy_targets_match_reference(rng):
    pol = DtPolicy(num_peds=2, context=4, hidden_dim=16, num_heads=2, ffn_dim=16,
                   num_blocks=1, v_max=1.0)
    trajs = []
    for n in (2, 6):
        states, actions, rewards, rtg = episode(rng, 2, steps=n)
        trajs.append(Trajectory(states=states, actions=actions * 2.0, rewards=rewards,
                                rtg=rtg, outcome="timeout", duration=1.0, seed=0))
    trajs_ends = [(trajs[0], 0), (trajs[0], 1), (trajs[1], 2), (trajs[1], 5)]
    batch, targets, counts = policy_batch_from(trajs_ends, pol,
                                               [t.rtg for t, _ in trajs_ends])
    assert counts.tolist() == [1, 1, 1, 1]
    want_seqs, want_targets = [], []
    for t, end in trajs_ends:
        want_seqs.append(ref_tokenize(t.states, t.actions, t.rtg, end, 4, 2))
        lo = max(0, end - 3)
        tgt = np.zeros((4, 2))
        tgt[4 - (end - lo + 1):] = clip_action_norm(t.actions[lo:end + 1], 1.0)
        want_targets.append(tgt)
    assert_same(batch, tuple(map(np.stack, zip(*want_seqs))))
    assert_same([targets], [np.stack(want_targets)])
    assert isinstance(batch, TokenSequence)
