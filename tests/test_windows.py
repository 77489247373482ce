"""Window assembly against a per-slot reference.

The reference functions below fill one slot at a time from the whole
canonicalized episode, the way window assembly was first written. The
batched `tokenize`, `history_window`, `window_batch` and
`policy_batch_from`, which share one `features.window_rows`, must
reproduce them array for array, bit for bit.
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
    # one call over every end of two episodes, half the windows drawn twice;
    # where a window's last action is unknown, its episode's actions stop
    # before the end, as Actor's list does
    draws = []
    for states, actions, rewards, rtg in (episode(rng, num_peds),
                                          episode(rng, num_peds, steps=3)):
        shared = (states, actions, rtg)
        if as_list:
            shared = tuple(map(list, shared))
        for end in range(len(states)):
            if action_known_at_end:
                seen = shared
            elif as_list:
                s, a, _, g = as_actor_history(states, actions, rewards, rtg, end)
                seen = (s, a, g)
            else:
                seen = (states, actions[:end], rtg)
            draws.append((seen, end, actions))
    draws += draws[::2]
    episodes, ends = [e for e, _, _ in draws], [end for _, end, _ in draws]
    for width in WIDTHS:
        got = tokenize(episodes, ends, context=width, num_peds=num_peds)
        assert isinstance(got, TokenSequence)
        for i, ((s, _, g), end, actions) in enumerate(draws):
            assert_same([field[i] for field in got],
                        ref_tokenize(s, actions, g, end, width, num_peds,
                                     action_known_at_end))


@pytest.mark.parametrize("num_peds", [0, 2])
@pytest.mark.parametrize("as_list", [False, True], ids=["arrays", "lists"])
def test_history_window_matches_reference(rng, num_peds, as_list):
    # the steps lo..hi are the unpadded window of width hi + 1 - lo ending at hi
    ep = episode(rng, num_peds)
    for hi in range(STEPS):
        s, a, r, _ = as_actor_history(*ep, hi) if as_list else ep
        for lo in range(hi + 1):
            assert_same(history_window(s, a, r, lo, hi, num_peds),
                        ref_history_window(s, a, r, hi, hi + 1 - lo, num_peds)[:2])


def test_episode_start_with_empty_action_list(rng):
    states, _, _, _ = episode(rng, 2, steps=1)
    seq = tokenize([(list(states), [], [0.5])], [0], context=4, num_peds=2)
    assert_same([field[0] for field in seq],
                ref_tokenize(list(states), [], [0.5], 0, 4, 2, False))
    assert seq.step_valid.tolist() == [[False, False, False, True]]
    assert not seq.action_valid.any()
    assert_same(history_window(list(states), [], [], 0, 0, 2),
                ref_history_window(list(states), [], [], 0, 1, 2)[:2])
    net = RtgPredictor(num_peds=2, window=4)
    batch = net.window_batch([(list(states), [], [])], [0])
    assert_same((batch.spatial[batch.rows], *batch[1:4]),
                ref_window_batch(net, [(list(states), [], [])], [0]))


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


@pytest.mark.parametrize("num_peds", [0, 2])
def test_tokenize_and_window_batch_read_the_same_rows(rng, num_peds):
    width = 4
    net = RtgPredictor(num_peds=num_peds, window=width, hidden_dim=16, num_heads=2,
                       ffn_dim=16, head_hidden=8)
    eps = [episode(rng, num_peds, steps=n) for n in (1, 3, 7)]
    # a unique id in each step's robot part, which canonicalization keeps
    # in place, names the step a slot holds; padding holds 0
    for k, (states, *_) in enumerate(eps):
        states[:, 0] = 100 * (k + 1) + np.arange(len(states))
    picks = [(0, 0), (1, 0), (1, 2), (2, 1), (2, 3), (2, 6), (1, 2), (2, 0)]
    ends = [end for _, end in picks]
    batch = net.window_batch([eps[k][:3] for k, _ in picks], ends)
    seq = tokenize([(eps[k][0], eps[k][1], eps[k][3]) for k, _ in picks], ends,
                   context=width, num_peds=num_peds)
    row_ids = batch.spatial[:, 0, 0]
    assert len(np.unique(row_ids)) == len(row_ids)
    assert np.array_equal(seq.states[..., 0], row_ids[batch.rows])
    assert np.array_equal(seq.step_valid, batch.valid)


@pytest.mark.parametrize("end", [-1, STEPS])
def test_out_of_range_end_raises(rng, end):
    states, actions, rewards, rtg = episode(rng, 2)
    net = RtgPredictor(num_peds=2, window=4)
    with pytest.raises(ValueError, match="window"):
        net.window_batch([(states, actions, rewards)], [0, end])
    with pytest.raises(ValueError, match="window"):
        tokenize([(states, actions, rtg)] * 2, [0, end], context=4, num_peds=2)


def test_mismatched_lengths_raise(rng):
    states, actions, rewards, rtg = episode(rng, 2)
    net = RtgPredictor(num_peds=2, window=4)
    with pytest.raises(ValueError, match="episodes for"):
        net.window_batch([(states, actions, rewards)], [0, 1])
    with pytest.raises(ValueError, match="episodes for"):
        tokenize([(states, actions, rtg)] * 2, [0], context=4, num_peds=2)


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
