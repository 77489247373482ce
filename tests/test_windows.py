"""Window assembly against a per-slot reference.

The reference functions below fill one slot at a time from the whole
canonicalized episode, the way window assembly was first written. The
batched `tokenize`, `history_window`, `window_batch` and
`policy_batch_from` must reproduce them array for array, bit for bit.
`features.window_tables` is the one builder behind `tokenize` and
`window_batch`: it alone groups windows, picks the read steps, writes the
padding row and stacks the named step tables of a `features.Windows`.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from socnav.core import PED_PART_DIM, ROBOT_PART_DIM, joint_dim
from socnav.dataset import Trajectory, compute_rtg
from socnav.features import (SPATIAL_TOKEN_DIM, Windows, canonicalize_joint,
                             clip_action_norm, history_window, temporal_token_dim,
                             window_tables)
from socnav.policy import DtPolicy, tokenize
from socnav.rtgp import RtgPredictor
from socnav.trainer import policy_batch_from

STEPS = 6
WIDTHS = (1, 3, 5, 8)


def ref_tokenize(states, actions, rtg, end, context, num_peds):
    lo = max(0, end - context + 1)
    pad = context - (end - lo + 1)
    out = (np.zeros(context), np.zeros((context, joint_dim(num_peds))),
           np.zeros((context, 2)), np.zeros(context, dtype=bool))
    canon = canonicalize_joint(np.asarray(states, dtype=np.float64), num_peds)
    for slot, u in enumerate(range(lo, end + 1), start=pad):
        out[0][slot] = rtg[u]
        out[1][slot] = canon[u]
        out[3][slot] = True
        out[2][slot] = actions[u]
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


def window_fields(net, batch):
    """A window batch in the reference's per-slot layout: tokens, the valid
    mask its rows imply and the current state its last temporal token holds."""
    tokens = batch.slots("tokens")
    return (batch.slots("spatial"), tokens, batch.rows > 0, tokens[:, -1, :net.joint_dim])


def token_fields(seq):
    """A policy batch in the reference's per-slot layout."""
    return (seq.slots("rtg"), seq.slots("joint"), seq.slots("action"), seq.rows > 0)


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
def test_tokenize_matches_reference(rng, num_peds, as_list):
    # one call over every end of two episodes, half the windows drawn twice
    draws = []
    for states, actions, rewards, rtg in (episode(rng, num_peds),
                                          episode(rng, num_peds, steps=3)):
        shared = (states, actions, rtg)
        if as_list:
            shared = tuple(map(list, shared))
        draws += [(shared, end) for end in range(len(states))]
    draws += draws[::2]
    episodes, ends = [e for e, _ in draws], [end for _, end in draws]
    for width in WIDTHS:
        got = tokenize(episodes, ends, context=width, num_peds=num_peds)
        assert isinstance(got, Windows)
        fields = token_fields(got)
        for i, ((s, a, g), end) in enumerate(draws):
            assert_same([field[i] for field in fields],
                        ref_tokenize(s, a, g, end, width, num_peds))


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
    assert_same(history_window(list(states), [], [], 0, 0, 2),
                ref_history_window(list(states), [], [], 0, 1, 2)[:2])
    net = RtgPredictor(num_peds=2, window=4)
    batch = net.window_batch([(list(states), [], [])], [0])
    assert_same(window_fields(net, batch),
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
    want = ref_window_batch(net, episodes, ends)
    assert_same(window_fields(net, batch), want)
    # one all-zero padding row plus each episode's steps from its earliest
    # window's first slot to its latest end, each built once
    assert len(batch.tables["spatial"]) == 1 + 1 + 3 + 7
    assert not batch.tables["spatial"][0].any()
    assert np.array_equal(batch.rows == 0, ~want[2])


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
    row_ids = batch.tables["spatial"][:, 0, 0]
    assert len(np.unique(row_ids)) == len(row_ids)
    assert np.array_equal(seq.slots("joint")[..., 0], row_ids[batch.rows])
    assert np.array_equal(seq.rows > 0, batch.rows > 0)


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
    # tokenize reads an action at every step of a window
    with pytest.raises(ValueError, match=r"'action' holds 1 rows for the 4 steps 2\.\.5"):
        tokenize([(states, actions[:3], rtg)], [5], context=4, num_peds=2)


def test_window_batch_empty_raises():
    net = RtgPredictor(num_peds=2, window=4)
    with pytest.raises(ValueError, match="empty"):
        net.window_batch([], [])
    with pytest.raises(ValueError, match="empty"):
        tokenize([], [], context=4, num_peds=2)


@st.composite
def window_specs(draw):
    """(num_peds, width, seed, episodes, picks): per episode its step count
    and, for an Actor-style history, the step being decided (its action
    and reward lists stop there), else None; picks are (episode, end)."""
    num_peds = draw(st.sampled_from([0, 2]))
    width = draw(st.integers(1, 6))
    shapes = []
    for _ in range(draw(st.integers(1, 3))):
        steps = draw(st.integers(1, 14))
        shapes.append((steps, draw(st.none() | st.integers(0, steps - 1))))
    picks = []
    for _ in range(draw(st.integers(1, 8))):
        k = draw(st.integers(0, len(shapes) - 1))
        steps, stop = shapes[k]
        picks.append((k, draw(st.integers(0, steps - 1 if stop is None else stop))))
    picks += draw(st.lists(st.sampled_from(picks), max_size=3))   # duplicate windows
    return num_peds, width, draw(st.integers(0, 2**32 - 1)), shapes, picks


@settings(max_examples=150, deadline=None, database=None)
@given(window_specs())
@example((2, 4, 0, [(10, None)], [(0, 1), (0, 9), (0, 9)]))   # a gap: steps 2-5 unread
@example((0, 3, 1, [(12, 9), (4, None)], [(0, 9), (1, 0), (0, 2), (0, 9)]))
def test_builders_match_reference_on_drawn_batches(spec):
    num_peds, width, seed, shapes, picks = spec
    rng = np.random.default_rng(seed)
    eps = []
    for steps, stop in shapes:
        ep = episode(rng, num_peds, steps)
        eps.append(ep if stop is None else as_actor_history(*ep, stop))
    ends = [end for _, end in picks]
    # the distinct (episode, step) pairs some window reads
    read = {(k, u) for k, end in picks for u in range(max(0, end + 1 - width), end + 1)}

    # tokenize reads every action of a window, so it takes the whole episodes
    whole = [(k, end) for k, end in picks if shapes[k][1] is None]
    if whole:
        seq = token_fields(tokenize([(eps[k][0], eps[k][1], eps[k][3]) for k, _ in whole],
                                    [end for _, end in whole], context=width,
                                    num_peds=num_peds))
        for i, (k, end) in enumerate(whole):
            s, a, _, g = eps[k]
            assert_same([field[i] for field in seq],
                        ref_tokenize(s, a, g, end, width, num_peds))

    net = RtgPredictor(num_peds=num_peds, window=width)
    episodes = [eps[k][:3] for k, _ in picks]
    batch = net.window_batch(episodes, ends)
    assert_same(window_fields(net, batch), ref_window_batch(net, episodes, ends))
    assert len(batch.tables["spatial"]) == 1 + len(read)
    # the batch holds only read rows, so taking every window keeps it byte for byte
    again = batch.take(np.arange(len(ends)))
    assert [(a.dtype, a.shape, a.tobytes()) for a in (again.rows, *again.tables.values())] == [
        (a.dtype, a.shape, a.tobytes()) for a in (batch.rows, *batch.tables.values())]

    # the builder itself: tables naming each row's (episode, step) hold
    # exactly the read steps, by first-drawn episode, after the zero row
    index = {id(ep[0]): k for k, ep in enumerate(eps)}

    def build(ep, lo, hi):
        return {"k": np.full(hi + 1 - lo, index[id(ep[0])]), "u": np.arange(lo, hi + 1)}

    tables, rows = window_tables(episodes, ends, width, build)
    ks, us = tables["k"], tables["u"]
    order = list(dict.fromkeys(k for k, _ in picks))
    assert ks[0] == us[0] == 0
    assert list(zip(ks[1:].tolist(), us[1:].tolist())) == sorted(
        read, key=lambda r: (order.index(r[0]), r[1]))
    for (k, end), slots in zip(picks, rows):
        steps = np.arange(end + 1 - width, end + 1)
        real = steps >= 0
        assert np.array_equal(slots == 0, ~real)
        assert (ks[slots[real]] == k).all() and np.array_equal(us[slots[real]], steps[real])


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
    assert_same(token_fields(batch), tuple(map(np.stack, zip(*want_seqs))))
    assert_same([targets], [np.stack(want_targets)])
    assert isinstance(batch, Windows)
