"""Return-conditioned causal-transformer policy.

Episodes are modelled as interleaved token triples (rtg, state, action)
over a context of K steps. A stack of causal attention blocks reads the
sequence; the action for step u is decoded at the state-token position,
squashed radially through tanh so its norm never exceeds v_max.

Training regresses predicted actions onto the logged ones (mean squared
error over the context positions and batch). The return-to-go slots are
one more input sequence: the caller hands tokenize the per-step values
(stored Monte-Carlo labels or predictor outputs when training). Online,
Actor is the one place that computes them, from the return predictor
(fine-tuning and deployment) or from a fixed target (ablation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import nn
from .config import RTG_MODES
from .core import joint_dim
from .features import canonicalize_joint, window_rows


def squash_fwd(z, v_max):
    """Radial tanh: a = v_max * tanh(|z|) / |z| * z, so |a| < v_max."""
    rho = np.sqrt((z * z).sum(axis=-1, keepdims=True))
    small = rho < 1e-6
    safe = np.where(small, 1.0, rho)
    g = np.where(small, 1.0 - rho * rho / 3.0, np.tanh(safe) / safe)
    return v_max * g * z, (z, rho, g)


def squash_bwd(cache, da, v_max):
    z, rho, g = cache
    small = rho < 1e-6
    safe = np.where(small, 1.0, rho)
    th = np.tanh(safe)
    sech2 = 1.0 - th * th
    # c = g'(rho)/rho with series fallback near zero
    c = np.where(small, -2.0 / 3.0 + (8.0 / 15.0) * rho * rho,
                 (sech2 * safe - th) / (safe ** 3))
    zdot = (z * da).sum(axis=-1, keepdims=True)
    return v_max * (g * da + c * zdot * z)


class TokenSequence(NamedTuple):
    """A batch of context windows: aligned (rtg, state, action) triples.

    states are canonicalized joint vectors; slots before the episode start
    are front padding (step_valid False). action_valid marks steps whose
    action token is real; at decision time the current step's action does
    not exist yet and its slot is zeroed and masked.
    """

    rtg: np.ndarray           # (B, K)
    states: np.ndarray        # (B, K, joint_dim)
    actions: np.ndarray       # (B, K, 2)
    step_valid: np.ndarray    # (B, K) bool
    action_valid: np.ndarray  # (B, K) bool


class DtPolicy:
    """Fixed-architecture causal policy over token triples."""

    def __init__(self, num_peds: int, context: int, hidden_dim: int = 128,
                 num_heads: int = 4, ffn_dim: int = 128, num_blocks: int = 3,
                 v_max: float = 1.0):
        self.num_peds = num_peds
        self.context = context
        self.hidden = hidden_dim
        self.heads = num_heads
        self.ffn = ffn_dim
        self.num_blocks = num_blocks
        self.v_max = v_max
        self.joint_dim = joint_dim(num_peds)

    def init_store(self, seed: int, dtype=np.float32) -> nn.ParamStore:
        rng = np.random.default_rng(seed)
        store = nn.ParamStore(dtype=dtype)
        D, F = self.hidden, self.ffn
        nn.add_dense(store, "emb_r", 1, D, rng)
        nn.add_dense(store, "emb_s", self.joint_dim, D, rng)
        nn.add_dense(store, "emb_a", 2, D, rng)
        store.add("pos", nn.xavier_uniform(rng, self.context, D))
        for i in range(self.num_blocks):
            nn.add_encoder_block(store, f"block{i}", D, F, rng)
        nn.add_dense(store, "head", D, 2, rng)
        # a spread-out start lands deep in the tanh squash where the radial
        # gradient vanishes and the action norm locks at v_max; start at the
        # origin where the squash is well conditioned
        store.blocks["head.W"][...] = 0.0
        return store

    def expected_param_count(self) -> int:
        D, F = self.hidden, self.ffn
        dense = lambda i, o: i * o + o
        block = 3 * dense(D, D) + dense(D, D) + 2 * D + dense(D, F) + dense(F, D)
        return (dense(1, D) + dense(self.joint_dim, D) + dense(2, D)
                + self.context * D + self.num_blocks * block + dense(D, 2))

    # -- forward / backward --------------------------------------------------

    def forward(self, store, rtg, states, actions, step_valid, action_valid):
        """Predicted actions at every state-token position.

        rtg: (B, K); states: (B, K, joint_dim) canonical; actions: (B, K, 2);
        step_valid / action_valid: (B, K) bool. Returns (a_hat, cache) with
        a_hat (B, K, 2), |a_hat| <= v_max.
        """
        dt = store.dtype
        rtg = np.ascontiguousarray(rtg, dtype=dt)
        states = np.ascontiguousarray(states, dtype=dt)
        actions = np.ascontiguousarray(actions, dtype=dt)
        B, K = rtg.shape
        D = self.hidden

        r_emb, c_r = nn.dense_fwd(store, "emb_r", rtg[..., None], relu=True)
        s_emb, c_s = nn.dense_fwd(store, "emb_s", states, relu=True)
        a_emb, c_a = nn.dense_fwd(store, "emb_a", actions, relu=True)
        pos = store["pos"]

        seq = np.zeros((B, 3 * K, D), dtype=dt)
        seq[:, 0::3] = r_emb + pos
        seq[:, 1::3] = s_emb + pos
        seq[:, 2::3] = a_emb + pos
        token_valid = np.zeros((B, 3 * K), dtype=bool)
        token_valid[:, 0::3] = step_valid
        token_valid[:, 1::3] = step_valid
        token_valid[:, 2::3] = action_valid

        caches = []
        x = seq
        for i in range(self.num_blocks):
            x, cb = nn.encoder_block_fwd(store, f"block{i}", x, self.heads,
                                         causal=True, valid=token_valid)
            caches.append(cb)

        h_s = np.ascontiguousarray(x[:, 1::3, :])
        z, c_head = nn.dense_fwd(store, "head", h_s)
        a_hat, c_sq = squash_fwd(z, self.v_max)
        cache = (B, K, c_r, c_s, c_a, caches, c_head, c_sq)
        return a_hat, cache

    def backward(self, store, cache, da_hat):
        B, K, c_r, c_s, c_a, caches, c_head, c_sq = cache
        D = self.hidden
        dz = squash_bwd(c_sq, da_hat.astype(store.dtype), self.v_max)
        dh_s = nn.dense_bwd(store, c_head, dz)
        dx = np.zeros((B, 3 * K, D), dtype=store.dtype)
        dx[:, 1::3] = dh_s
        for cb in reversed(caches):
            dx = nn.encoder_block_bwd(store, cb, dx)
        dr = dx[:, 0::3]
        ds = dx[:, 1::3]
        da = dx[:, 2::3]
        store.accumulate("pos", (dr + ds + da).sum(axis=0))
        nn.dense_bwd(store, c_r, dr)
        nn.dense_bwd(store, c_s, ds)
        nn.dense_bwd(store, c_a, da)

    def loss_and_grad(self, store, batch, target_actions, counts=None):
        """Action regression over valid context positions.

        Per position the squared Euclidean action error is taken; the loss
        averages positions and batch, window i weighted by counts[i], the
        number of times it was drawn (one each by default). The total is
        accumulated with exact summation, so it does not depend on batch
        order. Callers preparing logged actions as targets should radially
        clip them to 0.999 * v_max first (see features.clip_action_norm):
        the squashed head cannot reach the open boundary.
        """
        rtg, states, actions, step_valid, action_valid = batch
        if len(rtg) == 0:
            raise ValueError("empty batch")
        store.zero_grads()
        a_hat, cache = self.forward(store, rtg, states, actions,
                                    step_valid, action_valid)
        targets = np.asarray(target_actions, dtype=a_hat.dtype)
        diff = a_hat - targets
        counts = np.ones(len(rtg)) if counts is None else np.asarray(counts)
        w = (counts[:, None] * step_valid).astype(a_hat.dtype)
        per_sample = (w[..., None] * diff * diff).sum(axis=(1, 2))
        wsum = math.fsum(w.sum(axis=1).tolist())
        loss = math.fsum(per_sample.tolist()) / wsum
        da = (2.0 / wsum) * w[..., None] * diff
        self.backward(store, cache, da)
        return float(loss), a_hat


# -- tokenization ----------------------------------------------------------


def tokenize(episodes, ends, context: int, num_peds: int) -> TokenSequence:
    """Batch of context windows: episodes[i] is (states, actions, rtg),
    ends[i] the inclusive end step of window i.

    The conditioning slots copy `rtg`, the per-step return-to-go values
    aligned with `states`. Windows of one episode (the same three objects)
    share their step rows (see features.window_rows): each read step is
    canonicalized once. An action list that stops before a window's end
    (as Actor's does) leaves its later slots zeroed and masked.
    """
    reads, rows = window_rows(episodes, ends, context)
    rtg, states = [np.zeros(1)], [np.zeros((1, joint_dim(num_peds)))]
    actions, known = [np.zeros((1, 2))], [np.zeros(1, dtype=bool)]
    for (s, a, g), lo, read in reads:
        stop = lo + len(read)
        logged = np.arange(lo, stop) < len(a)
        acts = np.zeros((len(read), 2))
        acts[logged] = np.reshape(a[lo:stop], (-1, 2))
        rtg.append(np.asarray(g[lo:stop], dtype=np.float64)[read])
        states.append(canonicalize_joint(np.asarray(s[lo:stop], dtype=np.float64)[read],
                                         num_peds))
        actions.append(acts[read])
        known.append(logged[read])
    rtg, states, actions, known = (np.concatenate(x)[rows]
                                   for x in (rtg, states, actions, known))
    return TokenSequence(rtg=rtg, states=states, actions=actions, step_valid=rows > 0,
                         action_valid=known)


# -- acting ----------------------------------------------------------------


@dataclass
class EpisodeContext:
    """Rolling per-episode history consumed by Actor.act."""

    states: list = field(default_factory=list)
    actions: list = field(default_factory=list)
    rewards: list = field(default_factory=list)
    rtg: list = field(default_factory=list)


class Actor:
    """Greedy deterministic acting; the only code that computes return
    conditioning online."""

    def __init__(self, policy: DtPolicy, policy_store, rtg_source: str = "rtgp",
                 rtgp=None, rtgp_store=None, fixed_target: float = 2.0):
        if rtg_source not in RTG_MODES:
            raise ValueError(f"unknown rtg_source {rtg_source!r}")
        if rtg_source == "rtgp" and (rtgp is None or rtgp_store is None):
            raise ValueError("rtgp conditioning requires a predictor and its store")
        self.policy = policy
        self.policy_store = policy_store
        self.rtg_source = rtg_source
        self.rtgp = rtgp
        self.rtgp_store = rtgp_store
        self.fixed_target = fixed_target
        self.ctx = EpisodeContext()

    def begin_episode(self):
        self.ctx = EpisodeContext()

    def conditioning(self, t: int) -> float:
        """Return-to-go for step t: the fixed target minus the rewards so
        far, or the predictor's estimate from the history up to step t."""
        if self.rtg_source == "fixed":
            return self.fixed_target - math.fsum(self.ctx.rewards)
        return self.rtgp.predict(self.rtgp_store, self.ctx.states,
                                 self.ctx.actions, self.ctx.rewards, t)

    def act(self, obs_joint: np.ndarray) -> np.ndarray:
        """Action for the current observation; call observe() afterwards."""
        ctx = self.ctx
        t = len(ctx.actions)
        ctx.states.append(np.asarray(obs_joint, dtype=np.float64))
        ctx.rtg.append(self.conditioning(t))
        batch = tokenize([(ctx.states, ctx.actions, ctx.rtg)], [t],
                         self.policy.context, self.policy.num_peds)
        a_hat, _ = self.policy.forward(self.policy_store, *batch)
        action = a_hat[0, -1].astype(np.float64)
        # float32 rounding can land a hair above the tanh bound; renormalize
        norm = float(np.hypot(action[0], action[1]))
        if norm > self.policy.v_max:
            action *= self.policy.v_max / norm
        return action

    def observe(self, action, rew: float):
        self.ctx.actions.append(np.asarray(action, dtype=np.float64))
        self.ctx.rewards.append(float(rew))
