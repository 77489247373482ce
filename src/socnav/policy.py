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

Training (tokenize) and acting (EpisodeContext) both hand the policy a
features.Windows over three step tables: `rtg`, `joint` (canonical joint
vectors) and `action`. A slot before the episode start reads padding row
0, the one mask of a step's three tokens. Acting featurizes each step
once: a decision writes its new step's rows (the conditioning, a zero
action until one is observed, which no decoded action reads, and with a
predictor the step's token and encoding), then reads both networks'
windows by row (features.slot_steps). Its forwards give a whole-window
build's bytes because nn.dense_fwd is batch-invariant.
"""

from __future__ import annotations

import math

import numpy as np

from . import features, nn
from .config import RTG_MODES
from .core import joint_dim
from .features import Windows, canonicalize_joint, window_tables


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

    # -- forward / backward --------------------------------------------------

    def forward(self, store, batch: Windows):
        """Predicted actions at every state-token position of a batch of
        windows. Returns (a_hat, cache) with a_hat (B, K, 2), |a_hat| <= v_max.
        """
        dt = store.dtype
        rtg, states, actions = (np.ascontiguousarray(batch.slots(name), dtype=dt)
                                for name in ("rtg", "joint", "action"))
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
        token_valid = np.repeat(batch.rows > 0, 3, axis=1)

        # actions are decoded at the state tokens (1::3) only, so the last
        # block runs its queries there (keys and values still cover every token)
        caches = []
        x = seq
        for i in range(self.num_blocks):
            rows = slice(1, None, 3) if i == self.num_blocks - 1 else None
            x, cb = nn.encoder_block_fwd(store, f"block{i}", x, self.heads,
                                         causal=True, valid=token_valid, rows=rows)
            caches.append(cb)

        z, c_head = nn.dense_fwd(store, "head", x)
        a_hat, c_sq = squash_fwd(z, self.v_max)
        cache = (c_r, c_s, c_a, caches, c_head, c_sq)
        return a_hat, cache

    def backward(self, store, cache, da_hat):
        c_r, c_s, c_a, caches, c_head, c_sq = cache
        dz = squash_bwd(c_sq, da_hat.astype(store.dtype), self.v_max)
        dx = nn.dense_bwd(store, c_head, dz)
        for cb in reversed(caches):
            dx = nn.encoder_block_bwd(store, cb, dx)
        dr = dx[:, 0::3]
        ds = dx[:, 1::3]
        da = dx[:, 2::3]
        store.accumulate("pos", (dr + ds + da).sum(axis=0))
        nn.dense_bwd(store, c_r, dr)
        nn.dense_bwd(store, c_s, ds)
        nn.dense_bwd(store, c_a, da)

    def loss_and_grad(self, store, batch, target_actions, counts=None, wsum=None):
        """Action regression loss (see action_loss) of a batch; populates
        the store's gradients. `wsum` is the weight that normalises
        (default: this batch's); a shard of a larger batch passes the
        whole batch's, so its gradients are its share of the batch's.
        Callers preparing logged actions as targets should radially clip
        them to 0.999 * v_max first (see features.clip_action_norm): the
        squashed head cannot reach the open boundary.
        """
        if len(batch.rows) == 0:
            raise ValueError("empty batch")
        store.zero_grads()
        a_hat, cache = self.forward(store, batch)
        loss, da = action_loss(a_hat, target_actions, batch.rows > 0, counts, wsum)
        self.backward(store, cache, da)
        return loss, a_hat


def valid_weight(valid, counts) -> float:
    """The action loss's normaliser: valid positions, each weighted by its
    window's draw count, summed exactly."""
    return math.fsum((np.asarray(counts)[:, None] * valid).sum(axis=1).tolist())


def action_loss(a_hat, target_actions, valid, counts=None, wsum=None):
    """Weighted mean squared action error and its gradient w.r.t. a_hat.

    Per valid position the squared Euclidean action error is taken, in
    window i weighted by counts[i], the number of times it was drawn (one
    each by default). The per-window terms are summed exactly and divided
    by `wsum` (default: valid_weight of this batch), so the loss does not
    depend on batch order or on how a batch is cut into shards.
    """
    targets = np.asarray(target_actions, dtype=a_hat.dtype)
    diff = a_hat - targets
    counts = np.ones(len(a_hat)) if counts is None else np.asarray(counts)
    w = (counts[:, None] * valid).astype(a_hat.dtype)
    per_sample = (w[..., None] * diff * diff).sum(axis=(1, 2))
    wsum = valid_weight(valid, counts) if wsum is None else wsum
    return math.fsum(per_sample.tolist()) / wsum, (2.0 / wsum) * w[..., None] * diff


# -- tokenization ----------------------------------------------------------


def tokenize(episodes, ends, context: int, num_peds: int) -> Windows:
    """Batch of context windows: episodes[i] is (states, actions, rtg),
    ends[i] the inclusive end step of window i.

    The conditioning slots copy `rtg`, the per-step return-to-go values
    aligned with `states`; the actions cover every step a window reads.
    features.window_tables builds the tables, so windows of one episode
    (the same three objects) share its canonical step rows.
    """
    def build(episode, lo, hi):
        states, actions, rtg = episode
        span = slice(lo, hi + 1)
        joint = canonicalize_joint(np.asarray(states[span], dtype=np.float64), num_peds)
        return {"rtg": np.asarray(rtg[span], dtype=np.float64), "joint": joint,
                "action": np.asarray(actions[span])}

    return window_tables(episodes, ends, context, build)


# -- acting ----------------------------------------------------------------


class EpisodeContext:
    """One episode's states and rewards (lists) and its step tables,
    consumed by Actor.act; the actions are the `action` table's rows.

    `tables` holds each per-step value an acting window reads, laid out as
    features.window_tables lays out a batch's: row 0 is the all-zero
    padding row and row u + 1 holds step u, written once; a full table
    doubles. They are `joint`, the canonical joint row; `rtg`, the
    conditioning; `action`, zero until observed (the current step's slot);
    and with a return predictor `tokens`, the temporal step token, and
    `encoded`, the per-step encoding (RtgPredictor.encode) under the
    actor's predictor store. The encodings hold for one episode under fixed
    parameters: Actor.begin_episode starts a new context, so an update
    between episodes is never read through encodings made before it.
    """

    FIRST_ROWS = 32

    def __init__(self, **row_shapes):
        """row_shapes: each table's name -> (shape, dtype) of one row."""
        self.states, self.rewards = [], []
        self.tables = {name: np.zeros((self.FIRST_ROWS, *shape), dtype=dtype)
                       for name, (shape, dtype) in row_shapes.items()}

    def begin_step(self, state) -> int:
        """Append the newest observation as step t and return t; its
        table rows t + 1 are zero until written."""
        t = len(self.states)
        self.states.append(state)
        if t + 1 == len(self.tables["rtg"]):
            self.tables = {name: np.concatenate([table, np.zeros_like(table)])
                           for name, table in self.tables.items()}
        return t

    def history(self, name: str) -> np.ndarray:
        """Table `name`'s rows of the steps so far, step 0 first."""
        return self.tables[name][1:len(self.states) + 1]


class Actor:
    """Greedy deterministic acting; the only code that computes return
    conditioning online.

    Each decision featurizes only its new step into the episode's step
    tables (EpisodeContext): one canonical joint row and, in rtgp mode,
    one step through the predictor's per-step encoder. Its actions and
    return estimates are those of whole-window decisions (tokenize,
    RtgPredictor.predict), byte for byte.
    """

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
        self.begin_episode()

    def begin_episode(self):
        rows = dict(joint=((self.policy.joint_dim,), np.float64), rtg=((), np.float64),
                    action=((2,), np.float64))
        if self.rtg_source == "rtgp":
            rows.update(tokens=((self.rtgp.temporal_dim,), np.float64),
                        encoded=((self.rtgp.num_peds + 1, self.rtgp.hidden),
                                 self.rtgp_store.dtype))
        self.ctx = EpisodeContext(**rows)

    def _featurize(self, t: int):
        """Write step t, the newest observation, to the step tables."""
        ctx = self.ctx
        spatial, tokens = features.history_window(ctx.states, ctx.history("action"),
                                                  ctx.rewards, t, t, self.policy.num_peds)
        ctx.tables["joint"][t + 1] = tokens[0, :self.policy.joint_dim]
        if self.rtg_source == "rtgp":
            encoded, _ = self.rtgp.encode(self.rtgp_store, spatial)
            ctx.tables["tokens"][t + 1] = tokens[0]
            ctx.tables["encoded"][t + 1] = encoded[0]

    def conditioning(self, t: int) -> float:
        """Return-to-go for step t: the fixed target minus the rewards so
        far, or the predictor's estimate over the stored steps up to t."""
        ctx = self.ctx
        if self.rtg_source == "fixed":
            return self.fixed_target - math.fsum(ctx.rewards)
        rows = features.slot_steps([t], self.rtgp.window) + 1
        # the forward gets the window's own encodings, rows lo + 1..t + 1,
        # after row lo, which it never reads, so its per-step work (the step
        # means) stays one window's however long the episode
        lo = max(int(rows[0, 0]) - 1, 0)
        rhat, _ = self.rtgp.forward(self.rtgp_store, ctx.tables["encoded"][lo:t + 2],
                                    ctx.tables["tokens"][rows], rows - lo)
        return float(rhat[0])

    def act(self, obs_joint: np.ndarray) -> np.ndarray:
        """Action for the current observation; call observe() afterwards."""
        ctx = self.ctx
        t = ctx.begin_step(np.asarray(obs_joint, dtype=np.float64))
        self._featurize(t)
        ctx.tables["rtg"][t + 1] = self.conditioning(t)
        rows = features.slot_steps([t], self.policy.context) + 1
        a_hat, _ = self.policy.forward(self.policy_store, Windows(ctx.tables, rows))
        action = a_hat[0, -1].astype(np.float64)
        # float32 rounding can land a hair above the tanh bound; renormalize
        norm = float(np.hypot(action[0], action[1]))
        if norm > self.policy.v_max:
            action *= self.policy.v_max / norm
        return action

    def observe(self, action, rew: float):
        self.ctx.rewards.append(float(rew))
        self.ctx.tables["action"][len(self.ctx.rewards)] = action
