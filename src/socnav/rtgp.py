"""Spatio-temporal return-to-go predictor.

Two parallel encoders process a history window: a spatial transformer
attends over the per-step token set (one robot token carrying the
previous action and reward, one token per pedestrian), and a causal
temporal transformer attends over the step sequence. Their features are
merged by a dense layer, refined by a second spatial and a second causal
temporal block, averaged over valid steps, concatenated with the embedded
current state and mapped to a scalar return estimate by a two-layer head.

Two parts: `encode`, the per-step encoder (`embed_s`, `spatial1`), runs
on each step's token set alone, and `forward`, the window part (`embed_t`
through `head2`), reads those encodings by row. Training and acting run
the same two parts; acting keeps each step's encoding for its episode.
A batch is a features.Windows over the step tables `spatial` (token
sets, for `encode`) and `tokens` (temporal tokens, read at every slot).

One padding rule: front padding is row 0 of the step tables (all-zero
tokens), and only the first stage sees it: the per-step encoder in a
training batch, and `embed_t` and `temporal1` at every slot. From `merge`
on only real slots run: both temporal blocks give padded keys zero weight
and the average masks padded slots out, so nothing reads a padded slot's
state.

Trained by regression onto Monte-Carlo returns (mean squared error).

Input widths follow the true token sizes; hidden and head widths are
configurable with defaults (128) and (256, 1).
"""

from __future__ import annotations

import numpy as np

from . import nn
from .features import (SPATIAL_TOKEN_DIM, Windows, history_window,
                       temporal_token_dim, window_tables)
from .core import joint_dim


class RtgPredictor:
    """Fixed-architecture return predictor over history windows."""

    def __init__(self, num_peds: int, window: int, hidden_dim: int = 128,
                 num_heads: int = 4, ffn_dim: int = 128, head_hidden: int = 256):
        self.num_peds = num_peds
        self.window = window
        self.hidden = hidden_dim
        self.heads = num_heads
        self.ffn = ffn_dim
        self.head_hidden = head_hidden
        self.temporal_dim = temporal_token_dim(num_peds)
        self.joint_dim = joint_dim(num_peds)

    # -- parameters --------------------------------------------------------

    def init_store(self, seed: int, dtype=np.float32) -> nn.ParamStore:
        rng = np.random.default_rng(seed)
        store = nn.ParamStore(dtype=dtype)
        D, F = self.hidden, self.ffn
        nn.add_dense(store, "embed_s", SPATIAL_TOKEN_DIM, D, rng)
        nn.add_dense(store, "embed_t", self.temporal_dim, D, rng)
        store.add("pos", nn.xavier_uniform(rng, self.window, D))
        nn.add_encoder_block(store, "spatial1", D, F, rng)
        nn.add_encoder_block(store, "temporal1", D, F, rng)
        nn.add_dense(store, "merge", 2 * D, D, rng)
        nn.add_encoder_block(store, "spatial2", D, F, rng)
        nn.add_encoder_block(store, "temporal2", D, F, rng)
        nn.add_dense(store, "embed_cur", self.joint_dim, D, rng)
        nn.add_dense(store, "head1", 2 * D, self.head_hidden, rng)
        nn.add_dense(store, "head2", self.head_hidden, 1, rng)
        return store

    # -- forward / backward -------------------------------------------------

    def encode(self, store, spatial):
        """Per-step encoder: `embed_s`, then `spatial1` over each step's set.

        spatial: (S, m+1, 9) step token sets. A step's encoding depends on
        that step alone, not on a window holding it, so a batch encodes
        each of its distinct steps once and acting encodes each step once
        per episode (policy.EpisodeContext). Returns (steps, cache) with
        steps (S, m+1, hidden).
        """
        spatial = np.ascontiguousarray(spatial, dtype=store.dtype)
        f, c_es = nn.dense_fwd(store, "embed_s", spatial, relu=True)
        steps, c_s1 = nn.encoder_block_fwd(store, "spatial1", f, self.heads)
        return steps, (c_es, c_s1)

    def encode_bwd(self, store, cache, dsteps):
        c_es, c_s1 = cache
        nn.dense_bwd(store, c_es, nn.encoder_block_bwd(store, c_s1, dsteps))

    def forward(self, store, steps, temporal, rows):
        """Return estimates for a batch of windows over encoded steps.

        steps: (S, m+1, hidden) step encodings (see encode); temporal:
        (B, W, temporal_dim), whose last slot holds the current state;
        rows: (B, W) index of each real slot's step in steps, 0 at padding.
        Only real slots read steps, so its row 0 is never read (acting
        passes a slice of its episode's encodings). Returns (rhat, cache).
        """
        dt = store.dtype
        temporal = np.ascontiguousarray(temporal, dtype=dt)
        current = np.ascontiguousarray(temporal[:, -1, :self.joint_dim])
        valid = rows > 0
        S, M1, _ = steps.shape
        B, W = rows.shape
        D = self.hidden

        te, c_et = nn.dense_fwd(store, "embed_t", temporal, relu=True)
        ft, c_t1 = nn.encoder_block_fwd(store, "temporal1", te + store["pos"], self.heads,
                                        causal=True, valid=valid)

        # from merge on only real slots run: temporal2 gives padded slots zero
        # weight and the average masks them out, so they read zeros
        real = np.flatnonzero(valid)
        slot_rows = rows.reshape(-1)[real]
        cat = np.hstack([steps.mean(axis=1)[slot_rows], ft.reshape(B * W, D)[real]])
        merged, c_m = nn.dense_fwd(store, "merge", cat, relu=True)
        tok2 = steps[slot_rows]
        tok2 += merged[:, None, :]
        s2_real, c_s2 = nn.encoder_block_fwd(store, "spatial2", tok2, self.heads)
        s2 = np.zeros((B * W, D), dtype=dt)
        s2[real] = s2_real.mean(axis=1)

        fst, c_t2 = nn.encoder_block_fwd(store, "temporal2", s2.reshape(B, W, D),
                                         self.heads, causal=True, valid=valid)

        nvalid = valid.sum(axis=1, keepdims=True).astype(dt)
        avg = (fst * valid[..., None]).sum(axis=1) / nvalid
        cur_emb, c_ec = nn.dense_fwd(store, "embed_cur", current, relu=True)
        hin = np.concatenate([avg, cur_emb], axis=-1)
        h1, c_h1 = nn.dense_fwd(store, "head1", hin, relu=True)
        out, c_h2 = nn.dense_fwd(store, "head2", h1)
        rhat = out[:, 0]
        cache = (S, M1, real, slot_rows, valid, nvalid, c_et, c_t1, c_m,
                 c_s2, c_t2, c_ec, c_h1, c_h2)
        return rhat, cache

    def backward(self, store, cache, drhat):
        """Gradients of the window part; returns d(steps) for encode_bwd."""
        (S, M1, real, slot_rows, valid, nvalid, c_et, c_t1, c_m,
         c_s2, c_t2, c_ec, c_h1, c_h2) = cache
        B, W = valid.shape
        D = self.hidden
        dt = store.dtype

        dout = drhat[:, None].astype(dt)
        dh1 = nn.dense_bwd(store, c_h2, dout)
        dhin = nn.dense_bwd(store, c_h1, dh1)
        davg, dcur = dhin[:, :D], dhin[:, D:]
        nn.dense_bwd(store, c_ec, dcur)
        dfst = valid[..., None] * (davg[:, None, :] / nvalid[:, :, None])

        ds2 = nn.encoder_block_bwd(store, c_t2, dfst).reshape(B * W, D)
        ds2_tok = np.broadcast_to((ds2[real] / M1)[:, None, :], (len(real), M1, D))
        dfs = nn.encoder_block_bwd(store, c_s2, np.ascontiguousarray(ds2_tok))
        dcat = nn.dense_bwd(store, c_m, dfs.sum(axis=1))

        dft = np.zeros((B * W, D), dtype=dt)
        dft[real] = dcat[:, D:]
        dx_t = nn.encoder_block_bwd(store, c_t1, dft.reshape(B, W, D))
        store.accumulate("pos", dx_t.sum(axis=0))
        nn.dense_bwd(store, c_et, dx_t)

        dfs += (dcat[:, :D] / M1)[:, None, :]
        # adjoint of the gather: each step row sums the real slots that read
        # it (padded slots carry exact-zero gradients)
        dsteps = np.zeros((S, M1, D), dtype=dt)
        nn.add_at_rows(dsteps, slot_rows, dfs)
        return dsteps

    def loss_and_grad(self, store, batch, targets, counts=None, total=None):
        """Mean squared error against Monte-Carlo returns; populates grads.

        counts[i] is how many times window i was drawn (one each by
        default): the loss is sum(c_i * (rhat_i - y_i)^2) / sum(c), the
        mean over the draws. `total` replaces sum(c) (see nn.mse_loss), so
        a shard of a larger batch passes the whole batch's.
        """
        if len(batch.rows) == 0:
            raise ValueError("empty batch")
        store.zero_grads()
        steps, c_enc = self.encode(store, batch.tables["spatial"])
        rhat, cache = self.forward(store, steps, batch.slots("tokens"), batch.rows)
        loss, drhat = nn.mse_loss(rhat, targets, counts, total)
        self.encode_bwd(store, c_enc, self.backward(store, cache, drhat))
        return loss, rhat

    # -- data assembly -------------------------------------------------------

    def window_batch(self, episodes, ends) -> Windows:
        """Batch of history windows: episodes[i] is (states, actions, rewards),
        ends[i] the inclusive end step of window i.

        features.window_tables builds the tables `spatial` (each step's
        token set) and `tokens` (its temporal token): one history_window
        call per distinct episode (the same three objects) builds its
        steps, and only the steps some window reads become rows.
        """
        def build(episode, lo, hi):
            spatial, tokens = history_window(*episode, lo, hi, self.num_peds)
            return {"spatial": spatial, "tokens": tokens}

        return window_tables(episodes, ends, self.window, build)

    def predict_batch(self, store, batch: Windows) -> np.ndarray:
        """Return estimates of a window batch: encode its steps, then forward."""
        steps, _ = self.encode(store, batch.tables["spatial"])
        rhat, _ = self.forward(store, steps, batch.slots("tokens"), batch.rows)
        return rhat

    def predict(self, store, states, actions, rewards, end: int) -> float:
        """Return estimate at step `end` of a history, its whole window
        featurized and encoded here (acting encodes each step once
        instead: policy.Actor)."""
        return float(self.predict_batch(store, self.window_batch(
            [(states, actions, rewards)], [end]))[0])

    def predict_sequence(self, store, states, actions, rewards) -> np.ndarray:
        """Return estimate at every step of one episode (batched forward)."""
        T = len(states)
        batch = self.window_batch([(states, actions, rewards)] * T, list(range(T)))
        return self.predict_batch(store, batch).astype(np.float64)

