"""Spatio-temporal return-to-go predictor.

Two parallel encoders process a history window: a spatial transformer
attends over the per-step token set (one robot token carrying the
previous action and reward, one token per pedestrian), and a causal
temporal transformer attends over the step sequence. Their features are
merged by a dense layer, refined by a second spatial and a second causal
temporal block, averaged over valid steps, concatenated with the embedded
current state and mapped to a scalar return estimate by a two-layer head.

Trained by regression onto Monte-Carlo returns (mean squared error).

Input widths follow the true token sizes; hidden and head widths are
configurable with defaults (128) and (256, 1).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import nn
from .features import (SPATIAL_TOKEN_DIM, history_window, temporal_token_dim,
                       window_rows)
from .core import joint_dim


class WindowBatch(NamedTuple):
    """History windows over shared per-step token sets.

    A step's spatial tokens depend only on that step and its previous
    transition, so windows that hold the same step read one row of
    `spatial`; row 0 is the all-zero token set of every padded slot.
    """

    spatial: np.ndarray    # (S, m+1, SPATIAL_TOKEN_DIM) distinct steps, row 0 padding
    temporal: np.ndarray   # (B, W, temporal_dim) flat step tokens
    valid: np.ndarray      # (B, W) bool, False at front padding
    current: np.ndarray    # (B, joint_dim) canonical joint state at the window end
    rows: np.ndarray       # (B, W) row of `spatial` read by each slot


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
        store.add("pad", np.zeros(D))
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

    def expected_param_count(self) -> int:
        D, F = self.hidden, self.ffn
        dense = lambda i, o: i * o + o
        block = 3 * dense(D, D) + dense(D, D) + 2 * D + dense(D, F) + dense(F, D)
        return (dense(SPATIAL_TOKEN_DIM, D) + dense(self.temporal_dim, D)
                + D + self.window * D
                + 4 * block + dense(2 * D, D) + dense(self.joint_dim, D)
                + dense(2 * D, self.head_hidden) + dense(self.head_hidden, 1))

    # -- forward / backward -------------------------------------------------

    def forward(self, store, spatial, temporal, valid, current, rows):
        """Return estimates for a batch of windows (see WindowBatch).

        spatial: (S, m+1, 9) step token sets; temporal: (B, W, temporal_dim);
        valid: (B, W) bool; current: (B, joint_dim); rows: (B, W) index of
        each slot's step in spatial. Returns (rhat, cache).
        """
        dt = store.dtype
        spatial = np.ascontiguousarray(spatial, dtype=dt)
        temporal = np.ascontiguousarray(temporal, dtype=dt)
        current = np.ascontiguousarray(current, dtype=dt)
        S, M1, _ = spatial.shape
        B, W = rows.shape
        D = self.hidden

        # a step's spatial encoding does not depend on the window holding it:
        # encode each step once, then gather into the (B, W, m+1, D) layout
        f, c_es = nn.dense_fwd(store, "embed_s", spatial, relu=True)
        fs_rows, c_s1 = nn.encoder_block_fwd(store, "spatial1", f, self.heads)
        summary = fs_rows.mean(axis=1)[rows]

        te_raw, c_et = nn.dense_fwd(store, "embed_t", temporal, relu=True)
        te = np.where(valid[..., None], te_raw, store["pad"])
        x_t = te + store["pos"]
        ft, c_t1 = nn.encoder_block_fwd(store, "temporal1", x_t, self.heads,
                                        causal=True, valid=valid)

        cat = np.concatenate([summary, ft], axis=-1)
        merged, c_m = nn.dense_fwd(store, "merge", cat, relu=True)

        tok2 = fs_rows[rows]
        tok2 += merged[:, :, None, :]
        s2_flat, c_s2 = nn.encoder_block_fwd(store, "spatial2",
                                             tok2.reshape(B * W, M1, D), self.heads)
        s2 = s2_flat.reshape(B, W, M1, D).mean(axis=2)

        fst, c_t2 = nn.encoder_block_fwd(store, "temporal2", s2, self.heads,
                                         causal=True, valid=valid)

        nvalid = valid.sum(axis=1, keepdims=True).astype(dt)
        avg = (fst * valid[..., None]).sum(axis=1) / nvalid
        cur_emb, c_ec = nn.dense_fwd(store, "embed_cur", current, relu=True)
        hin = np.concatenate([avg, cur_emb], axis=-1)
        h1, c_h1 = nn.dense_fwd(store, "head1", hin, relu=True)
        out, c_h2 = nn.dense_fwd(store, "head2", h1)
        rhat = out[:, 0]
        cache = (S, M1, rows, valid, nvalid, c_es, c_s1, c_et, c_t1, c_m, c_s2,
                 c_t2, c_ec, c_h1, c_h2)
        return rhat, cache

    def backward(self, store, cache, drhat):
        (S, M1, rows, valid, nvalid, c_es, c_s1, c_et, c_t1, c_m, c_s2,
         c_t2, c_ec, c_h1, c_h2) = cache
        B, W = rows.shape
        D = self.hidden
        dt = store.dtype

        dout = drhat[:, None].astype(dt)
        dh1 = nn.dense_bwd(store, c_h2, dout)
        dhin = nn.dense_bwd(store, c_h1, dh1)
        davg, dcur = dhin[:, :D], dhin[:, D:]
        nn.dense_bwd(store, c_ec, dcur)
        dfst = valid[..., None] * (davg[:, None, :] / nvalid[:, :, None])

        ds2 = nn.encoder_block_bwd(store, c_t2, dfst)
        ds2_tok = np.broadcast_to(ds2[:, :, None, :] / M1,
                                  (B, W, M1, D)).reshape(B * W, M1, D)
        dfs = nn.encoder_block_bwd(store, c_s2,
                                   np.ascontiguousarray(ds2_tok)).reshape(B, W, M1, D)
        dmerged = dfs.sum(axis=2)

        dcat = nn.dense_bwd(store, c_m, dmerged)
        dsummary, dft = dcat[..., :D], dcat[..., D:]

        dx_t = nn.encoder_block_bwd(store, c_t1, np.ascontiguousarray(dft))
        store.accumulate("pos", dx_t.sum(axis=0))
        store.accumulate("pad", (dx_t * (~valid[..., None])).sum(axis=(0, 1)))
        nn.dense_bwd(store, c_et, dx_t * valid[..., None])

        dfs += dsummary[:, :, None, :] / M1
        # adjoint of the gather: each step row sums the slots that read it
        dfs_rows = np.zeros((S, M1, D), dtype=dfs.dtype)
        np.add.at(dfs_rows, rows.reshape(-1), dfs.reshape(B * W, M1, D))
        df = nn.encoder_block_bwd(store, c_s1, dfs_rows)
        nn.dense_bwd(store, c_es, df)

    def loss_and_grad(self, store, batch, targets, counts=None):
        """Mean squared error against Monte-Carlo returns; populates grads.

        counts[i] is how many times window i was drawn (one each by
        default): the loss is sum(c_i * (rhat_i - y_i)^2) / sum(c), the
        mean over the draws.
        """
        if len(batch.rows) == 0:
            raise ValueError("empty batch")
        store.zero_grads()
        rhat, cache = self.forward(store, *batch)
        loss, drhat = nn.mse_loss(rhat, np.asarray(targets, dtype=rhat.dtype), counts)
        self.backward(store, cache, drhat)
        return loss, rhat

    # -- data assembly -------------------------------------------------------

    def window_batch(self, episodes, ends) -> WindowBatch:
        """Batch of history windows: episodes[i] is (states, actions, rewards),
        ends[i] the inclusive end step of window i.

        Windows of one episode (the same three objects) share their step
        rows (see features.window_rows): one history_window call builds the
        tokens of the steps from the first slot of its earliest window to
        its latest end, and only the steps some window reads become rows.
        """
        reads, rows = window_rows(episodes, ends, self.window)
        spatial = [np.zeros((1, self.num_peds + 1, SPATIAL_TOKEN_DIM))]
        temporal = [np.zeros((1, self.temporal_dim))]
        for (states, actions, rewards), lo, read in reads:
            sp, te = history_window(states, actions, rewards, lo, lo + len(read) - 1,
                                    self.num_peds)
            spatial.append(sp[read])
            temporal.append(te[read])
        temporal = np.concatenate(temporal)
        return WindowBatch(spatial=np.concatenate(spatial), temporal=temporal[rows],
                           valid=rows > 0, current=temporal[rows[:, -1], :self.joint_dim],
                           rows=rows)

    def predict(self, store, states, actions, rewards, end: int) -> float:
        batch = self.window_batch([(states, actions, rewards)], [end])
        rhat, _ = self.forward(store, *batch)
        return float(rhat[0])

    def predict_sequence(self, store, states, actions, rewards) -> np.ndarray:
        """Return estimate at every step of one episode (batched forward)."""
        T = len(states)
        episodes = [(states, actions, rewards)] * T
        batch = self.window_batch(episodes, list(range(T)))
        rhat, _ = self.forward(store, *batch)
        return rhat.astype(np.float64)

