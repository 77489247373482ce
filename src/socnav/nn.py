"""Differentiable building blocks with hand-written backward passes.

Only the fixed architectures used here are supported: dense layers
(optionally ReLU), layer normalization, multi-head self-attention with
optional causal and key-validity masks, mean-squared-error reductions,
and the layer-wise adaptive (LAMB) optimizer. Parameters live in a
ParamStore of named blocks; forward functions take the store plus a block
prefix and return (output, cache), and each has a matching backward that
accumulates gradients into the store.

Training runs in float32; gradient checking casts the store to float64.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

CKPT_MAGIC = b"SOCNAV-CKPT-1\n"


class OptimizerError(RuntimeError):
    """Non-finite gradient encountered; message names the block."""


class ParamStore:
    """Named parameter blocks with matching gradient and moment buffers."""

    def __init__(self, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        self.blocks: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.step = 0

    def add(self, name: str, value: np.ndarray):
        if name in self.blocks:
            raise ValueError(f"duplicate parameter block {name!r}")
        value = np.asarray(value, dtype=self.dtype)
        self.blocks[name] = value
        self.grads[name] = np.zeros_like(value)
        self.m[name] = np.zeros_like(value)
        self.v[name] = np.zeros_like(value)
        return value

    def __getitem__(self, name: str) -> np.ndarray:
        return self.blocks[name]

    def zero_grads(self):
        for g in self.grads.values():
            g[...] = 0.0

    def accumulate(self, name: str, grad):
        self.grads[name] += grad

    def num_params(self) -> int:
        return sum(b.size for b in self.blocks.values())

    def astype(self, dtype) -> "ParamStore":
        out = ParamStore(dtype=dtype)
        for name, b in self.blocks.items():
            out.add(name, b.astype(dtype))
        out.step = self.step
        return out

    def copy(self) -> "ParamStore":
        out = ParamStore(dtype=self.dtype)
        for name, b in self.blocks.items():
            out.add(name, b.copy())
            out.m[name] = self.m[name].copy()
            out.v[name] = self.v[name].copy()
        out.step = self.step
        return out

    # -- persistence ------------------------------------------------------

    def to_bytes(self, extra: dict | None = None) -> bytes:
        """Versioned binary checkpoint: JSON header plus raw block bytes.

        The byte stream is a pure function of the store contents, so
        identical training runs produce identical files.
        """
        names = list(self.blocks)
        header = {
            "format": 1,
            "step": self.step,
            "dtype": self.dtype.name,
            "blocks": [{"name": n, "shape": list(self.blocks[n].shape)} for n in names],
            "extra": extra or {},
        }
        payload = json.dumps(header, sort_keys=True).encode()
        parts = [CKPT_MAGIC, struct.pack("<Q", len(payload)), payload]
        for kind in ("blocks", "m", "v"):
            source = getattr(self, kind)
            parts.extend(np.ascontiguousarray(source[n]).tobytes() for n in names)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes, offset: int = 0):
        """Parse the stream starting at `offset`; returns (store, extra, end).

        A stream that ends early raises ValueError naming the block and the
        byte offset where the data ran out.
        """
        def take(nbytes, what):
            if off + nbytes > len(data):
                raise ValueError(f"checkpoint truncated in {what} at byte offset "
                                 f"{off}: needs {nbytes} bytes, {len(data) - off} left")
            return data[off:off + nbytes]

        off = offset
        if data[off:off + len(CKPT_MAGIC)] != CKPT_MAGIC:
            raise ValueError("not a checkpoint byte stream")
        off += len(CKPT_MAGIC)
        (hlen,) = struct.unpack("<Q", take(8, "header length"))
        off += 8
        header = json.loads(take(hlen, "header").decode())
        off += hlen
        store = cls(dtype=header["dtype"])
        store.step = header["step"]
        shapes = [(b["name"], tuple(b["shape"])) for b in header["blocks"]]
        for kind in ("blocks", "m", "v"):
            target = getattr(store, kind)
            for name, shape in shapes:
                count = int(np.prod(shape)) if shape else 1
                nbytes = count * store.dtype.itemsize
                raw = take(nbytes, f"{kind} block {name!r}")
                arr = np.frombuffer(raw, dtype=store.dtype).reshape(shape).copy()
                off += nbytes
                if kind == "blocks":
                    store.add(name, arr)
                else:
                    target[name] = arr
        return store, header["extra"], off


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape=None):
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape or (fan_in, fan_out))


def add_dense(store: ParamStore, name: str, din: int, dout: int,
              rng: np.random.Generator):
    store.add(f"{name}.W", xavier_uniform(rng, din, dout))
    store.add(f"{name}.b", np.zeros(dout))


# -- layers ---------------------------------------------------------------


def dense_fwd(store, name, x, relu=False):
    """y = x @ W + b, optionally through ReLU. x: (..., din)."""
    W, b = store[f"{name}.W"], store[f"{name}.b"]
    if x.shape[-1] != W.shape[0]:
        raise ValueError(f"{name}: input width {x.shape[-1]} != {W.shape[0]}")
    pre = x @ W + b
    y = np.maximum(pre, 0.0) if relu else pre
    return y, (name, x, pre if relu else None)


def dense_bwd(store, cache, dy):
    name, x, pre = cache
    if pre is not None:
        dy = dy * (pre > 0)
    W = store[f"{name}.W"]
    x2 = x.reshape(-1, x.shape[-1])
    dy2 = dy.reshape(-1, dy.shape[-1])
    store.accumulate(f"{name}.W", x2.T @ dy2)
    store.accumulate(f"{name}.b", dy2.sum(axis=0))
    return (dy @ W.T).reshape(x.shape)


def add_layer_norm(store: ParamStore, name: str, dim: int):
    store.add(f"{name}.g", np.ones(dim))
    store.add(f"{name}.b", np.zeros(dim))


LN_EPS = 1e-5


def layer_norm_fwd(store, name, x):
    """Normalize the last axis to zero mean / unit variance, then affine."""
    g, b = store[f"{name}.g"], store[f"{name}.b"]
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv_std
    return g * xhat + b, (name, xc, inv_std, xhat)


def layer_norm_bwd(store, cache, dy):
    name, xc, inv_std, xhat = cache
    g = store[f"{name}.g"]
    d = xc.shape[-1]
    reduce_axes = tuple(range(dy.ndim - 1))
    store.accumulate(f"{name}.g", (dy * xhat).sum(axis=reduce_axes))
    store.accumulate(f"{name}.b", dy.sum(axis=reduce_axes))
    dxhat = dy * g
    dvar = (dxhat * xc).sum(axis=-1, keepdims=True) * (-0.5) * inv_std ** 3
    dmu = -dxhat.sum(axis=-1, keepdims=True) * inv_std \
        + dvar * (-2.0) * xc.mean(axis=-1, keepdims=True)
    return dxhat * inv_std + dvar * (2.0 / d) * xc + dmu / d


def add_attention(store: ParamStore, name: str, dim: int, rng: np.random.Generator):
    add_dense(store, f"{name}.out", dim, dim, rng)


def attention_fwd(store, name, q_in, k_in, v_in, num_heads,
                  causal=False, valid=None):
    """Multi-head scaled dot-product attention over axis -2.

    q_in/k_in/v_in: (B, T, D) already projected. Heads are split from D,
    attended independently, concatenated and merged by the output layer.
    With `causal`, position t attends only to positions <= t. `valid`
    (B, T) boolean marks real (non-padded) positions; padded keys receive
    exactly zero weight and fully padded query rows produce zero output.
    """
    B, T, D = q_in.shape
    if D % num_heads != 0:
        raise ValueError(f"{name}: dim {D} not divisible by {num_heads} heads")
    dk = D // num_heads

    def split(x):  # (B, T, D) -> (B, H, T, dk)
        return x.reshape(B, T, num_heads, dk).transpose(0, 2, 1, 3)

    q, k, v = split(q_in), split(k_in), split(v_in)
    scores = (q @ k.transpose(0, 1, 3, 2)) / np.sqrt(np.asarray(dk, dtype=q.dtype))

    allowed = np.ones((B, 1, T, T), dtype=bool)
    if causal:
        allowed = allowed & np.tril(np.ones((T, T), dtype=bool))
    if valid is not None:
        allowed = allowed & valid[:, None, None, :]
        allowed = allowed & valid[:, None, :, None]
    neg = np.asarray(-np.inf, dtype=scores.dtype)
    scores = np.where(allowed, scores, neg)
    row_max = scores.max(axis=-1, keepdims=True)
    row_max = np.where(np.isfinite(row_max), row_max, 0.0)
    e = np.exp(scores - row_max)
    denom = e.sum(axis=-1, keepdims=True)
    probs = e / np.where(denom > 0, denom, 1.0)

    ctx = probs @ v                                    # (B, H, T, dk)
    merged = ctx.transpose(0, 2, 1, 3).reshape(B, T, D)
    out, dcache = dense_fwd(store, f"{name}.out", merged)
    return out, (name, q, k, v, probs, dcache, num_heads)


def attention_bwd(store, cache, dy):
    name, q, k, v, probs, dcache, num_heads = cache
    B, H, T, dk = q.shape
    D = H * dk
    dmerged = dense_bwd(store, dcache, dy)
    dctx = dmerged.reshape(B, T, H, dk).transpose(0, 2, 1, 3)

    dprobs = dctx @ v.transpose(0, 1, 3, 2)
    dv = probs.transpose(0, 1, 3, 2) @ dctx
    dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
    dscores = dscores / np.sqrt(np.asarray(dk, dtype=q.dtype))
    dq = dscores @ k
    dk_ = dscores.transpose(0, 1, 3, 2) @ q

    def merge(x):  # (B, H, T, dk) -> (B, T, D)
        return x.transpose(0, 2, 1, 3).reshape(B, T, D)

    return merge(dq), merge(dk_), merge(dv)


# -- transformer encoder block (attention + residual + LN + FFN) ----------


def add_encoder_block(store, name, dim, ffn_dim, rng):
    """Projections, attention merge, layer norm and the two-layer FFN."""
    add_dense(store, f"{name}.q", dim, dim, rng)
    add_dense(store, f"{name}.k", dim, dim, rng)
    add_dense(store, f"{name}.v", dim, dim, rng)
    add_attention(store, f"{name}.att", dim, rng)
    add_layer_norm(store, f"{name}.ln", dim)
    add_dense(store, f"{name}.f1", dim, ffn_dim, rng)
    add_dense(store, f"{name}.f2", ffn_dim, dim, rng)


def encoder_block_fwd(store, name, x, num_heads, causal=False, valid=None):
    """x + MSA(q(x), k(x), v(x)), then x' + FFN(LN(x'))."""
    q, cq = dense_fwd(store, f"{name}.q", x, relu=True)
    k, ck = dense_fwd(store, f"{name}.k", x, relu=True)
    v, cv = dense_fwd(store, f"{name}.v", x, relu=True)
    att, ca = attention_fwd(store, f"{name}.att", q, k, v, num_heads,
                            causal=causal, valid=valid)
    x1 = att + x
    h, cn = layer_norm_fwd(store, f"{name}.ln", x1)
    f1, c1 = dense_fwd(store, f"{name}.f1", h, relu=True)
    f2, c2 = dense_fwd(store, f"{name}.f2", f1)
    y = f2 + x1
    return y, (name, cq, ck, cv, ca, cn, c1, c2)


def encoder_block_bwd(store, cache, dy):
    name, cq, ck, cv, ca, cn, c1, c2 = cache
    df1 = dense_bwd(store, c2, dy)
    dh = dense_bwd(store, c1, df1)
    dx1 = layer_norm_bwd(store, cn, dh) + dy
    dq, dk, dv = attention_bwd(store, ca, dx1)
    dx = dx1.copy()
    dx += dense_bwd(store, cq, dq)
    dx += dense_bwd(store, ck, dk)
    dx += dense_bwd(store, cv, dv)
    return dx


# -- losses ---------------------------------------------------------------


def mse_loss(pred, target):
    """Mean squared error and its gradient w.r.t. pred."""
    diff = pred - target
    n = diff.size
    return float((diff * diff).sum() / n), (2.0 / n) * diff


# -- optimizer -------------------------------------------------------------


def lamb_step(store: ParamStore, lr: float, betas=(0.9, 0.999), eps=1e-6,
              weight_decay=0.0, trust_clip=10.0):
    """Layer-wise adaptive update: Adam moments with bias correction, a
    per-block trust ratio |w| / |update| clipped to [0, trust_clip], and
    decoupled weight decay."""
    b1, b2 = betas
    store.step += 1
    bc1 = 1.0 - b1 ** store.step
    bc2 = 1.0 - b2 ** store.step
    for name, w in store.blocks.items():
        g = store.grads[name]
        if not np.all(np.isfinite(g)):
            raise OptimizerError(f"non-finite gradient in block {name!r}")
        m = store.m[name]
        v = store.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + eps)
        if weight_decay:
            update = update + weight_decay * w
        w_norm = float(np.linalg.norm(w))
        u_norm = float(np.linalg.norm(update))
        trust = w_norm / u_norm if w_norm > 0.0 and u_norm > 0.0 else 1.0
        trust = min(trust, trust_clip)
        w -= (lr * trust) * update
