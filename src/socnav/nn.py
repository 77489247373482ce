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

    def grad_view(self) -> "ParamStore":
        """A store over these same parameter blocks with its own zeroed
        gradients and no optimizer moments: concurrent backward passes
        over shards of one batch each accumulate into a view, and the
        caller sums the views' gradients."""
        out = ParamStore(dtype=self.dtype)
        out.blocks = self.blocks
        out.grads = {name: np.zeros_like(b) for name, b in self.blocks.items()}
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
        byte offset where the data ran out; a header that does not hold a
        step, a float dtype and block shapes of non-negative ints raises
        ValueError naming the header's byte offset.
        """
        what = "checkpoint byte stream"
        header, off = read_header(data, offset, CKPT_MAGIC, what,
                                  ("step", "dtype", "blocks", "extra"))
        shapes = block_shapes(header, f"{what} header at byte offset "
                                      f"{offset + len(CKPT_MAGIC) + 8}")
        store = cls(dtype=header["dtype"])
        store.step = header["step"]
        for kind in ("blocks", "m", "v"):
            target = getattr(store, kind)
            for name, shape in shapes:
                raw, off = read_span(data, off, math.prod(shape) * store.dtype.itemsize,
                                     f"{kind} block {name!r}")
                arr = np.frombuffer(raw, dtype=store.dtype).reshape(shape).copy()
                if kind == "blocks":
                    store.add(name, arr)
                else:
                    target[name] = arr
        return store, header["extra"], off


def block_shapes(header: dict, where: str) -> list:
    """A checkpoint header's (name, shape) blocks, after checking its step,
    dtype and shapes; a bad one raises ValueError starting with `where`."""
    def count(n):
        return type(n) is int and n >= 0

    if header["dtype"] not in ("float16", "float32", "float64"):
        raise ValueError(f"{where} has dtype {header['dtype']!r}, not a float dtype")
    if not count(header["step"]):
        raise ValueError(f"{where} has step {header['step']!r}, not an int >= 0")
    blocks = header["blocks"]
    if not isinstance(blocks, list):
        raise ValueError(f"{where} has blocks {blocks!r}, not a list")
    for b in blocks:
        if not (isinstance(b, dict) and isinstance(b.get("name"), str)
                and isinstance(b.get("shape"), list) and all(map(count, b["shape"]))):
            raise ValueError(f"{where} has block {b!r}, not a name and a list of ints >= 0")
    return [(b["name"], tuple(b["shape"])) for b in blocks]


def read_span(data: bytes, off: int, nbytes: int, what: str) -> tuple[bytes, int]:
    """The `nbytes` bytes at `off` and the offset after them; a negative
    length or data that ends early raise ValueError naming `what` and the
    byte offset."""
    if nbytes < 0:
        raise ValueError(f"negative length {nbytes} for {what} at byte offset {off}")
    if off + nbytes > len(data):
        raise ValueError(f"checkpoint truncated in {what} at byte offset {off}: "
                         f"needs {nbytes} bytes, {len(data) - off} left")
    return data[off:off + nbytes], off + nbytes


def read_header(data: bytes, off: int, magic: bytes, what: str,
                keys=()) -> tuple[dict, int]:
    """Parse `magic`, a little-endian u64 length and that many bytes of a
    JSON object holding `keys`, starting at `off`; returns (header, offset
    after it). A header that is not such an object raises ValueError
    naming its byte offset."""
    raw, end = read_span(data, off, len(magic), f"{what} magic")
    if raw != magic:
        raise ValueError(f"not a {what} at byte offset {off}")
    raw, at = read_span(data, end, 8, f"{what} header length")
    (hlen,) = struct.unpack("<Q", raw)
    raw, end = read_span(data, at, hlen, f"{what} header")
    header = json.loads(raw.decode())
    where = f"{what} header at byte offset {at}"
    if not isinstance(header, dict):
        raise ValueError(f"{where} is a {type(header).__name__}, not an object")
    missing = [key for key in keys if key not in header]
    if missing:
        raise ValueError(f"{where} lacks {', '.join(map(repr, missing))}")
    return header, end


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape=None):
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape or (fan_in, fan_out))


def add_dense(store: ParamStore, name: str, din: int, dout: int,
              rng: np.random.Generator):
    store.add(f"{name}.W", xavier_uniform(rng, din, dout))
    store.add(f"{name}.b", np.zeros(dout))


# -- layers ---------------------------------------------------------------


DENSE_CHUNK = 384   # widest input summed in one product (see dense_fwd)


def dense_fwd(store, name, x, relu=False):
    """y = x @ W + b, optionally through ReLU. x: (..., din).

    Batch-invariant: a row's bytes do not depend on the other rows of x.
    numpy takes a one-row or one-column product by GEMV, and OpenBLAS
    picks by row count among kernels that round a product narrower than
    whole 16-column panels, or wider than DENSE_CHUNK input columns,
    differently. So every product is a GEMM over at least two rows (a
    lone row runs twice), whole panels (zero columns pad W; their outputs
    are dropped) and at most DENSE_CHUNK input columns (a wider input's
    chunks are summed in order), checked with numpy's bundled OpenBLAS.
    Bias and ReLU are applied in place; with `relu` the cache keeps the
    output as the backward mask, so a caller must not modify a ReLU
    output in place.
    """
    W, b = store[f"{name}.W"], store[f"{name}.b"]
    din, dout = W.shape
    if x.shape[-1] != din:
        raise ValueError(f"{name}: input width {x.shape[-1]} != {din}")
    x2 = x.reshape(-1, din)
    if len(x2) > 1 and dout % 16 == 0 and din <= DENSE_CHUNK:
        y = x2 @ W
    else:
        if dout % 16:
            W = np.concatenate([W, np.zeros((din, -dout % 16), W.dtype)], axis=1)
        xs = x2 if len(x2) > 1 else x2[[0, 0]]
        y = xs[:, :DENSE_CHUNK] @ W[:DENSE_CHUNK]
        for lo in range(DENSE_CHUNK, din, DENSE_CHUNK):
            y += xs[:, lo:lo + DENSE_CHUNK] @ W[lo:lo + DENSE_CHUNK]
        y = np.ascontiguousarray(y[:len(x2), :dout])
    y += b
    if relu:
        np.maximum(y, 0.0, out=y)
    y = y.reshape(*x.shape[:-1], dout)
    return y, (name, x, y if relu else None)


def dense_bwd(store, cache, dy):
    name, x, y = cache
    W = store[f"{name}.W"]
    din, dout = W.shape
    dy2 = dy.reshape(-1, dout)
    if y is not None:
        dy2 = dy2 * (y.reshape(-1, dout) > 0)
    store.accumulate(f"{name}.W", x.reshape(-1, din).T @ dy2)
    store.accumulate(f"{name}.b", dy2.sum(axis=0))
    return (dy2 @ W.T).reshape(x.shape)


def add_at_rows(out, rows, values):
    """out[rows[i]] += values[i] for every i, in order of i: the bytes
    np.add.at gives, signed zeros included, at fancy-index speed. Each i
    is ranked among the i that add into its row, and rank 0, rank 1, ...
    are added in turn, the rows of one rank all distinct."""
    n = len(rows)
    order = np.argsort(rows, kind="stable")
    sorted_rows = rows[order]
    run_start = np.arange(n)
    run_start[1:][sorted_rows[1:] == sorted_rows[:-1]] = 0
    rank = np.arange(n) - np.maximum.accumulate(run_start)
    by_rank = order[np.argsort(rank, kind="stable")]
    lo = 0
    for hi in np.cumsum(np.bincount(rank)):
        idx = by_rank[lo:hi]
        out[rows[idx]] += values[idx]
        lo = hi


def add_layer_norm(store: ParamStore, name: str, dim: int):
    store.add(f"{name}.g", np.ones(dim))
    store.add(f"{name}.b", np.zeros(dim))


LN_EPS = 1e-5


def _row_mean(x):
    """x.mean(axis=-1, keepdims=True), byte for byte, without the Python
    wrapper ndarray.mean runs on every call."""
    return np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


def layer_norm_fwd(store, name, x):
    """Normalize the last axis to zero mean / unit variance, then affine."""
    g, b = store[f"{name}.g"], store[f"{name}.b"]
    xhat = x - _row_mean(x)
    inv_std = 1.0 / np.sqrt(_row_mean(xhat * xhat) + LN_EPS)
    xhat *= inv_std
    y = g * xhat
    y += b
    return y, (name, inv_std, xhat)


def layer_norm_bwd(store, cache, dy):
    """dx = inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) with
    dxhat = dy * g and both means over the last axis."""
    name, inv_std, xhat = cache
    g = store[f"{name}.g"]
    reduce_axes = tuple(range(dy.ndim - 1))
    buf = dy * xhat
    store.accumulate(f"{name}.g", buf.sum(axis=reduce_axes))
    store.accumulate(f"{name}.b", dy.sum(axis=reduce_axes))
    buf *= g
    proj = _row_mean(buf)
    dx = np.multiply(dy, g, out=buf)
    dx -= _row_mean(dx)
    dx -= xhat * proj
    dx *= inv_std
    return dx


def add_attention(store: ParamStore, name: str, dim: int, rng: np.random.Generator):
    add_dense(store, f"{name}.out", dim, dim, rng)


def _heads(x, num_heads):
    """(B, T, D) -> (B, H, T, dk) view with the heads split from D."""
    B, T, D = x.shape
    return x.reshape(B, T, num_heads, D // num_heads).transpose(0, 2, 1, 3)


def _matmul_merged(a, b):
    """a @ b over (B, H) stacks, written straight into the merged-heads
    layout (B, T, H * dk) instead of through a transposed copy."""
    B, H, T = a.shape[:3]
    out = np.empty((B, T, H * b.shape[-1]), dtype=np.result_type(a, b))
    np.matmul(a, b, out=_heads(out, H))
    return out


SHORT_ROW = 8


def _reduce_keys(ufunc, x):
    """ufunc.reduce over the key axis (last), keeping it.

    numpy reduces each row in its own inner loop, which dominates at a
    handful of keys; rows shorter than SHORT_ROW keys instead take
    elementwise ufunc calls over the key columns, left to right, which
    give the same bytes as numpy's reduction at these lengths.
    """
    n = x.shape[-1]
    if n >= SHORT_ROW:
        return ufunc.reduce(x, axis=-1, keepdims=True)
    out = x[..., :1].copy()
    if ufunc is np.add:
        out += 0.0     # numpy sums from +0, so a row of -0.0 sums to +0.0
    for j in range(1, n):
        ufunc(out, x[..., j:j + 1], out=out)
    return out


def attention_fwd(store, name, q_in, k_in, v_in, num_heads,
                  causal=False, valid=None, rows=None):
    """Multi-head scaled dot-product attention over axis -2.

    k_in/v_in: (B, T, D) already projected; q_in is (B, T, D) too, or with
    `rows` (a slice of the T positions) holds the queries at those
    positions only, and the output has their rows only. Heads are split
    from D, attended independently, concatenated and merged by the output
    layer. With `causal`, position t attends only to positions <= t.
    `valid` (B, T) boolean marks real (non-padded) positions; padded keys
    receive exactly zero weight and fully padded query rows produce zero
    output.
    """
    B, T, D = k_in.shape
    if D % num_heads != 0:
        raise ValueError(f"{name}: dim {D} not divisible by {num_heads} heads")
    dk = D // num_heads
    q, k, v = (_heads(x, num_heads) for x in (q_in, k_in, v_in))
    k_t = k.transpose(0, 1, 3, 2)
    if rows is not None:
        # a contiguous k^T gives the selected rows the full product's bytes
        k_t = np.ascontiguousarray(k_t)
    scores = q @ k_t
    scores /= np.sqrt(np.asarray(dk, dtype=q.dtype))

    # softmax in place on the score buffer; without a mask every row has a
    # finite maximum and a denominator of at least 1
    masked = causal or valid is not None
    if masked:
        queries = slice(None) if rows is None else rows
        allowed = (np.tri(T, dtype=bool) if causal else np.ones((T, T), dtype=bool))[queries]
        if valid is not None:
            allowed = allowed & valid[:, None, None, :] & valid[:, queries, None][:, None]
        np.copyto(scores, -np.inf, where=~allowed)
    row_max = _reduce_keys(np.maximum, scores)
    if masked:
        row_max = np.where(np.isfinite(row_max), row_max, 0.0)
    scores -= row_max
    probs = np.exp(scores, out=scores)
    denom = _reduce_keys(np.add, probs)
    if masked:
        denom = np.where(denom > 0, denom, 1.0)
    probs /= denom

    merged = _matmul_merged(probs, v)
    out, dcache = dense_fwd(store, f"{name}.out", merged)
    return out, (name, q, k, v, probs, dcache, num_heads)


def attention_bwd(store, cache, dy):
    name, q, k, v, probs, dcache, num_heads = cache
    dk = q.shape[-1]
    dctx = _heads(dense_bwd(store, dcache, dy), num_heads)
    dv = _matmul_merged(probs.transpose(0, 1, 3, 2), dctx)
    # softmax backward in place on dprobs: probs * (dprobs - <dprobs, probs>)
    dscores = dctx @ v.transpose(0, 1, 3, 2)
    dscores -= _reduce_keys(np.add, dscores * probs)
    dscores *= probs
    dscores /= np.sqrt(np.asarray(dk, dtype=q.dtype))
    dq = _matmul_merged(dscores, k)
    dk_ = _matmul_merged(dscores.transpose(0, 1, 3, 2), q)
    return dq, dk_, dv


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


def encoder_block_fwd(store, name, x, num_heads, causal=False, valid=None,
                      rows=None):
    """x + MSA(q(x), k(x), v(x)), then x' + FFN(LN(x')).

    With `rows`, a slice of the sequence axis, the output holds those
    positions only: k and v still run at every position, while q, the
    attention rows, the residual, the layer norm and the FFN run at the
    selected ones, which get the bytes the full block gives them.
    """
    xq = x if rows is None else np.ascontiguousarray(x[:, rows])
    q, cq = dense_fwd(store, f"{name}.q", xq, relu=True)
    k, ck = dense_fwd(store, f"{name}.k", x, relu=True)
    v, cv = dense_fwd(store, f"{name}.v", x, relu=True)
    # the attention and f2 outputs are linear outputs that no cache holds,
    # so the residual sums reuse their buffers
    x1, ca = attention_fwd(store, f"{name}.att", q, k, v, num_heads,
                           causal=causal, valid=valid, rows=rows)
    x1 += xq
    h, cn = layer_norm_fwd(store, f"{name}.ln", x1)
    f1, c1 = dense_fwd(store, f"{name}.f1", h, relu=True)
    y, c2 = dense_fwd(store, f"{name}.f2", f1)
    y += x1
    return y, (name, rows, cq, ck, cv, ca, cn, c1, c2)


def encoder_block_bwd(store, cache, dy):
    """dx at every position of the block's input; dy covers the rows the
    forward pass selected (all of them by default)."""
    name, rows, cq, ck, cv, ca, cn, c1, c2 = cache
    df1 = dense_bwd(store, c2, dy)
    dh = dense_bwd(store, c1, df1)
    dx1 = layer_norm_bwd(store, cn, dh)
    dx1 += dy
    dq, dk, dv = attention_bwd(store, ca, dx1)
    dxq = dense_bwd(store, cq, dq)
    dxq += dx1
    dx = dense_bwd(store, ck, dk)
    dx[:, slice(None) if rows is None else rows] += dxq
    dx += dense_bwd(store, cv, dv)
    return dx


# -- losses ---------------------------------------------------------------


def mse_loss(pred, target, weights=None, total=None):
    """Mean squared error and its gradient w.r.t. pred.

    `target` is cast to pred's dtype. `weights` holds one weight per entry
    of the leading axis (one each by default). Each entry's weighted
    squared error is one term; the terms are summed exactly (math.fsum)
    and divided by the total weight of all elements. `total` is the
    weight sum that normalises (default: this batch's), so a shard of a
    larger batch passes the whole batch's and its gradient is its share
    of the batch's.
    """
    diff = pred - np.asarray(target, dtype=pred.dtype)
    w = np.ones(len(diff)) if weights is None else np.asarray(weights)
    w = w.astype(diff.dtype).reshape(-1, *(1,) * (diff.ndim - 1))
    n = (w.sum() if total is None else diff.dtype.type(total)) * (diff.size // len(diff))
    terms = (w * diff * diff).reshape(len(diff), -1).sum(axis=1)
    return math.fsum(terms.tolist()) / float(n), (2.0 / n) * w * diff


# -- optimizer -------------------------------------------------------------


LAMB_BETAS = (0.9, 0.999)     # Adam moment decay rates
LAMB_EPS = 1e-6
LAMB_TRUST_CLIP = 10.0        # upper bound of the per-block trust ratio


def lamb_step(store: ParamStore, lr: float):
    """Layer-wise adaptive update (You et al. 2020) without weight decay:
    Adam moments with bias correction and a per-block trust ratio
    |w| / |update| clipped to [0, LAMB_TRUST_CLIP]. A non-finite gradient
    in any block raises OptimizerError before the store changes at all."""
    for name in store.blocks:
        if not np.all(np.isfinite(store.grads[name])):
            raise OptimizerError(f"non-finite gradient in block {name!r}")
    b1, b2 = LAMB_BETAS
    store.step += 1
    bc1 = 1.0 - b1 ** store.step
    bc2 = 1.0 - b2 ** store.step
    for name, w in store.blocks.items():
        g = store.grads[name]
        m = store.m[name]
        v = store.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + LAMB_EPS)
        w_norm = float(np.linalg.norm(w))
        u_norm = float(np.linalg.norm(update))
        trust = w_norm / u_norm if w_norm > 0.0 and u_norm > 0.0 else 1.0
        trust = min(trust, LAMB_TRUST_CLIP)
        w -= (lr * trust) * update
