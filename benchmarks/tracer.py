"""Span tracer that wraps socnav's public functions from outside the package.

Each span is named `<module>.<function>` (or `<module>.<Class>.<method>`)
and is installed at every place its callers look the name up: `trainer`
imports `lamb_step` and `tokenize` by name, `rtgp` imports
`history_window` by name, and `policy` imports `canonicalize_joint` by
name, while `policy`, `rtgp`, `env` and `orca` reach `nn.*` and `orca.*`
through the module object. Nothing under `src/` is edited.

Spans are kept in memory as (name, parent, start, end) and turned into
per-span call counts and self time (duration minus the time its direct
children cover) when the run ends. Counters computed from a span's
arguments run inside a `trace.counters` child span, so their cost is
kept out of every real span's self time.
"""

from __future__ import annotations

import functools
import importlib
import os
from time import perf_counter

import numpy as np

# span name -> the (module, attribute path) sites where callers look it up
SPAN_SITES = {
    "nn.dense_fwd": [("socnav.nn", "dense_fwd")],
    "nn.dense_bwd": [("socnav.nn", "dense_bwd")],
    "nn.attention_fwd": [("socnav.nn", "attention_fwd")],
    "nn.attention_bwd": [("socnav.nn", "attention_bwd")],
    "nn.layer_norm_fwd": [("socnav.nn", "layer_norm_fwd")],
    "nn.layer_norm_bwd": [("socnav.nn", "layer_norm_bwd")],
    "nn.encoder_block_fwd": [("socnav.nn", "encoder_block_fwd")],
    "nn.encoder_block_bwd": [("socnav.nn", "encoder_block_bwd")],
    "nn.lamb_step": [("socnav.nn", "lamb_step"), ("socnav.trainer", "lamb_step")],
    "policy.DtPolicy.loss_and_grad": [("socnav.policy", "DtPolicy.loss_and_grad")],
    "policy.DtPolicy.forward": [("socnav.policy", "DtPolicy.forward")],
    "policy.tokenize": [("socnav.policy", "tokenize"), ("socnav.trainer", "tokenize")],
    "policy.Actor.act": [("socnav.policy", "Actor.act")],
    "rtgp.RtgPredictor.loss_and_grad": [("socnav.rtgp", "RtgPredictor.loss_and_grad")],
    "rtgp.RtgPredictor.forward": [("socnav.rtgp", "RtgPredictor.forward")],
    "rtgp.RtgPredictor.window_batch": [("socnav.rtgp", "RtgPredictor.window_batch")],
    "rtgp.RtgPredictor.predict": [("socnav.rtgp", "RtgPredictor.predict")],
    "rtgp.RtgPredictor.predict_sequence": [("socnav.rtgp", "RtgPredictor.predict_sequence")],
    "features.history_window": [("socnav.features", "history_window"),
                                ("socnav.rtgp", "history_window")],
    "features.canonicalize_joint": [("socnav.features", "canonicalize_joint"),
                                    ("socnav.policy", "canonicalize_joint")],
    "trainer.policy_batch_from": [("socnav.trainer", "policy_batch_from")],
    "trainer.rtgp_batch_from": [("socnav.trainer", "rtgp_batch_from")],
    "trainer.run_policy_episode": [("socnav.trainer", "run_policy_episode")],
    "replay.HybridBuffer.insert": [("socnav.replay", "HybridBuffer.insert")],
    "replay.HybridBuffer.sample_trajectories": [("socnav.replay",
                                                 "HybridBuffer.sample_trajectories")],
    "env.CrowdEnv.step": [("socnav.env", "CrowdEnv.step")],
    "env.CrowdEnv.reset": [("socnav.env", "CrowdEnv.reset")],
    "orca.orca_action": [("socnav.orca", "orca_action")],
    "orca.orca_halfplanes": [("socnav.orca", "orca_halfplanes")],
    "orca.solve_velocity": [("socnav.orca", "solve_velocity")],
    "dataset.generate_dataset": [("socnav.dataset", "generate_dataset")],
    "dataset.save_trajectories": [("socnav.dataset", "save_trajectories")],
    "dataset.load_trajectories": [("socnav.dataset", "load_trajectories")],
}

COUNTER_SPAN = "trace.counters"
# a solve_velocity result counts as infeasible when it violates an input
# half-plane by more than rounding noise
VIOLATION_TOL = 1e-9


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr, owner.__dict__[attr]


# -- counters: each takes (tracer, args, result) ----------------------------


def _dense_fwd_flops(tr, args, result):
    store, name, x = args[0], args[1], args[2]
    din, dout = store[f"{name}.W"].shape
    tr.count("nn.dense.flops", 2 * (x.size // din) * din * dout)


def _dense_bwd_flops(tr, args, result):
    store, (name, x, _) = args[0], args[1]
    din, dout = store[f"{name}.W"].shape
    tr.count("nn.dense.flops", 4 * (x.size // din) * din * dout)


def _canon_rows(tr, args, result):
    if tr.active["policy.Actor.act"]:
        joint = args[0]
        tr.count("features.canon_rows", joint.size // joint.shape[-1])


def _solve_check(tr, args, result):
    planes = args[0]
    tr.count("orca.solves", 1)
    tr.count("orca.planes", len(planes))
    if any(p.violation(result) > VIOLATION_TOL for p in planes):
        tr.count("orca.infeasible", 1)


def _bytes_written(tr, args, result):
    tr.count("dataset.bytes_written", os.path.getsize(args[0]))


COUNTERS = {
    "nn.dense_fwd": _dense_fwd_flops,
    "nn.dense_bwd": _dense_bwd_flops,
    "features.canonicalize_joint": _canon_rows,
    "orca.solve_velocity": _solve_check,
    "dataset.save_trajectories": _bytes_written,
}


class Tracer:
    """Records nested spans in memory while installed."""

    def __init__(self):
        self.names = list(SPAN_SITES) + [COUNTER_SPAN]
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.span_name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self._stack = [-1]
        self.active = dict.fromkeys(self.names, 0)
        self.counts: dict[str, float] = {}
        self._saved: list = []

    def count(self, key: str, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _open(self, sid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(sid)
        self.parent.append(self._stack[-1])
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        sid = self._ids[name]
        counter = COUNTERS.get(name)
        counter_sid = self._ids[COUNTER_SPAN]
        active = self.active
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(sid)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                active[name] -= 1
                tracer._close(idx)
            if counter is not None:
                cidx = tracer._open(counter_sid)
                try:
                    counter(tracer, args, result)
                finally:
                    tracer._close(cidx)
            return result

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, sites in SPAN_SITES.items():
            resolved = [_resolve(m, p) for m, p in sites]
            originals = {id(orig) for _, _, orig in resolved}
            if len(originals) != 1:
                raise RuntimeError(f"{name}: call sites disagree on the function")
            wrapper = self._wrap(name, resolved[0][2])
            for owner, attr, orig in resolved:
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- results -------------------------------------------------------------

    def arrays(self):
        """(name id, parent index, start, end) arrays of every recorded span."""
        return (np.asarray(self.span_name, dtype=np.int32),
                np.asarray(self.parent, dtype=np.int64),
                np.asarray(self.start, dtype=np.float64),
                np.asarray(self.end, dtype=np.float64))

    def summary(self):
        """Per-span {name: (calls, self seconds)} and the root-span total."""
        sid, parent, start, end = self.arrays()
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        self_s = dur - covered
        n = len(self.names)
        calls = np.bincount(sid, minlength=n)
        self_by_name = np.bincount(sid, weights=self_s, minlength=n)
        per_span = {name: (int(calls[i]), float(self_by_name[i]))
                    for i, name in enumerate(self.names) if name in SPAN_SITES}
        return per_span, float(dur[~child].sum())

    def save(self, path):
        sid, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), span_name=sid, parent=parent,
                 start=start, end=end)
