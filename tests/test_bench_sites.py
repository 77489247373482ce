"""The benchmark tracer's patch sites exist and agree.

`benchmarks/tracer.py` wraps socnav functions at the module attributes
where their callers look them up. A change that moves or renames one of
those names fails here, in the default test run, and not only in the
benchmark's own self-test.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("socnav_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolved(tracer, sites):
    return [tracer._resolve(module, path)[2] for module, path in sites]


def test_every_span_site_resolves_to_one_function():
    tracer = load_tracer()
    originals = {}
    for name, sites in tracer.SPAN_SITES.items():
        functions = set(resolved(tracer, sites))
        assert len(functions) == 1, f"{name}: sites hold different objects"
        (originals[name],) = functions
        assert callable(originals[name]), name

    tr = tracer.Tracer()
    try:
        tr.install()
        for name, sites in tracer.SPAN_SITES.items():
            for fn in resolved(tracer, sites):
                assert fn.__wrapped__ is originals[name], name
    finally:
        tr.uninstall()
    for name, sites in tracer.SPAN_SITES.items():
        assert set(resolved(tracer, sites)) == {originals[name]}, name


def test_traced_acting_counts_one_row_and_one_predictor_forward(tiny_cfg):
    # a decision canonicalizes its one new state row (counted inside
    # Actor.act at features.canonicalize_joint) and runs the predictor's
    # forward once, so both show up under the tracer's span names
    from socnav.dataset import rollout
    from socnav.env import CrowdEnv
    from socnav.policy import Actor
    from socnav.trainer import build_models

    policy, rtgp = build_models(tiny_cfg)
    actor = Actor(policy, policy.init_store(1), rtg_source="rtgp", rtgp=rtgp,
                  rtgp_store=rtgp.init_store(2))
    tracer = load_tracer()
    tr = tracer.Tracer()
    try:
        tr.install()
        actor.begin_episode()
        traj, _ = rollout(CrowdEnv(tiny_cfg.sim), lambda env, obs: actor.act(obs.joint),
                          45, gamma=0.99, observe=actor.observe)
    finally:
        tr.uninstall()
    spans, _ = tr.summary()
    decisions = traj.num_steps
    assert decisions > tiny_cfg.net.rtgp_window
    assert spans["policy.Actor.act"][0] == decisions
    assert tr.counts["features.canon_rows"] == decisions
    assert spans["features.canonicalize_joint"][0] == decisions
    assert spans["rtgp.RtgPredictor.forward"][0] == decisions
