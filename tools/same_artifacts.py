#!/usr/bin/env python3
"""Check that a change keeps `socnav pipeline`'s outputs byte for byte.

    python tools/same_artifacts.py [--base REV]

Exports REV (default HEAD) with `git archive` into a temporary directory,
then runs

    python -m socnav.cli --config C pipeline --out D --eval-episodes 3

from that copy and from this working tree, each on its own `src`, with
OPENBLAS_NUM_THREADS=1, on three configs. It compares the sha256 of every
artifact except `manifest.json` (which records wall times) and the stdout
with the output directory replaced by a placeholder. Prints both trees'
`src/` line counts, raw and as code lines (no blank lines, comments or
docstrings), and one line per config; exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SMALL = {"train": {"offline_episodes": 20, "pretrain_iters": 5, "finetune_episodes": 2},
         "seed": 7}
CONFIGS = {
    # the CLI tests' tiny config (tests/test_cli.py TINY_CONFIG)
    "tiny": {"sim": {"num_peds": 2},
             "net": {"hidden_dim": 16, "num_heads": 2, "ffn_dim": 16, "rtgp_window": 4,
                     "policy_context": 4, "policy_blocks": 1, "head_hidden": 8},
             "train": {"pretrain_iters": 8, "batch_size": 4, "sampled_trajs": 2,
                       "offline_episodes": 4, "finetune_episodes": 2},
             "seed": 3},
    # published network shapes, few episodes and iterations
    "small": SMALL,
    "small-fixed": {**SMALL, "train": {**SMALL["train"], "rtg_mode": "fixed"}},
}


LAYOUT = {tokenize.ENCODING, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """Lines holding a token of code: not blank, a comment or a docstring
    (a string that is a statement of its own)."""
    with path.open("rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for prev, tok, nxt in zip(tokens, tokens[1:], tokens[2:]):
        docstring = (tok.type == tokenize.STRING and prev.type in LAYOUT
                     and nxt.type == tokenize.NEWLINE)
        if tok.type not in LAYOUT and not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def src_lines(tree: Path) -> str:
    """`src/`'s raw line count and its code line count."""
    paths = sorted((tree / "src").rglob("*.py"))
    raw = sum(len(p.read_bytes().splitlines()) for p in paths)
    return f"{raw} ({sum(map(code_lines, paths))} code)"


def run_pipeline(tree: Path, config: Path, out: Path) -> dict:
    """name -> sha256 of every artifact but manifest.json, plus stdout."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "socnav.cli", "--config", str(config), "pipeline",
         "--out", str(out), "--eval-episodes", "3"],
        cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: pipeline on {config.name} exited {proc.returncode}\n"
                         f"{proc.stderr}")
    digests = {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"}
    digests["<stdout>"] = hashlib.sha256(
        proc.stdout.replace(str(out), "<out>").encode()).hexdigest()
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same-artifacts-") as tmp:
        tmp = Path(tmp)
        base = tmp / "base"
        base.mkdir()
        archive = subprocess.run(["git", "archive", args.base], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive, check=True)
        print(f"src/ lines: {args.base} {src_lines(base)}, working tree {src_lines(ROOT)}")
        differ = False
        for name, cfg in CONFIGS.items():
            config = tmp / f"{name}.json"
            config.write_text(json.dumps(cfg))
            want = run_pipeline(base, config, tmp / "out-base" / name)
            got = run_pipeline(ROOT, config, tmp / "out-tree" / name)
            changed = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
            differ |= bool(changed)
            verdict = "identical" if not changed else "DIFFER: " + ", ".join(changed)
            print(f"{name}: {len(got) - 1} artifacts and stdout {verdict}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
