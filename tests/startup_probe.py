"""Whole-process start-up cost of the chainplan CLI, per source tree.

Each run is a fresh `python -c` process that imports `chainplan.cli` from
one tree's `src/` and runs `plan --policy pam` on fig1, so it pays the
interpreter start, the package import and one plan. The trees take turns
within each round, and the first tree of a round rotates, so drift on a
noisy host falls on every tree alike. The probe prints each tree's median
wall time and the rounds in which that tree was the fastest.

    python tests/startup_probe.py [--runs N] TREE [TREE ...]

A TREE is a checkout holding `src/chainplan`; with none given, the probe
times the checkout that holds this script. The fig1 scenario is read from
this checkout for every tree, so each tree does the same work. Stdlib only;
pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCENARIO = ROOT / "scenarios" / "fig1.scenario.json"
CHILD = (
    "import sys\n"
    "import chainplan.cli\n"
    "sys.exit(chainplan.cli.main(['plan', '--policy', 'pam', '--scenario', sys.argv[1]]))\n"
)


def run_once(tree: Path) -> float:
    """Wall seconds of one fresh process on `tree`; a non-zero exit raises."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", CHILD, str(SCENARIO)], env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def probe(trees: list[Path], runs: int) -> tuple[list[list[float]], list[int]]:
    """Per tree, its `runs` timings and the number of rounds it won."""
    times: list[list[float]] = [[] for _ in trees]
    wins = [0] * len(trees)
    for round_ in range(runs):
        first = round_ % len(trees)
        order = [*range(first, len(trees)), *range(first)]
        this_round = {i: run_once(trees[i]) for i in order}
        for i, seconds in this_round.items():
            times[i].append(seconds)
        wins[min(this_round, key=this_round.__getitem__)] += 1
    return times, wins


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("trees", nargs="*", type=Path, help="checkouts holding src/chainplan (default: this one)")
    parser.add_argument("--runs", type=int, default=41, help="rounds; each runs one process per tree (default 41)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    trees = [tree.resolve() for tree in args.trees] or [ROOT]
    missing = [str(tree) for tree in trees if not (tree / "src" / "chainplan" / "cli.py").is_file()]
    if missing:
        parser.error(f"not a chainplan checkout: {', '.join(missing)}")
    times, wins = probe(trees, args.runs)
    print(f"{args.runs} rounds, {sys.implementation.name} {sys.version.split()[0]}")
    for tree, seconds, won in zip(trees, times, wins):
        print(f"{tree}: median {statistics.median(seconds) * 1e3:.1f} ms, fastest in {won}/{args.runs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
