"""One-off timing of paper-scale PBVI backups on the stock 8x8 model.

    env OPENBLAS_NUM_THREADS=1 python3 perfbench/paper_scale.py

Run it from the repository root.  It samples BELIEFS = 2000 beliefs (2065
points with the uniform belief and the 64 corners), runs BACKUPS = 4 rounds
of backup then prune from the lower-bound start, and prints for each backup
the input alpha count K, the seconds it took and its FLOP count, computed
from the shapes as 2*A*W*K*S*(S+B).  Too slow for the benchmark runs; the README keeps its
figures.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BELIEFS = 2000
BACKUPS = 4


def main():
    sys.path.insert(0, str(ROOT / "src"))
    from pomdp_perception import build_pomdp, default_scenario
    from pomdp_perception.pbvi import backup, initialize_value, prune, sample_beliefs_uniform

    pomdp = build_pomdp(default_scenario())
    points = sample_beliefs_uniform(pomdp.num_states, BELIEFS, seed=0)
    vf = initialize_value(pomdp)
    a, w, s, b = pomdp.num_actions, pomdp.num_observations, pomdp.num_states, len(points)
    print(f"A={a} W={w} S={s} B={b}")
    for n in range(1, BACKUPS + 1):
        k = len(vf)
        start = time.perf_counter()
        backed_up = backup(pomdp, vf, points)
        backup_s = time.perf_counter() - start
        start = time.perf_counter()
        vf = prune(backed_up, points)
        prune_s = time.perf_counter() - start
        gflop = 2.0 * a * w * k * s * (s + b) / 1e9
        print(
            f"backup {n}: K={k} took {backup_s:.2f} s ({gflop:.1f} GFLOP computed, "
            f"{gflop / backup_s:.1f} GFLOP/s); prune {prune_s:.2f} s keeps {len(vf)} of {len(backed_up)}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
