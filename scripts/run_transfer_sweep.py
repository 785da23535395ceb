#!/usr/bin/env python3
"""Run the vertex-sampling transfer experiment over a grid of sample sizes.

For a planted regularity instance on n vertices, each trial draws a uniform
q-vertex sample and re-checks the induced (and equalized) witness at the
relaxed tolerance epsilon + delta.  The sweep shows how the pass rate
degrades as q shrinks.  Per-trial records land in one CSV per q.

Example:
    python3 scripts/run_transfer_sweep.py --a 3 --density 1/2 \
        --epsilon 1/20 --n 400 --q 50,100,200 --delta 1/10 \
        --trials 25 --seed 7 --out-dir results/
"""

import argparse
import os
import sys
from fractions import Fraction

from hyperreg import DensityFunction, RegularityInstance
from hyperreg.sampling import run_transfer_experiment, stats_to_csv
from hyperreg.transforms import PlantSpec, plant


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--a", required=True, help="comma-separated shape, e.g. 3 or 4,2")
    ap.add_argument("--density", default="1/2", help="constant density as p/q")
    ap.add_argument("--epsilon", default="1/20")
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--q", required=True, help="comma-separated sample sizes")
    ap.add_argument("--delta", default="1/10")
    ap.add_argument("--trials", type=int, default=25)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out-dir", default=".")
    args = ap.parse_args(argv)

    a = tuple(int(x) for x in args.a.split(","))
    R = RegularityInstance(
        Fraction(args.epsilon), a, DensityFunction.constant(a, Fraction(args.density))
    )
    _, _, eps_hat = plant(PlantSpec(R, args.n, args.seed, measure_epsilon=True))
    print(f"planted n={args.n} achieved_epsilon={float(eps_hat):.4f}")

    os.makedirs(args.out_dir, exist_ok=True)
    print("q,q1_rate,q2_rate")
    for q in (int(x) for x in args.q.split(",")):
        stats = run_transfer_experiment(
            R, args.n, q, Fraction(args.delta), args.trials, args.seed
        )
        path = os.path.join(args.out_dir, f"transfer_q{q}.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(stats_to_csv(stats))
        print(f"{q},{float(stats.q1_rate()):.3f},{float(stats.q2_rate()):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
