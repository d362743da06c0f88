#!/usr/bin/env python3
"""Step-count / quality frontier of the sampler, as a one-off report.

    python3 bench/frontier.py --seed 1

Trains the acceptance ring model as bench/run.py does, then samples 2000
pre-images of y = 1 at guidance 2 for each respace_steps in STEPS and records
the wall time of the request and the energy distance to 2000 rejection-oracle
draws (Nichol & Dhariwal 2021, arXiv:2102.09672, on respacing). Each point is
the median over REPEATS sampler seeds against one oracle batch; the
oracle-vs-oracle energy distance is the noise floor. Not part of the timed
workloads. Prints one JSON object and writes it to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics

from run import (  # first: it sets the BLAS thread count before numpy loads
    EPSILON,
    ORACLE_N,
    OUT,
    TARGET,
    D,
    E,
    M,
    Run,
    clock,
    machine,
)

import numpy as np

STEPS = (5, 10, 25, 50, 100)
REPEATS = 3
GUIDANCE = 2.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    run = Run(args.seed)
    run.setup()
    run.train()

    def draw(rng, count):
        return M.draw_points(run.spec, rng, count)

    rng = np.random.default_rng(run.seeds["quality"])
    oracle = E.rejection_oracle(run.embedder, TARGET, EPSILON, draw, ORACLE_N, rng)
    floor = E.energy_distance(oracle, E.rejection_oracle(
        run.embedder, TARGET, EPSILON, draw, ORACLE_N, rng))

    points = []
    for steps in STEPS:
        walls, energies = [], []
        for k in range(REPEATS):
            cfg = D.SampleConfig(seed=run.seeds["sample"] + k, guidance_scale=GUIDANCE,
                                 respace_steps=steps)
            t0 = clock()
            xs = D.sample_batch(run.model, TARGET, run.result.schedule, cfg, ORACLE_N)
            walls.append(clock() - t0)
            energies.append(E.energy_distance(xs, oracle))
        points.append({"respace_steps": steps,
                       "energy_to_oracle": statistics.median(energies),
                       "wall_s": statistics.median(walls)})

    report = {"machine": machine(args.seed), "guidance": GUIDANCE, "n": ORACLE_N,
              "repeats": REPEATS, "oracle_vs_oracle": floor, "points": points}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"frontier-seed{args.seed}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
