"""Run the branch-rule solver on synthetic regularized logistic regression with
the theory monitor live, against a reference optimum from a longer run.

Usage: python scripts/run_logistic_monitor.py [--seeds N] [--iters K]
"""

import argparse

import numpy as np

from adaprox import RhoSequence, SolverConfig, run
from adaprox.problems import logistic_gamma, logistic_problem, logistic_synthetic


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--iters", type=int, default=2000)
    ap.add_argument("--m", type=int, default=200)
    ap.add_argument("--n", type=int, default=20)
    args = ap.parse_args()

    for seed in range(args.seeds):
        design = logistic_synthetic(args.m, args.n, seed)
        gamma = logistic_gamma(design)

        ref = run(logistic_problem(design, gamma), np.zeros(args.n),
                  SolverConfig(engine="adapgnc", max_iters=10 * args.iters),
                  seed=seed)
        fhat = ref.best_F - 1e-12

        for rho in (RhoSequence.rho1(), RhoSequence.rho2()):
            problem = logistic_problem(design, gamma)
            problem.known_fstar = fhat
            cfg = SolverConfig(engine="adapgnc", rho=rho, lambda0=1.0,
                               max_iters=args.iters, monitor=True)
            res = run(problem, np.zeros(args.n), cfg, seed=seed)
            print(f"seed {seed} rho={rho.kind}: {len(res.trace.records)} iters, "
                  f"terminated by {res.trace.termination}, "
                  f"min ||G|| = {res.trace.min_gradmap():.3e}")
            for line in res.report.summary_lines():
                print("   ", line)


if __name__ == "__main__":
    main()
