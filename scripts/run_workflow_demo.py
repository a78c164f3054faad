"""End-to-end workflow on a CSV: estimate, check, score, and quantify unfairness.

With no --input it draws a synthetic dataset from the built-in generative
model, writes it to the output directory, and runs the full pipeline on it:
sieve fit + propensities, testable-implication report, rate-preserving
classifier, one-step and bootstrap intervals for the unfairness degree, and a
two-sided-unfairness sensitivity sweep.
"""

import argparse
import sys
from pathlib import Path

from fairdesert.cli import main as cli_main
from fairdesert.data import write_csv
from fairdesert.simulate import DgpConfig, gen_dataset


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--input", help="CSV path; synthetic draw when omitted")
    parser.add_argument("--schema", help="JSON column mapping (inline or file)")
    parser.add_argument("--n", type=int, default=2000, help="synthetic sample size")
    parser.add_argument("--rate", type=float, default=None,
                        help="target positive rate (defaults to the observed rate)")
    parser.add_argument("--boot", type=int, default=200)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--out-dir", default="results/workflow")
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.input:
        csv_path = args.input
    else:
        data, _, _ = gen_dataset(DgpConfig(n=args.n, seed=args.seed))
        csv_path = out / "synthetic.csv"
        write_csv(data, csv_path)
        print(f"synthetic dataset written to {csv_path}")

    common = ["--seed", str(args.seed)]
    if args.schema:
        common += ["--schema", args.schema]

    def run(argv):
        # exit with the first failing step's code (1 only flags warnings)
        rc = cli_main(argv)
        if rc >= 2:
            sys.exit(rc)

    run(["estimate", "--input", str(csv_path),
         "--out-dir", str(out / "estimate"), *common])

    predict_args = ["predict", "--model", str(out / "estimate" / "model.json"),
                    "--input", str(csv_path), "--out-dir", str(out / "predict")]
    if args.schema:
        predict_args += ["--schema", args.schema]
    if args.rate is not None:
        predict_args += ["--rate", str(args.rate)]
    run(predict_args)

    run(["theta", "--input", str(csv_path), "--method", "onestep",
         "--model", str(out / "estimate" / "model.json"),
         "--out-dir", str(out / "theta_onestep"), *common])
    run(["theta", "--input", str(csv_path), "--method", "bootstrap",
         "--boot", str(args.boot), "--restarts", "2",
         "--out-dir", str(out / "theta_bootstrap"), *common])
    run(["sensitivity", "--input", str(csv_path), "--variant", "delta",
         "--boot", "0", "--out-dir", str(out / "sweep"), *common])
    print(f"workflow outputs under {out}")


if __name__ == "__main__":
    main()
