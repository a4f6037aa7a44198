#!/usr/bin/env python3
"""End-to-end experiment driver.

Generates a drifted synthetic dataset, tunes the classical models, trains the
ANN variants, builds the soft-voting ensemble, and writes every report under
the output directory. Equivalent to `enose --config <ini> run` with the knobs
most worth sweeping exposed as flags.

Examples:
    python scripts/run_experiment.py --samples 200 --out out/quick
    python scripts/run_experiment.py --samples 1000 --grid default \
        --ann baseline,deeper,wider,l2,rmsprop --out out/full
"""

import argparse
import sys

from enose.cli import main as cli_main
from enose.preprocess import VERSIONS


def build_ini(args: argparse.Namespace) -> str:
    return (
        "[data]\n"
        "source = synth\n"
        f"samples = {args.samples}\n"
        f"drift = {'yes' if not args.no_drift else 'no'}\n"
        "\n"
        "[pipeline]\n"
        f"version = {args.version}\n"
        f"seed = {args.seed}\n"
        f"folds = {args.folds}\n"
        "\n"
        "[models]\n"
        f"families = {args.families}\n"
        f"grid = {args.grid}\n"
        f"ann_variants = {args.ann}\n"
        f"ann_epochs = {args.ann_epochs}\n"
        "ensemble = yes\n"
        f"learning_curves = {'yes' if args.learning_curves else 'no'}\n"
        "\n"
        "[output]\n"
        "formats = json,csv,svg\n"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--samples", type=int, default=200, help="samples per class")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--version", default="V2", choices=VERSIONS)
    parser.add_argument("--folds", type=int, default=5)
    parser.add_argument("--families", default="dt,rf", help="comma list from dt,rf,svm")
    parser.add_argument("--grid", default="small", choices=("default", "small", "none"))
    parser.add_argument("--ann", default="baseline", help="comma list of ANN variants")
    parser.add_argument("--ann-epochs", type=int, default=30)
    parser.add_argument("--learning-curves", action="store_true")
    parser.add_argument("--no-drift", action="store_true")
    parser.add_argument("--out", default="out/experiment")
    args = parser.parse_args()

    import os

    os.makedirs(args.out, exist_ok=True)
    ini_path = os.path.join(args.out, "experiment.ini")
    with open(ini_path, "w", encoding="utf-8") as fh:
        fh.write(build_ini(args))
    print(f"config: {ini_path}")
    return cli_main(["--config", ini_path, "--out", args.out, "run"])


if __name__ == "__main__":
    sys.exit(main())
