"""Set-up probe: one fresh interpreter that imports magsuper.cli and
generates and validates a workload's inputs, then exits.

``run.py`` times several of these to report ``setup_s``.
"""

import argparse
import sys

import run

parser = argparse.ArgumentParser()
parser.add_argument("--workload", required=True)
parser.add_argument("--seed", type=int, required=True)
parser.add_argument("--size", default="full")
args = parser.parse_args()
run.setup_inputs(args.workload, args.seed, args.size)
sys.exit(0)
