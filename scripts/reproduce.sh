#!/bin/sh
# Reproduce the full experiment suite through the CLI.
# Outputs land under results/: learning curves and stability table for the
# agent comparison, goal-selection counts for the ORP ablation, and one
# curve per mastery threshold for the alpha sweep.
# The comparison's dqn, acl-a, acl-a-noorp and acl-c runs are the cached runs
# in results/acceptance/, which scripts/verify_cache.py checks.
set -eu
cd "$(dirname "$0")/.."

acl-dqn compare \
    --agents dqn,acl-a,acl-b,acl-c,acl-a-noorp \
    --seeds 1..5 --epochs 500 --eval-dialogues 100 \
    --out results/comparison

acl-dqn sweep-alpha \
    --alphas 0.3,0.4,0.5,0.6,0.7,0.8 \
    --seeds 1..3 --epochs 500 --eval-dialogues 100 \
    --out results/alpha_sweep

echo "done; see results/comparison and results/alpha_sweep"
