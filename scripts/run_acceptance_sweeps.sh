#!/bin/sh
# Regenerates every cached artifact consumed by the acceptance suite:
# the four single-qubit coherence runs (criterion 5) and the two ensemble
# sweeps (criteria 3/4).  Runs from a plain checkout; the package need
# not be installed.
#
# Usage: scripts/run_acceptance_sweeps.sh [all|qubit|sweeps]
#
# The qubit configs run first, one config per core, longest first.  The
# sweeps follow, one after the other, each using every core through
# --workers (override the count with ANNEALKIT_WORKERS=n).  Each verb's
# exit code is reported as "<config>: exit <code>" (2 numerical failure,
# 3 partial sweep); a failure does not stop the later verbs, and the
# script exits non-zero if any verb did.
#
# Measured cost on 2 cores with one BLAS thread per process:
#   qubit_hz0, qubit_hz0_twin  ~0.9-1.3 s each
#   qubit_hz01                 ~21-24 s
#   qubit_hz02                 ~67-73 s (the qubit stage's wall time)
#   sweep_allsites             ~0.8 core-hours for all 39 points
#                              (projected; the 25 committed DOP853 rows
#                              belong to another plan digest, so simulate
#                              exits 1 on them, "refusing to resume",
#                              until results/allsites_curve.tsv is moved
#                              away)
#   sweep_single               ~1.25 core-hours (projected)
# The L=128 points are 75-80% of the sweep cost; they run one realization
# per propagator call and are bound by its layer multiplies.
# The sweep tables gain one row per finished grid point and resume from
# partial output if interrupted; the qubit tables are written at the end
# of their run.
cd "$(dirname "$0")/.." || exit 1
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
# Count the cores before the pin below: nproc honours OMP_NUM_THREADS.
workers=${ANNEALKIT_WORKERS:-$(nproc)}
# One BLAS thread per process: pool workers with their own BLAS thread
# pools would oversubscribe the cores.  (The tables do not depend on it.)
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
stage=${1:-all}
case "$stage" in
    all|qubit|sweeps) ;;
    *) echo "usage: $0 [all|qubit|sweeps]" >&2; exit 1 ;;
esac
status=0

if [ "$stage" = all ] || [ "$stage" = qubit ]; then
    printf '%s\n' qubit_hz02 qubit_hz01 qubit_hz0_twin qubit_hz0 |
        xargs -n 1 -P "$workers" sh -c '
            python -m annealkit.cli qubit --config "configs/$1.json"
            rc=$?
            echo "$1: exit $rc"
            exit $rc' sh || status=$?
fi

if [ "$stage" = all ] || [ "$stage" = sweeps ]; then
    for name in sweep_allsites sweep_single; do
        python -m annealkit.cli simulate --config "configs/$name.json" \
            --workers "$workers"
        rc=$?
        echo "$name: exit $rc"
        [ "$rc" -eq 0 ] || status=$rc
    done
fi

exit "$status"
