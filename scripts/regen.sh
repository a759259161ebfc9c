#!/bin/sh
# regen.sh NAME — regenerate BENCH_NAME.json, one of the sweep
# artifacts written by `ascbench -table NAME -json` (NAME is smp, ckpt,
# net, batch, cluster or mem; the Makefile target of the same name says
# what each sweeps). The figures are computed from deterministic cycle
# counts, so two consecutive runs produce byte-identical JSON.
#
# Refuses to overwrite an uncommitted BENCH_NAME.json unless FORCE=1,
# so a locally modified artifact is never clobbered silently.
set -eu

cd "$(dirname "$0")/.."

case "${1:-}" in
smp | ckpt | net | batch | cluster | mem) name=$1 ;;
*)
    echo "usage: regen.sh smp|ckpt|net|batch|cluster|mem" >&2
    exit 2
    ;;
esac
out="BENCH_$name.json"

if git diff --quiet -- "$out" 2>/dev/null; then
    : # clean (or not yet tracked with changes): safe to regenerate
elif [ "${FORCE:-0}" = "1" ]; then
    echo "regen.sh: $out is dirty; overwriting (FORCE=1)" >&2
else
    echo "regen.sh: $out has uncommitted changes; commit them or rerun with FORCE=1" >&2
    exit 1
fi

go run ./cmd/ascbench -table "$name" -json "$out"
echo "wrote $out"
