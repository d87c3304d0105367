#!/bin/sh
# `resa solve` runs every engine policy (FCFS, CONS, EASY, LSRC, each with
# every job submitted at 0) under FIFO, LPT and a random order on random,
# packed and FCFS-adversarial instances. solve validates each schedule and
# exits 3 on an infeasible one, so every run must exit 0. Run from
# anywhere, with the path of the resa executable:
#
#   sh test/solve_engine_policies.sh _build/default/bin/resa.exe
set -eu
resa=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
fail=0
for family in random packed fcfs-bad; do
  for seed in 1 2; do
    "$resa" generate "$family" -m $((6 + 2 * seed)) -n 14 --seed "$seed" > "$dir/inst.txt"
    for algo in fcfs cons easy lsrc; do
      for priority in fifo lpt random:3; do
        set +e
        "$resa" solve "$dir/inst.txt" -a "$algo" -p "$priority" > /dev/null 2> "$dir/err"
        code=$?
        set -e
        if [ "$code" -ne 0 ]; then
          echo "resa solve -a $algo -p $priority on generate $family --seed $seed: exit $code"
          cat "$dir/err"
          fail=1
        fi
      done
    done
  done
done
exit $fail
