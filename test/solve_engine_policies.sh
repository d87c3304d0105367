#!/bin/sh
# `resa solve` runs every engine policy (FCFS, CONS, EASY, LSRC, each with
# every job submitted at 0) under FIFO, LPT and a random order on random,
# packed and FCFS-adversarial instances. solve validates each schedule and
# exits 3 on an infeasible one, so every run must exit 0.
#
# Then the horizon case: on m = 4, a 1-wide reservation [0, 2^59) and one
# 3x4 job, which every policy starts at 2^59. The reservation sweep packs
# a time and a width into one int, and the job's stop edge lies past that
# key's range for a width of 4 (max_int lsr 4), so the usage that solve
# validates must be built without packing (Profile.of_events). The four
# engine policies and shelf-nfdh must exit 0 with makespan 2^59 + 3.
#
# Run from anywhere, with the path of the resa executable:
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
printf 'm 4\nres 0 576460752303423488 1\njob 3 4\n' > "$dir/horizon.txt"
for algo in fcfs cons easy lsrc shelf-nfdh; do
  set +e
  "$resa" solve "$dir/horizon.txt" -a "$algo" > "$dir/out" 2> "$dir/err"
  code=$?
  set -e
  if [ "$code" -ne 0 ] || ! grep -q ' makespan: 576460752303423491$' "$dir/out"; then
    echo "resa solve -a $algo on the horizon case: exit $code"
    cat "$dir/out" "$dir/err"
    fail=1
  fi
done
exit $fail
