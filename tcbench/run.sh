#!/bin/sh
# The benchmark's command (BENCHMARK.json): builds tcbench (release,
# offline) and runs it with the arguments given. Run it from the
# repository root:
#
#   sh tcbench/run.sh --workload hr_query --seed 1 --seconds 20 --trace 0
#
# Untraced runs, which give the end-to-end metrics, are pinned to one CPU,
# the highest-numbered one the process may use: on a small shared host,
# TCQL reads partitioned over two vCPUs wait on whichever vCPU the host is
# busy with, which made them slower and their run-to-run spread several
# times wider, and on the host this was built on the highest CPU also
# takes the disk's interrupts, so a synced write is not woken across CPUs
# (README.md, "CPUs"). Traced runs use every CPU the process may use, so
# the per-layer query figures show the executor's default partitioned
# path.
set -e
case " $* " in
*" --trace 1 "*) pin="" ;;
*)
    cpu=$(taskset -cp $$ | sed 's/.*: //; s/.*[,-]//')
    pin="taskset -c $cpu"
    ;;
esac
exec $pin cargo run --offline --quiet --release --manifest-path tcbench/Cargo.toml -- "$@"
