#!/bin/bash
# Regenerate every figure's recorded output (moderate scale).
set -x
cd /root/repo
B=./target/release
$B/fig6_basic --systems                          > results/table2.txt 2>&1
$B/fig6_basic --iters 20                         > results/fig6.txt 2>&1
$B/fig7_consistency --ranks 2,4,8,16,32 --iters 12 > results/fig7.txt 2>&1
$B/fig8_get --ranks 4,8,16,32 --iters 120        > results/fig8.txt 2>&1
$B/fig9_workload --ranks 2,4,8,16 --iters 24     > results/fig9.txt 2>&1
$B/fig10_cr --ranks 2,4,8,16 --iters 20          > results/fig10.txt 2>&1
$B/fig11_mdhim --ranks 2,4,8,16,32 --iters 30    > results/fig11.txt 2>&1
$B/fig13_meraculous --ranks 4,8,16,32            > results/fig13.txt 2>&1
{ echo "# Replication overhead: R=1 vs R=2 (fig6_basic / fig7_consistency --replicas 2)"
  echo "=== fig6_basic (R=1, default) ===";        $B/fig6_basic
  echo; echo "=== fig6_basic --replicas 2 ===";    $B/fig6_basic --replicas 2
  echo; echo "=== fig7_consistency (R=1, default) ==="; $B/fig7_consistency
  echo; echo "=== fig7_consistency --replicas 2 ==="; $B/fig7_consistency --replicas 2
} > results/replica.txt 2>&1
# Perf-trajectory snapshot: the YCSB-style suite's table goes with the
# figures, and the JSON snapshot (BENCH_<sha>.json at the repo root) is
# the artifact the CI regression gate compares against BENCH_baseline.json.
$B/xtask perfline                                > results/perfline.txt 2>&1
echo ALL_FIGURES_DONE
