#!/usr/bin/env bash
# Run every fig/ablation/host_perf/fault/chaos bench and regenerate
# all BENCH_*.json artifacts at the repo root.
#
#   bench/run_all.sh [build_dir]       (default: <repo>/build)
#
# Every bench is a shape-checked binary: it exits non-zero when one
# of its paper-shape or perf gates fails, so this script doubles as
# the full perf regression sweep.  Benches run from the repo root —
# the JSON writers use the working directory, which is how the
# BENCH_*.json files land next to this script's parent.
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$root/build}"

benches=(
    fig06_instruction_mix
    fig08_marker_traffic
    table4_parsing
    fig15_inheritance
    fig16_alpha_speedup
    fig17_beta_speedup
    fig18_cluster_sweep
    fig19_kb_profile
    fig20_prop_count
    fig21_overhead
    beta_analysis
    host_perf
    fault_tolerance
    chaos_soak
    ablation_partition
    ablation_queues
    ablation_machine
    scaling_kb
)

cd "$root"
failed=()
for b in "${benches[@]}"; do
    bin="$build/bench/$b"
    if [ ! -x "$bin" ]; then
        echo "error: $bin not built (cmake --build $build)" >&2
        exit 1
    fi
    echo
    echo "==================== $b ===================="
    if ! "$bin"; then
        failed+=("$b")
    fi
done

# Tracing-on soak: the same chaos gates with the observability hot
# path lit (trace context on every wire frame, serve spans, slow-query
# log).  Writes BENCH_chaos_traced.json + chaos_trace.json.
echo
echo "==================== chaos_soak --traced ===================="
if ! "$build/bench/chaos_soak" --traced; then
    failed+=("chaos_soak--traced")
fi

echo
if [ "${#failed[@]}" -gt 0 ]; then
    echo "FAILED: ${failed[*]}"
    exit 1
fi
echo "all ${#benches[@]} benches passed; BENCH_*.json written to $root"
ls -1 "$root"/BENCH_*.json
