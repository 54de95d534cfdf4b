#!/usr/bin/env bash
# Bit-identity gate between two Release build trees of this repository,
# for changes that claim not to move an output bit:
#
#   1. the stdout of the nineteen figure and ablation benches, byte for
#      byte (bench_ablation_solvers is the only bench that prints ISTA, OMP
#      and pseudo-inverse results; bench_ablation_impairments the only one
#      that switches RangingConfig::use_toa_gate off; fig2, fig3, fig9a-c
#      and fig10a-b are the only ones that run the band plan, the CRT
#      solver, the hopping, video and TCP models and the drone loop);
#   2. the stdout of the five deterministic example programs, byte for
#      byte (trace_replay is the only program that writes traces with
#      save_sweep and ranges them back through the trace backend;
#      quickstart, device_to_device_localization, network_coexistence and
#      personal_drone drive the public facade, localization, and the Fig 9
#      and Fig 10 models). fleet_ranging and daemon_roundtrip print
#      wall-clock values, so they stay out;
#   3. the SOLVE_DIGEST and OFFICE_GAP lines of bench_micro_core: a hash of
#      48 office solves (iterations, convergence, coefficient bytes,
#      residual) and their iterations-to-gap. The ToF digests and the
#      figure benches do not read the solve's bits; this line does;
#   4. the SWEEP_DIGEST line of bench_micro_core: a hash of the CSI,
#      timestamp and SNR bits of the 48 office sweeps those solves start
#      from, so a change to synthesis shows apart from one to the solve.
#
# Usage: scripts/compare_builds.sh <parent-build> <change-build>
#   Each argument is a CMake build directory whose bench/ and examples/
#   subdirectories hold the bench and example binaries (e.g. build/ of a
#   `git archive` copy of the parent commit, and build/ of the change).
#
# Prints one "DIFFERS: <name>" line per mismatch and exits 1 if there is
# any, 0 when every output matches. Exits 2 on a usage error, a missing
# binary or a bench that fails. The rangebench ToF digests and the daemon
# checks are separate steps.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <parent-build> <change-build>" >&2
  exit 2
fi
PARENT="$1"
CHANGE="$2"

BENCHES=(
  bench_fig2_bandplan
  bench_fig3_crt_alignment
  bench_fig4_multipath_profile
  bench_fig7a_tof_accuracy
  bench_fig7b_profile_sparsity
  bench_fig7c_detection_delay
  bench_fig8a_distance_vs_range
  bench_fig8b_localization_small
  bench_fig8c_localization_large
  bench_fig9a_hopping_time
  bench_fig9b_video
  bench_fig9c_tcp
  bench_fig10a_drone_distance
  bench_fig10b_drone_trajectory
  bench_ablation_bands
  bench_ablation_antenna_separation
  bench_ablation_adversarial
  bench_ablation_solvers
  bench_ablation_impairments
)

EXAMPLES=(
  quickstart
  trace_replay
  device_to_device_localization
  network_coexistence
  personal_drone
)

PROGRAMS=()
for bench in "${BENCHES[@]}" bench_micro_core; do
  PROGRAMS+=("bench/${bench}")
done
for example in "${EXAMPLES[@]}"; do
  PROGRAMS+=("examples/${example}")
done

for dir in "${PARENT}" "${CHANGE}"; do
  for program in "${PROGRAMS[@]}"; do
    if [[ ! -x "${dir}/${program}" ]]; then
      echo "error: ${dir}/${program} not built" >&2
      exit 2
    fi
  done
done

OUT="$(mktemp -d)"
trap 'rm -rf "${OUT}"' EXIT

# run <build-dir> <program> <output-file>
run() {
  if ! "$1/$2" > "$3"; then
    echo "error: $1/$2 failed" >&2
    exit 2
  fi
}

DIFFERS=0
compare() {
  if ! cmp -s "${OUT}/$1.parent" "${OUT}/$1.change"; then
    echo "DIFFERS: $1"
    DIFFERS=$((DIFFERS + 1))
  fi
}

for bench in "${BENCHES[@]}"; do
  run "${PARENT}" "bench/${bench}" "${OUT}/${bench}.parent"
  run "${CHANGE}" "bench/${bench}" "${OUT}/${bench}.change"
  compare "${bench}"
done

for example in "${EXAMPLES[@]}"; do
  run "${PARENT}" "examples/${example}" "${OUT}/${example}.parent"
  run "${CHANGE}" "examples/${example}" "${OUT}/${example}.change"
  compare "${example}"
done

run "${PARENT}" bench/bench_micro_core "${OUT}/micro.parent"
run "${CHANGE}" bench/bench_micro_core "${OUT}/micro.change"
# digest <name> <line pattern>: the micro bench lines of one digest.
digest() {
  for side in parent change; do
    grep -E "^($2) " "${OUT}/micro.${side}" > "${OUT}/$1.${side}" || true
  done
  if [[ ! -s "${OUT}/$1.change" ]]; then
    echo "error: ${CHANGE}/bench/bench_micro_core printed no $1" >&2
    exit 2
  fi
  compare "$1"
  cat "${OUT}/$1.change"
}
digest SOLVE_DIGEST 'SOLVE_DIGEST|OFFICE_GAP'
digest SWEEP_DIGEST 'SWEEP_DIGEST'

if [[ "${DIFFERS}" -gt 0 ]]; then
  echo "compare_builds: ${DIFFERS} output(s) differ"
  exit 1
fi
echo "compare_builds: ${#BENCHES[@]} bench outputs, ${#EXAMPLES[@]} example" \
  "outputs, SOLVE_DIGEST and SWEEP_DIGEST identical"
