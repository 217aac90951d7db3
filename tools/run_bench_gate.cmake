# Tier-1 bench gate, run by ctest as BenchBaselineGate (see root
# CMakeLists.txt). Runs the smoke benches into a scratch directory and
# compares their BENCH_*.json reports against the committed baselines with
# bench_check. Invoked as:
#
#   cmake -DBENCH_DIR=... -DCHECK_BIN=... -DBASELINE_DIR=... -DWORK_DIR=...
#         -P tools/run_bench_gate.cmake
#
# MESHSEARCH_SKIP_BENCH_GATE=1 skips everything (benches included);
# MESHSEARCH_BENCH_WALL_GATE=1 is read by bench_check itself.

if(DEFINED ENV{MESHSEARCH_SKIP_BENCH_GATE}
   AND NOT "$ENV{MESHSEARCH_SKIP_BENCH_GATE}" STREQUAL ""
   AND NOT "$ENV{MESHSEARCH_SKIP_BENCH_GATE}" STREQUAL "0")
  message(STATUS "bench gate: skipped (MESHSEARCH_SKIP_BENCH_GATE set)")
  return()
endif()

foreach(var BENCH_DIR CHECK_BIN BASELINE_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench gate: missing -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# The smoke set: every experiment with a committed baseline. Keep in sync
# with bench/baselines/ (bench_check fails if a baseline has no report).
# bench_v1_engines --smoke is the cross-engine table: it pins the cycle
# engine's measured shearsort, scan, route and RAR step counts (sides
# 8-128) next to the charged costs they are compared with.
set(SMOKE_BENCHES bench_e1_hierarchical bench_e8_stream bench_e10_service bench_e11_dynamic bench_e12_overload bench_v1_engines)

foreach(b ${SMOKE_BENCHES})
  message(STATUS "bench gate: running ${b} --smoke")
  execute_process(
    COMMAND "${BENCH_DIR}/${b}" --smoke
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rv
    OUTPUT_FILE "${WORK_DIR}/${b}.stdout.txt")
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "bench gate: ${b} --smoke exited with ${rv}")
  endif()
endforeach()

execute_process(
  COMMAND "${CHECK_BIN}" --dir "${BASELINE_DIR}" "${WORK_DIR}/bench_out"
  RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR
          "bench gate: regression against bench/baselines/ (bench_check "
          "exited ${rv}); if the cost model changed intentionally, rerun "
          "the smoke benches and re-commit the baselines")
endif()
message(STATUS "bench gate: OK")
