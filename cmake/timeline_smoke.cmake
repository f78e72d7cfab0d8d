# ctest script behind the "perf"-labeled timeline_smoke test: runs a small
# real-numerics TLR Cholesky with AMTLCE_TIMELINE set, validates the
# emitted timeline JSON against the schema EXPERIMENTS.md documents, then
# runs perf_core --smoke and asserts the observability overhead guards:
# the sampler at its default cadence costs <= 5% on engine schedule/pop,
# and the always-on flight recorder <= 1% of an end-to-end run.  Those two
# ratios are the only wall-clock-derived values any smoke script checks
# against a threshold — perf_core measures them as a best-of-27 ratio of
# interleaved same-engine pairs (sampler) and a direct per-record cost
# share (recorder), so they are stable on a loaded machine where raw
# throughputs are not.  Invoked:
#   cmake -DTLR_EXAMPLE=<binary> -DPERF_CORE=<binary> -DWORK_DIR=<dir> \
#         -P timeline_smoke.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)

if(NOT DEFINED TLR_EXAMPLE OR NOT DEFINED PERF_CORE OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR
    "usage: cmake -DTLR_EXAMPLE=... -DPERF_CORE=... -DWORK_DIR=... -P timeline_smoke.cmake")
endif()

# --- 1. Timeline JSON schema -------------------------------------------------

set(tl_json "${WORK_DIR}/timeline_smoke.json")
file(REMOVE "${tl_json}")
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env "AMTLCE_TIMELINE=${tl_json}"
          "${TLR_EXAMPLE}" 4 32 4
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE run_out
  ERROR_VARIABLE run_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tlr_cholesky with AMTLCE_TIMELINE failed (rc=${rc}):\n${run_out}\n${run_err}")
endif()
if(NOT EXISTS "${tl_json}")
  message(FATAL_ERROR "AMTLCE_TIMELINE=${tl_json} was set but no file was written")
endif()

file(READ "${tl_json}" doc)
string(JSON bench ERROR_VARIABLE err GET "${doc}" bench)
if(err OR NOT bench STREQUAL "timeline")
  message(FATAL_ERROR "timeline json: bad 'bench' field: ${bench} ${err}")
endif()
string(JSON schema ERROR_VARIABLE err GET "${doc}" schema_version)
if(err OR NOT schema EQUAL 1)
  message(FATAL_ERROR "timeline json: bad 'schema_version': ${schema} ${err}")
endif()
string(JSON interval ERROR_VARIABLE err GET "${doc}" interval_ns)
if(err OR NOT interval GREATER 0)
  message(FATAL_ERROR "timeline json: bad 'interval_ns': ${interval} ${err}")
endif()
string(JSON nphases ERROR_VARIABLE err LENGTH "${doc}" phases)
if(err OR NOT nphases GREATER 0)
  message(FATAL_ERROR "timeline json: no phases (run.start missing): ${err}")
endif()

# Every probe row must carry the full column set; the standard probe set
# must include at least the DES, AMT, and cluster-wide net families.
string(JSON nprobes ERROR_VARIABLE err LENGTH "${doc}" probes)
if(err OR NOT nprobes GREATER 0)
  message(FATAL_ERROR "timeline json: empty or missing 'probes': ${err}")
endif()
set(seen_des 0)
set(seen_amt 0)
set(seen_net 0)
math(EXPR last "${nprobes} - 1")
foreach(i RANGE ${last})
  foreach(field name node samples stored dropped min max tw_mean points)
    string(JSON v ERROR_VARIABLE err GET "${doc}" probes ${i} ${field})
    if(err)
      message(FATAL_ERROR "timeline json: probes[${i}].${field} missing: ${err}")
    endif()
  endforeach()
  string(JSON nsamples GET "${doc}" probes ${i} samples)
  if(NOT nsamples GREATER 0)
    message(FATAL_ERROR "timeline json: probes[${i}] observed no samples")
  endif()
  string(JSON pname GET "${doc}" probes ${i} name)
  if(pname STREQUAL "des.qdepth")
    set(seen_des 1)
  elseif(pname STREQUAL "amt.ready")
    set(seen_amt 1)
  elseif(pname STREQUAL "net.msgs")
    set(seen_net 1)
  endif()
endforeach()
if(NOT (seen_des AND seen_amt AND seen_net))
  message(FATAL_ERROR
    "timeline json: standard probe families missing "
    "(des.qdepth=${seen_des} amt.ready=${seen_amt} net.msgs=${seen_net})")
endif()
message(STATUS "timeline json OK: ${nprobes} probes, ${nphases} phases")

# --- 2. Overhead guards ------------------------------------------------------

set(core_json "${WORK_DIR}/BENCH_core_timeline.json")
execute_process(
  COMMAND "${PERF_CORE}" --smoke --out "${core_json}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE run_out
  ERROR_VARIABLE run_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "perf_core --smoke failed (rc=${rc}):\n${run_out}\n${run_err}")
endif()
file(READ "${core_json}" core)

string(JSON sampler ERROR_VARIABLE err GET "${core}" timeline sampler_overhead)
if(err)
  message(FATAL_ERROR "BENCH_core.json: timeline.sampler_overhead missing: ${err}")
endif()
if(sampler GREATER 0.05)
  message(FATAL_ERROR
    "sampler overhead guard: timeline sampling at the default cadence "
    "costs ${sampler} (> 5%) on engine schedule/pop")
endif()
string(JSON recorder ERROR_VARIABLE err GET "${core}" timeline recorder_overhead)
if(err)
  message(FATAL_ERROR "BENCH_core.json: timeline.recorder_overhead missing: ${err}")
endif()
if(recorder GREATER 0.01)
  message(FATAL_ERROR
    "flight-recorder overhead guard: the always-on recorder costs "
    "${recorder} (> 1%) of an end-to-end reduced-fig4 run")
endif()
message(STATUS
  "overhead guards OK: sampler ${sampler} (<= 0.05), recorder ${recorder} (<= 0.01)")
