# ctest script behind the "perf"-labeled perf_core_smoke test: runs the
# perf_core harness in smoke mode and validates the emitted
# BENCH_core.json against the schema (v2) EXPERIMENTS.md documents.
# Absolute smoke-mode timing numbers are not checked against thresholds —
# wall-clock on a loaded CI machine is noise — but the hybrid/heapslab
# SPEEDUP RATIO is machine-portable (numerator and denominator run
# interleaved under the same load; smoke mode reports the median over 9
# such pairs), so it is guarded against the committed BENCH_core.json: a
# ratio more than 10% below the committed full-mode ratio fails the
# test.  Invoked as:
#   cmake -DPERF_CORE=<binary> -DOUT_JSON=<path> \
#         [-DBASELINE_JSON=<committed BENCH_core.json>] -P perf_smoke.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)

if(NOT DEFINED PERF_CORE OR NOT DEFINED OUT_JSON)
  message(FATAL_ERROR "usage: cmake -DPERF_CORE=... -DOUT_JSON=... -P perf_smoke.cmake")
endif()

execute_process(
  COMMAND "${PERF_CORE}" --smoke --out "${OUT_JSON}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE run_out
  ERROR_VARIABLE run_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "perf_core --smoke failed (rc=${rc}):\n${run_out}\n${run_err}")
endif()

file(READ "${OUT_JSON}" doc)

# Scalar header fields.
string(JSON bench ERROR_VARIABLE err GET "${doc}" bench)
if(err OR NOT bench STREQUAL "perf_core")
  message(FATAL_ERROR "BENCH_core.json: bad 'bench' field: ${bench} ${err}")
endif()
string(JSON schema ERROR_VARIABLE err GET "${doc}" schema_version)
if(err OR NOT schema EQUAL 2)
  message(FATAL_ERROR "BENCH_core.json: bad 'schema_version': ${schema} ${err}")
endif()
string(JSON mode ERROR_VARIABLE err GET "${doc}" mode)
if(err OR NOT mode STREQUAL "smoke")
  message(FATAL_ERROR "BENCH_core.json: bad 'mode': ${mode} ${err}")
endif()

# Every benchmark section must exist with its numeric fields; throughput
# numbers must be positive and alloc counts non-negative.
function(check_number section field)
  string(JSON v ERROR_VARIABLE err GET "${doc}" ${section} ${field})
  if(err)
    message(FATAL_ERROR "BENCH_core.json: missing ${section}.${field}: ${err}")
  endif()
  if(v LESS 0)
    message(FATAL_ERROR "BENCH_core.json: ${section}.${field} negative: ${v}")
  endif()
  set(checked_value "${v}" PARENT_SCOPE)
endfunction()

function(check_positive section field)
  check_number(${section} ${field})
  if(NOT checked_value GREATER 0)
    message(FATAL_ERROR "BENCH_core.json: ${section}.${field} not positive: ${checked_value}")
  endif()
endfunction()

foreach(section schedule_pop cancel_heavy)
  check_positive(${section} events_per_sec)
  check_positive(${section} heapslab_events_per_sec)
  check_positive(${section} speedup_vs_heapslab)
  check_number(${section} steady_state_allocs_per_event)
  check_number(${section} heapslab_allocs_per_event)
endforeach()
check_positive(fabric_throughput msgs_per_sec)
check_number(fabric_throughput allocs_per_msg)
check_positive(fabric_throughput sim_seconds)
check_positive(fig4_reduced wall_s)
check_positive(fig4_reduced tts_s)
check_positive(fig4_reduced messages)

# The structural guarantee — zero steady-state heap allocations per event
# in the hybrid and heap-slab queues — is deterministic (an allocation
# counter, not a timer), so smoke mode asserts EXACTLY zero on both the
# schedule/pop and the cancel-heavy paths.  (A one-ring-lap warm-up used
# to leak a capacity doubling into cancel_heavy's measured loop — the
# 5e-7 allocs/op of record — so this check was schedule_pop-only and
# merely "not positive".  The harness now warms every container to its
# steady-state footprint first; anything nonzero here is a real leak.)
foreach(section schedule_pop cancel_heavy)
  foreach(field steady_state_allocs_per_event heapslab_allocs_per_event)
    string(JSON allocs GET "${doc}" ${section} ${field})
    if(allocs GREATER 0)
      message(FATAL_ERROR
        "queue allocated on the steady-state ${section} path: "
        "${section}.${field} = ${allocs} allocs/event (expected exactly 0)")
    endif()
  endforeach()
endforeach()

# Regression guard vs. the committed baseline.  Absolute ev/s depends on
# the machine, but the hybrid/heapslab ratio comes from interleaved reps
# under identical load, so a committed-ratio shortfall of more than 10%
# means the hybrid queue itself got slower.
#
# CMake's math() is integer-only; ratios are converted to micro-units
# (6 fractional digits, ample for a speedup guard) before comparing.
function(ratio_to_micro outvar x)
  string(REGEX MATCH "^([0-9]+)(\\.([0-9]*))?" m "${x}")
  if(CMAKE_MATCH_1 STREQUAL "")
    message(FATAL_ERROR "unparsable ratio: ${x}")
  endif()
  string(SUBSTRING "${CMAKE_MATCH_3}000000" 0 6 frac6)
  math(EXPR micro "${CMAKE_MATCH_1} * 1000000 + ${frac6}")
  set(${outvar} "${micro}" PARENT_SCOPE)
endfunction()

if(DEFINED BASELINE_JSON AND EXISTS "${BASELINE_JSON}")
  file(READ "${BASELINE_JSON}" base)
  foreach(section schedule_pop cancel_heavy)
    set(field speedup_vs_heapslab)
    string(JSON want ERROR_VARIABLE err GET "${base}" ${section} ${field})
    if(err)
      message(FATAL_ERROR
        "baseline ${BASELINE_JSON} missing ${section}.${field}: ${err}")
    endif()
    string(JSON got GET "${doc}" ${section} ${field})
    ratio_to_micro(got_u "${got}")
    ratio_to_micro(want_u "${want}")
    math(EXPR lhs "${got_u} * 100")
    math(EXPR rhs "${want_u} * 90")  # 10% below baseline = failure
    if(lhs LESS rhs)
      message(FATAL_ERROR
        "perf regression: ${section}.${field} = ${got} is more than 10% "
        "below the committed baseline ${want} (${BASELINE_JSON})")
    endif()
  endforeach()
  message(STATUS "perf_core ratios within 10% of committed baseline")
endif()

message(STATUS "perf_core smoke OK: ${OUT_JSON}")
