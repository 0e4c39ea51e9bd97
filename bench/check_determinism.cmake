# ctest harness for the bench-report determinism contract: the same spec
# and seed must produce a byte-identical timing-free JSON report at any
# --threads value, at any --sim-threads value (the shard layout is pinned
# to the plane count; the worker count only sizes the pool), and with the
# shared route cache on or off (PNET_ROUTE_CACHE=off forces pass-through
# recomputes — the cache must be an optimization, never a behavior change).
# Packet rows run two back-to-back rounds under --require-complete, so a
# report that leaves flows unfinished fails here even when every row
# reproduces it.
#
# determinism_families.cmake lists the families (fig9_packet, fig9_fsim,
# fig9_ctl_packet, fig9_ctl_fsim, fig11_packet, fault_recovery) and their
# rows. Every row is its own ctest, bench_report_determinism_<family>_row<i>,
# invoking this script with -DFAMILY=<family> -DROW=<row>: it runs the
# family's bench at that row and writes the JSON report. The family's
# ctest, bench_report_determinism_<family>, requires those rows as a
# fixture and invokes the script without ROW: it fails unless every row's
# report is byte-identical to the first row's. So `ctest -j` runs the rows
# side by side. Both also pass -DBENCH=<bench_fig9 path>
# -DRPC_BENCH=<bench_fig11 path> -DFAULT_BENCH=<bench_fault_recovery path>
# -DWORKDIR=<scratch dir>.
include(${CMAKE_CURRENT_LIST_DIR}/determinism_families.cmake)

set(args --hosts=16 --planes=2 --maxsize=1000000 --trials=2 --json-timing=0)
set(packet_args ${args} --engine=packet --rounds=2 --require-complete)
set(fsim_args ${args} --engine=fsim --rounds=1)
set(rpc_args --hosts=16 --planes=2 --rounds=2 --trials=2 --json-timing=0
    --require-complete)

if(FAMILY STREQUAL "fig9_packet")
  set(bench ${BENCH})
  set(case_args ${packet_args})
elseif(FAMILY STREQUAL "fig9_fsim")
  set(bench ${BENCH})
  set(case_args ${fsim_args})
elseif(FAMILY STREQUAL "fig9_ctl_packet")
  # Controller-enabled determinism: the adaptive control plane's ticks are
  # simulation events (control-queue barriers / fluid event loop), so a
  # --controller=centralized run obeys the exact same contract.
  set(bench ${BENCH})
  set(case_args ${packet_args} --controller=centralized)
elseif(FAMILY STREQUAL "fig9_ctl_fsim")
  set(bench ${BENCH})
  set(case_args ${fsim_args} --controller=centralized)
elseif(FAMILY STREQUAL "fig11_packet")
  # Closed-loop cells (bench_fig11's RPC grid) share the runner's route
  # cache and shard pool like fig9's, so they obey the same contract; their
  # short flows retire and recycle endpoint slots on every shard.
  set(bench ${RPC_BENCH})
  set(case_args ${rpc_args})
elseif(FAMILY STREQUAL "fault_recovery")
  set(bench ${FAULT_BENCH})
  set(case_args --hosts=16 --json-timing=0)
else()
  message(FATAL_ERROR "unknown determinism family '${FAMILY}'")
endif()

# Sets `out` to the path of `row`'s JSON report.
function(row_json out row)
  string(REPLACE "/" ";" fields ${row})
  list(GET fields 0 threads)
  list(GET fields 1 sim_threads)
  list(GET fields 2 cache)
  set(${out}
      ${WORKDIR}/${FAMILY}_t${threads}_s${sim_threads}_cache-${cache}.json
      PARENT_SCOPE)
endfunction()

if(DEFINED ROW)
  string(REPLACE "/" ";" fields ${ROW})
  list(GET fields 0 threads)
  list(GET fields 1 sim_threads)
  list(GET fields 2 cache)
  set(flags --threads=${threads})
  if(NOT sim_threads STREQUAL "-")
    list(APPEND flags --sim-threads=${sim_threads})
  endif()
  row_json(json ${ROW})
  file(REMOVE ${json})
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env PNET_ROUTE_CACHE=${cache}
            ${bench} ${case_args} ${flags} --json=${json}
    RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    list(JOIN flags " " shown)
    message(FATAL_ERROR "${FAMILY}: ${bench} ${shown} (route cache "
                        "${cache}) exited ${rc}")
  endif()
  return()
endif()

set(rows ${determinism_rows_${FAMILY}})
list(GET rows 0 first_row)
row_json(first ${first_row})
foreach(row ${rows})
  row_json(json ${row})
  if(NOT EXISTS ${json})
    message(FATAL_ERROR "${FAMILY}: no report ${json}; row ${row} did not "
                        "run (its ctest is a fixture of this one)")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${first} ${json}
                  RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "${FAMILY}: JSON report differs between "
                        "${first} and ${json} — the determinism "
                        "contract (threads x sim-threads x route cache) "
                        "is broken")
  endif()
endforeach()
