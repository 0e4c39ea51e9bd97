# ctest harness for the bench-report determinism contract: the same spec
# and seed must produce a byte-identical timing-free JSON report at any
# --threads value, at any --sim-threads value (the shard layout is pinned
# to the plane count; the worker count only sizes the pool), and with the
# shared route cache on or off (PNET_ROUTE_CACHE=off forces pass-through
# recomputes — the cache must be an optimization, never a behavior change).
#
# determinism_families.cmake lists the families, each family's bench and
# flags, and its rows. Every row is its own ctest,
# bench_report_determinism_<family>_row<i>, invoking this script with
# -DFAMILY=<family> -DROW=<row>: it runs the family's bench at that row and
# writes the JSON report. The family's ctest,
# bench_report_determinism_<family>, requires those rows as a fixture and
# invokes the script without ROW: it fails unless every row's report is
# byte-identical to the first row's. So `ctest -j` runs the rows side by
# side. Both also pass -DBENCH=<the family's bench binary>
# -DWORKDIR=<scratch dir>.
include(${CMAKE_CURRENT_LIST_DIR}/determinism_families.cmake)

if(NOT DEFINED determinism_${FAMILY})
  message(FATAL_ERROR "unknown determinism family '${FAMILY}'")
endif()
list(SUBLIST determinism_${FAMILY} 1 -1 case_args)

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
            ${BENCH} ${case_args} ${flags} --json=${json}
    RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    list(JOIN flags " " shown)
    message(FATAL_ERROR "${FAMILY}: ${BENCH} ${shown} (route cache "
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
