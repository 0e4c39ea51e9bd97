# ctest harness for the bench-report determinism contract: the same spec
# and seed must produce a byte-identical timing-free JSON report at any
# --threads value, at any --sim-threads value (the shard layout is pinned
# to the plane count; the worker count only sizes the pool), and with the
# shared route cache on or off (PNET_ROUTE_CACHE=off forces pass-through
# recomputes — the cache must be an optimization, never a behavior change).
# Packet rows run two back-to-back rounds under --require-complete, so a
# report that leaves flows unfinished fails here even when every row
# reproduces it. Invoked by the bench_report_determinism test with
# -DBENCH=<bench_fig9 path> -DFAULT_BENCH=<bench_fault_recovery path>
# -DWORKDIR=<scratch dir>.
set(args --hosts=16 --planes=2 --maxsize=1000000 --trials=2 --json-timing=0)
set(packet_args ${args} --engine=packet --rounds=2 --require-complete)
set(fsim_args ${args} --engine=fsim --rounds=1)

# Runs `bench` with `case_args` once per row and fails unless every JSON
# report is byte-identical to the first row's. A row reads
# "<threads>/<sim-threads>/<route cache on|off>"; a sim-threads of "-"
# leaves that flag at its default.
function(check_rows case_name bench case_args rows)
  set(first "")
  foreach(row ${rows})
    string(REPLACE "/" ";" fields ${row})
    list(GET fields 0 threads)
    list(GET fields 1 sim_threads)
    list(GET fields 2 cache)
    set(flags --threads=${threads})
    if(NOT sim_threads STREQUAL "-")
      list(APPEND flags --sim-threads=${sim_threads})
    endif()
    set(json
        ${WORKDIR}/${case_name}_t${threads}_s${sim_threads}_cache-${cache}.json)
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E env PNET_ROUTE_CACHE=${cache}
              ${bench} ${case_args} ${flags} --json=${json}
      RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
      list(JOIN flags " " shown)
      message(FATAL_ERROR "${case_name}: ${bench} ${shown} (route cache "
                          "${cache}) exited ${rc}")
    endif()
    if(first STREQUAL "")
      set(first ${json})
      continue()
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            ${first} ${json}
                    RESULT_VARIABLE diff)
    if(NOT diff EQUAL 0)
      message(FATAL_ERROR "${case_name}: JSON report differs between "
                          "${first} and ${json} — the determinism "
                          "contract (threads x sim-threads x route cache) "
                          "is broken")
    endif()
  endforeach()
endfunction()

# Every sim-threads value (default, 2, 4) meets both runner thread counts
# and both route-cache settings.
set(packet_rows 1/-/on 4/-/off 1/2/off 4/2/on 1/4/on 4/4/off)
check_rows(fig9_packet ${BENCH} "${packet_args}" "${packet_rows}")
check_rows(fig9_fsim ${BENCH} "${fsim_args}" "1/-/on;1/-/off;4/-/on;4/-/off")

# Controller-enabled determinism: the adaptive control plane's ticks are
# simulation events (control-queue barriers / fluid event loop), so a
# --controller=centralized run obeys the exact same contract.
check_rows(fig9_ctl_packet ${BENCH}
           "${packet_args};--controller=centralized"
           "1/-/on;4/-/on;1/2/on;4/4/on")
check_rows(fig9_ctl_fsim ${BENCH} "${fsim_args};--controller=centralized"
           "1/-/on;4/-/on")

if(FAULT_BENCH)
  check_rows(fault_recovery ${FAULT_BENCH} "--hosts=16;--json-timing=0"
             "2/-/on;2/2/on;2/4/on")
endif()
