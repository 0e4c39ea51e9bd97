# The families of the bench-report determinism check, shared by
# bench/CMakeLists.txt (one ctest per row, one per family) and
# check_determinism.cmake (which runs one row, or compares a family's rows).
# `determinism_<family>` is the family's bench target and its flags;
# `determinism_rows_<family>` lists its rows. A row reads
# "<threads>/<sim-threads>/<route cache on|off>"; a sim-threads of "-"
# leaves that flag at its default.
set(determinism_families fig9_packet fig9_fsim fig9_ctl_packet fig9_ctl_fsim
    fig11_packet fault_recovery fig12_hadoop load_open_loop dctcp_incast
    ablation_failover ablation_controller)

set(fig9_args bench_fig9 --hosts=16 --planes=2 --maxsize=1000000 --trials=2
    --json-timing=0)
# Packet rows run under --require-complete, so a report that leaves flows
# unfinished fails here even when every row reproduces it.
set(determinism_fig9_packet ${fig9_args} --engine=packet --rounds=2
    --require-complete)
set(determinism_fig9_fsim ${fig9_args} --engine=fsim --rounds=1)
# The control plane's ticks are simulation events (control-queue barriers,
# the fluid event loop), so controller-enabled runs obey the same contract.
set(determinism_fig9_ctl_packet ${determinism_fig9_packet}
    --controller=centralized)
set(determinism_fig9_ctl_fsim ${determinism_fig9_fsim} --controller=centralized)
# Closed-loop RPC cells: short flows retire and recycle endpoint slots on
# every shard.
set(determinism_fig11_packet bench_fig11 --hosts=16 --planes=2 --rounds=2
    --trials=2 --json-timing=0 --require-complete)
set(determinism_fault_recovery bench_fault_recovery --hosts=16
    --json-timing=0)
# The Hadoop, open-loop and incast driver patterns; the Hadoop rows also
# carry telemetry and the centralized controller.
set(determinism_fig12_hadoop bench_fig12 --hosts=16 --mappers=4 --reducers=4
    --gb=0.1 --trials=2 --sample-every=1 --controller=centralized
    --json-timing=0 --require-complete)
set(determinism_load_open_loop bench_ablation_load --hosts=16 --flows=100
    --trials=2 --json-timing=0 --require-complete)
set(determinism_dctcp_incast bench_ablation_dctcp --hosts=16 --trials=2
    --json-timing=0 --require-complete)
# Plane outages (ExperimentSpec::faults) under each controller mode: the
# failover cells' unaware half strands flows by design, so neither family
# runs under --require-complete.
set(determinism_ablation_failover bench_ablation_failover --json-timing=0)
set(determinism_ablation_controller bench_ablation_controller
    --json-timing=0)

# Every sim-threads value (default, 2, 4) meets both runner thread counts
# and both route-cache settings.
set(determinism_rows_fig9_packet 1/-/on 4/-/off 1/2/off 4/2/on 1/4/on 4/4/off)
set(determinism_rows_fig9_fsim 1/-/on 1/-/off 4/-/on 4/-/off)
set(determinism_rows_fig9_ctl_packet 1/-/on 4/-/on 1/2/on 4/4/on)
set(determinism_rows_fig9_ctl_fsim 1/-/on 4/-/on)
set(determinism_rows_fig11_packet ${determinism_rows_fig9_packet})
set(determinism_rows_fault_recovery 2/-/on 2/2/on 2/4/on)
set(determinism_rows_fig12_hadoop ${determinism_rows_fig9_packet})
set(determinism_rows_load_open_loop ${determinism_rows_fig9_packet})
set(determinism_rows_dctcp_incast ${determinism_rows_fig9_packet})
set(determinism_rows_ablation_failover ${determinism_rows_fig9_packet})
# ~17 s of CPU per run: three rows cover both thread counts, every
# sim-threads value and both route-cache settings.
set(determinism_rows_ablation_controller 1/-/on 4/2/off 4/4/on)
