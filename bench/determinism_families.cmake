# The families of the bench-report determinism check and their rows,
# shared by bench/CMakeLists.txt (one ctest per row, one per family) and
# check_determinism.cmake (which runs one row, or compares a family's
# rows). A row reads "<threads>/<sim-threads>/<route cache on|off>"; a
# sim-threads of "-" leaves that flag at its default.
set(determinism_families fig9_packet fig9_fsim fig9_ctl_packet fig9_ctl_fsim
    fig11_packet fault_recovery)
# Every sim-threads value (default, 2, 4) meets both runner thread counts
# and both route-cache settings.
set(determinism_rows_fig9_packet 1/-/on 4/-/off 1/2/off 4/2/on 1/4/on 4/4/off)
set(determinism_rows_fig9_fsim 1/-/on 1/-/off 4/-/on 4/-/off)
set(determinism_rows_fig9_ctl_packet 1/-/on 4/-/on 1/2/on 4/4/on)
set(determinism_rows_fig9_ctl_fsim 1/-/on 4/-/on)
set(determinism_rows_fig11_packet ${determinism_rows_fig9_packet})
set(determinism_rows_fault_recovery 2/-/on 2/2/on 2/4/on)
