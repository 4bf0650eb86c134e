# Operand validation of bench_throughput's --ref-* flags.
#
# Usage:
#   cmake -DBENCH=<bench_throughput binary> -P bench_throughput_cli.cmake
#
# Every malformed, non-finite or non-positive reference operand must exit
# 2 with a message naming the flag, before the sweep starts.

if(NOT DEFINED BENCH)
    message(FATAL_ERROR "BENCH not set")
endif()

foreach(flag --ref-edges-per-sec --ref-wall-seconds)
    foreach(value abc -5 0 1e6x "" inf)
        execute_process(
            COMMAND "${BENCH}" ${flag} "${value}"
            OUTPUT_QUIET
            ERROR_VARIABLE err
            RESULT_VARIABLE rc
            TIMEOUT 60)
        if(NOT rc EQUAL 2)
            message(FATAL_ERROR
                "${flag} '${value}' exited with '${rc}', expected 2")
        endif()
        string(FIND "${err}" "${flag}" at)
        if(at EQUAL -1)
            message(FATAL_ERROR
                "${flag} '${value}' error does not name the flag: ${err}")
        endif()
    endforeach()
endforeach()
message(STATUS "bench_throughput rejects every bad --ref-* operand")
