# Runs one example and passes only when it exits 0 and its standard output
# equals the recorded file byte for byte. Every example is deterministic at
# any POWER_THREADS and POWER_SIMD setting, so a difference is a changed
# result, not noise.
#   cmake -DEXAMPLE=<path to the example> [-DARG=<argument>]
#         -DEXPECTED=<recorded stdout> -P expect_stdout.cmake
execute_process(COMMAND "${EXAMPLE}" ${ARG}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "${EXAMPLE} ${ARG}: expected exit 0, got "
                      "'${status}'\n${out}${err}")
endif()
file(READ "${EXPECTED}" want)
if(NOT out STREQUAL want)
  message(FATAL_ERROR "${EXAMPLE} ${ARG}: stdout differs from ${EXPECTED}; "
                      "it printed:\n${out}")
endif()
