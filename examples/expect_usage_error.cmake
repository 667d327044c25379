# Runs `er_cli --demo <ARG>` and passes only when it exits with status 2 and
# prints the usage line on stderr.
#   cmake -DER_CLI=<path to er_cli> -DARG=<flag> -P expect_usage_error.cmake
execute_process(COMMAND "${ER_CLI}" --demo "${ARG}"
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "2" OR NOT err MATCHES "usage: er_cli")
  message(FATAL_ERROR "er_cli --demo ${ARG}: expected exit 2 and the usage "
                      "line, got '${status}'\n${out}${err}")
endif()
