# Runs BENCH with the ;-separated ARGS and requires what bench::Init promises
# for malformed flags: exit code 2 and the usage text on stderr.
#   cmake -DBENCH=<binary> "-DARGS=--scale;abc" -P cli_check.cmake
execute_process(COMMAND ${BENCH} ${ARGS}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "'${ARGS}': expected exit code 2, got '${status}'\n${out}${err}")
endif()
if(NOT err MATCHES "usage: bench_")
  message(FATAL_ERROR "'${ARGS}': no usage text on stderr\n${err}")
endif()
