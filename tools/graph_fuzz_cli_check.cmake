# Runs graph_fuzz with each malformed flag below and requires exit code 2 and
# the usage text on stderr, so a typo in a fuzz step cannot pass by fuzzing
# nothing:
#   cmake -DFUZZ=<graph_fuzz binary> -P graph_fuzz_cli_check.cmake
foreach(arg --iters=abc --iters=5x --seed=-1 --iters= --iters=+5 "--iters= 5"
            --seed=18446744073709551616)
  execute_process(COMMAND ${FUZZ} ${arg}
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT status EQUAL 2)
    message(FATAL_ERROR "'${arg}': expected exit code 2, got '${status}'\n${out}${err}")
  endif()
  if(NOT err MATCHES "--iters=N")
    message(FATAL_ERROR "'${arg}': no usage text on stderr\n${err}")
  endif()
endforeach()
