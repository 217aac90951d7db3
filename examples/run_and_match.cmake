# Run EXE with the space-separated ARGS and pass only if it exits 0 AND its
# output matches the regex PASS. ctest ignores a test's exit code once the
# test has a PASS_REGULAR_EXPRESSION, so a test that needs both checks runs
# through this script:
#   cmake -DEXE=<program> "-DARGS=<args>" "-DPASS=<regex>" -P run_and_match.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
message("${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${rc}")
endif()
if(NOT out MATCHES "${PASS}")
  message(FATAL_ERROR "${EXE} output does not match: ${PASS}")
endif()
