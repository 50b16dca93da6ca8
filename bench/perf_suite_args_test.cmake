# ctest check of perf_suite's argument parsing, run as
#   cmake -DPERF_SUITE=<perf_suite> -P perf_suite_args_test.cmake
# A --seed that is not a non-negative integer and a non-integer --jobs must
# each print usage and exit 2 before any measurement starts.
foreach(args "--seed;-5" "--jobs;x")
  execute_process(COMMAND ${PERF_SUITE} ${args}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "perf_suite ${args} exited ${rc}, expected 2")
  endif()
endforeach()
