# ctest checks of floc_figures, run as
#   cmake -DFIGURES=<floc_figures> -DMODE=unknown -P figure_test.cmake
#   cmake -DFIGURES=<floc_figures> -DMODE=determinism -DFIGURE=NAME
#         -DDIR=<scratch dir> -P figure_test.cmake
# MODE=unknown: an unknown figure name must exit 2.
# MODE=determinism: NAME --quick at --jobs 1 and --jobs 4 must write
# byte-identical stdout and artifacts; only the manifests (wall times, jobs)
# may differ.
if(MODE STREQUAL "unknown")
  execute_process(COMMAND ${FIGURES} no_such_figure
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "unknown figure name exited ${rc}, expected 2")
  endif()
elseif(MODE STREQUAL "determinism")
  file(REMOVE_RECURSE ${DIR})
  foreach(jobs 1 4)
    file(MAKE_DIRECTORY ${DIR}/jobs${jobs})
    execute_process(COMMAND ${FIGURES} ${FIGURE} --quick --jobs ${jobs}
      WORKING_DIRECTORY ${DIR}/jobs${jobs}
      OUTPUT_FILE ${DIR}/jobs${jobs}/stdout.txt RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${FIGURE} --jobs ${jobs} exited ${rc}")
    endif()
  endforeach()
  file(GLOB serial RELATIVE ${DIR}/jobs1 ${DIR}/jobs1/*)
  file(GLOB parallel RELATIVE ${DIR}/jobs4 ${DIR}/jobs4/*)
  list(FILTER serial EXCLUDE REGEX "\\.manifest\\.json$")
  list(FILTER parallel EXCLUDE REGEX "\\.manifest\\.json$")
  if(NOT serial STREQUAL parallel)
    message(FATAL_ERROR "artifact sets differ:\n${serial}\nvs\n${parallel}")
  endif()
  foreach(f ${serial})
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
      ${DIR}/jobs1/${f} ${DIR}/jobs4/${f} RESULT_VARIABLE differ)
    if(differ)
      message(FATAL_ERROR "${f} differs between --jobs 1 and --jobs 4")
    endif()
  endforeach()
  list(LENGTH serial n)
  message(STATUS "${n} files identical between --jobs 1 and --jobs 4")
else()
  message(FATAL_ERROR "unknown MODE '${MODE}'")
endif()
