# Runs one bench and compares its stdout byte for byte with a committed
# golden file (stderr, which carries engine info and timings, is dropped).
#
#   cmake -DBENCH=<executable> -DARGS=<;-list> -DGOLDEN=<file>
#         [-DAVX2=0] [-DREGENERATE=ON] -P compare.cmake
#
# AVX2=0 runs the bench under DIP_AVX2=0 (the portable residue lanes).
# REGENERATE=ON writes the bench's stdout to GOLDEN instead of comparing;
# the `regen_goldens` build target does that for every golden at one thread.
if(NOT BENCH OR NOT GOLDEN)
  message(FATAL_ERROR "compare.cmake: BENCH and GOLDEN are required")
endif()
string(REPLACE ";" " " shownArgs "${ARGS}")  # For messages.
if(DEFINED AVX2)
  set(ENV{DIP_AVX2} "${AVX2}")
endif()

execute_process(COMMAND "${BENCH}" ${ARGS}
                OUTPUT_VARIABLE actual
                ERROR_QUIET
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${shownArgs} exited with ${status}")
endif()

if(REGENERATE)
  file(WRITE "${GOLDEN}" "${actual}")
  message(STATUS "wrote ${GOLDEN}")
  return()
endif()

file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  get_filename_component(name "${GOLDEN}" NAME)
  set(actualFile "${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
  file(WRITE "${actualFile}" "${actual}")
  message(FATAL_ERROR "stdout of ${BENCH} ${shownArgs} differs from ${GOLDEN}; "
                      "it is in ${actualFile}")
endif()
