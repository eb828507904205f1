# Reruns a figure program and byte-compares its stdout with a checked-in
# golden table (tests/golden/).  Usage:
#   cmake -DPROGRAM=<exe> -DARGS=<a;b> -DGOLDEN=<file> -DOUT=<file>
#         -P golden_test.cmake
# A deliberate output change regenerates the golden with the same command
# line and commits it alongside the change.
execute_process(COMMAND ${PROGRAM} ${ARGS}
                OUTPUT_FILE ${OUT}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  file(READ ${GOLDEN} expected)
  file(READ ${OUT} actual)
  message(FATAL_ERROR "output differs from ${GOLDEN}\n"
                      "--- expected\n${expected}\n--- actual\n${actual}")
endif()
