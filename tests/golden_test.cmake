# Reruns a program and byte-compares its stdout with checked-in goldens
# (tests/golden/), concatenated in order.  Usage:
#   cmake -DPROGRAM=<exe> -DARGS=<a;b> -DGOLDEN=<file;...> -DOUT=<file>
#         -P golden_test.cmake
# A deliberate output change regenerates the goldens with the same command
# lines and commits them alongside the change.
execute_process(COMMAND ${PROGRAM} ${ARGS}
                OUTPUT_FILE ${OUT}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${rc}")
endif()
set(expected "")
foreach(golden IN LISTS GOLDEN)
  file(READ ${golden} text)
  string(APPEND expected "${text}")
endforeach()
file(READ ${OUT} actual)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "output differs from ${GOLDEN}\n"
                      "--- expected\n${expected}\n--- actual\n${actual}")
endif()
