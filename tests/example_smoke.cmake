# Smoke test of one example binary: run EXE with no arguments, require exit
# status 0 and a line of its standard output containing EXPECT.
#   cmake -DEXE=<binary> "-DEXPECT=<text>" -P example_smoke.cmake
execute_process(COMMAND ${EXE}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${rc}\n${out}\n${err}")
endif()
string(FIND "${out}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${EXE} printed no line with '${EXPECT}':\n${out}")
endif()
