# Runs one example program twice: as given, which must exit 0, and with a
# flag no example reads, which must exit 2 (a usage error, not a run with
# the defaults). ctest calls it as
#   cmake -DEXAMPLE=<example binary> -P tests/run_example.cmake
execute_process(COMMAND "${EXAMPLE}"
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited ${code}, want 0:\n${out}")
endif()
execute_process(COMMAND "${EXAMPLE}" --no-such-flag
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "${EXAMPLE} --no-such-flag exited ${code}, want 2:\n${out}")
endif()
