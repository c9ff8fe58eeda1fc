# Passes when `${BIN} --help` exits 0 with a `usage:` line on stdout.
# A PASS_REGULAR_EXPRESSION alone would ignore the exit code, and an
# unknown-argument error prints the same help to stderr with exit 2.
#
#   cmake -DBIN=build/tools/rmrls-serve -P tools/help_smoke.cmake
execute_process(COMMAND ${BIN} --help
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} --help exited ${rc}:\n${err}")
endif()
if(NOT out MATCHES "(^|\n)usage: ")
  message(FATAL_ERROR "${BIN} --help printed no usage: line on stdout:\n${out}")
endif()
