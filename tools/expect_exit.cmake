# Runs the command given after `--` and passes when it exits with EXIT and
# its stdout or stderr matches EXPECT. A PASS_REGULAR_EXPRESSION alone
# would ignore the exit code.
#
#   cmake -DEXIT=2 "-DEXPECT=--shard applies to --batch only"
#         -P tools/expect_exit.cmake -- build/tools/rmrls --shard 1/2 ...
set(cmd)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
execute_process(COMMAND ${cmd}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL EXIT OR NOT "${out}${err}" MATCHES "${EXPECT}")
  list(JOIN cmd " " shown)
  message(FATAL_ERROR "${shown}\nexited ${rc}, expected ${EXIT}:\n${out}${err}")
endif()
