# benchmarks_golden: runs `rmrls --benchmark NAME --tfc` at the defaults on
# every name that `rmrls --list` prints. It writes each run's exit code and
# circuit (stdout, .tfc) under its command line, followed by its stderr
# with the wall time removed, and requires the result to equal the
# committed golden file byte for byte. A run that exits non-zero (ham7
# exhausts the default node budget) is recorded, not treated as a failure.
#
#   cmake -DRMRLS=<rmrls> -DOUT=<output file> [-DGOLDEN=<golden file>]
#         -P benchmarks_golden.cmake
#
# Without GOLDEN the script only writes OUT. A change that alters circuits,
# node counts or exit codes on purpose regenerates the golden file that way
# (`-DOUT=bench/golden/benchmarks_golden.txt`) and says so.
execute_process(COMMAND ${RMRLS} --list
                OUTPUT_VARIABLE listing
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "rmrls --list failed: ${rc}")
endif()
string(REGEX MATCHALL "[^\n]+" names "${listing}")
file(WRITE ${OUT} "")
foreach(name IN LISTS names)
  execute_process(COMMAND ${RMRLS} --benchmark ${name} --tfc
                  OUTPUT_VARIABLE circuit
                  ERROR_VARIABLE summary
                  RESULT_VARIABLE rc)
  string(REGEX REPLACE "  time: [0-9]+ us" "" summary "${summary}")
  file(APPEND ${OUT}
       "# rmrls --benchmark ${name} --tfc\n# exit ${rc}\n${circuit}${summary}")
endforeach()
if(DEFINED GOLDEN)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${OUT} differs from ${GOLDEN}")
  endif()
endif()
