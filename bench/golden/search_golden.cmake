# search_golden: runs `rmrls --tfc` on a few named benchmarks beyond n = 3,
# four of them at `--tt-mb 1`, where the transposition table fills and
# evicts, plus one `--resilient` run. It writes each circuit (stdout, .tfc)
# under its command line, followed by the run's summary line from stderr
# with the wall time removed, and requires the result to equal the
# committed golden file byte for byte.
#
#   cmake -DRMRLS=<rmrls> -DOUT=<output file> [-DGOLDEN=<golden file>]
#         -P search_golden.cmake
#
# Without GOLDEN the script only writes OUT. A change that alters circuits
# or node counts on purpose regenerates the golden file that way
# (`-DOUT=bench/golden/search_golden.txt`) and says so.
set(runs
  "--benchmark 4_49 --tt-mb 1"
  "--benchmark hwb4 --tt-mb 1"
  "--benchmark rd53 --tt-mb 1"
  "--benchmark mod5adder --tt-mb 1"
  "--benchmark rd32"
  "--benchmark 5mod5 --tt-mb 1 --resilient")
file(WRITE ${OUT} "")
foreach(run IN LISTS runs)
  separate_arguments(args UNIX_COMMAND "${run} --tfc")
  execute_process(COMMAND ${RMRLS} ${args}
                  OUTPUT_VARIABLE circuit
                  ERROR_VARIABLE summary
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "rmrls ${run} --tfc failed: ${rc}\n${summary}")
  endif()
  string(REGEX REPLACE "  time: [0-9]+ us" "" summary "${summary}")
  file(APPEND ${OUT} "# rmrls ${run} --tfc\n${circuit}${summary}")
endforeach()
if(DEFINED GOLDEN)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${OUT} differs from ${GOLDEN}")
  endif()
endif()
