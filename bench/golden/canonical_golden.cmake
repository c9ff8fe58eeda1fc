# canonical_golden: runs the canonical_golden printer, which writes
# canonicalize()'s key, wire relabeling and inversion flag for seeded specs
# at n = 3..12 (random permutations, NCT cascades, hwb, prime multipliers,
# identity, tof_n, NOT on one wire and on all wires, and two orbit members
# of each), and requires the output to equal the committed golden file
# byte for byte.
#
#   cmake -DPRINTER=<canonical_golden> -DOUT=<output file>
#         [-DGOLDEN=<golden file>] -P canonical_golden.cmake
#
# Without GOLDEN the script only writes OUT. A key names a cache entry on
# disk and decides which representative a miss synthesizes, so a change
# that moves keys or transforms on purpose regenerates the golden file that
# way (`-DOUT=bench/golden/canonical_golden.txt`) and says so.
execute_process(COMMAND ${PRINTER}
                OUTPUT_FILE ${OUT}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "canonical_golden failed: ${rc}")
endif()
if(DEFINED GOLDEN)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${OUT} differs from ${GOLDEN}")
  endif()
endif()
