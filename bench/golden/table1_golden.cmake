# table1_golden: runs `table1_all3var --samples 300` and requires its stdout
# (the Table I histogram, which carries no timings) to equal the committed
# golden file byte for byte, so a change of circuits cannot go unnoticed.
#
#   cmake -DBENCH=<table1_all3var> -DOUT=<output file> -DGOLDEN=<golden file>
#         -P table1_golden.cmake
#
# A change that alters circuits on purpose regenerates the golden file
# (`table1_all3var --samples 300 > bench/golden/table1_all3var_samples300.txt`)
# and says so.
execute_process(COMMAND ${BENCH} --samples 300
                OUTPUT_FILE ${OUT}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "table1_all3var --samples 300 failed: ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from ${GOLDEN}")
endif()
