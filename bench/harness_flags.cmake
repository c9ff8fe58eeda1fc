# bench_shared_flags: runs one table harness with the shared search flags
# `--dense-threshold 0 --no-history` and requires its JSONL record to show
# both took effect: the sparse kernel ran (`"dense_kernel":false`) and no
# candidate got a history bonus (`"history_hits":0`). A harness that parses
# the flags but builds its options without them records the defaults.
#
#   cmake -DBENCH=<table2_random4> -DOUT=<record file>
#         -P harness_flags.cmake
execute_process(COMMAND ${BENCH} --samples 1 --dense-threshold 0
                        --no-history --json ${OUT}
                OUTPUT_QUIET
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited ${rc}")
endif()
file(READ ${OUT} record)
foreach(want "\"dense_kernel\":false" "\"history_hits\":0[,}]")
  if(NOT record MATCHES "${want}")
    message(FATAL_ERROR "${OUT} lacks ${want}:\n${record}")
  endif()
endforeach()
