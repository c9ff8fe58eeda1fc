# cli_cache_wrong_width: a cached circuit whose width differs from the
# spec's (a corrupt store entry, or a 64-bit key collision across widths)
# must degrade to a miss, as a failed verification does. The script stores
# a 4-line spec's circuit in a fresh --cache-dir, overwrites that entry
# with a valid 3-line circuit, and requires a single-shot rerun and then a
# two-thread --batch run (that spec plus Fig. 1's) to exit 0 with their
# circuits.
#
#   cmake -DRMRLS=<rmrls> -DDIR=<scratch directory> -P cache_wrong_width.cmake
set(spec "{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 14}")
set(three_lines ".v a,b,c\n.i a,b,c\n.o a,b,c\nBEGIN\nt1 a\nEND\n")
file(REMOVE_RECURSE ${DIR})

function(run_rmrls expect)
  execute_process(COMMAND ${RMRLS} ${ARGN}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0 OR NOT "${out}${err}" MATCHES "${expect}")
    message(FATAL_ERROR "rmrls ${ARGN} exited ${rc}\n${out}${err}")
  endif()
endfunction()

function(corrupt_store)
  file(GLOB entries ${DIR}/*.tfc)
  if(NOT entries)
    message(FATAL_ERROR "no cache entry written under ${DIR}")
  endif()
  foreach(entry IN LISTS entries)
    file(WRITE ${entry} "${three_lines}")
  endforeach()
endfunction()

run_rmrls("BEGIN" --perm "${spec}" --cache-dir ${DIR} --tfc)
corrupt_store()
run_rmrls("\\.v a,b,c,d\n.*END" --perm "${spec}" --cache-dir ${DIR} --tfc)

corrupt_store()
file(WRITE ${DIR}.specs "${spec}\n{1, 0, 7, 2, 3, 4, 5, 6}\n")
run_rmrls("specs:1: TOF4.*2 jobs, 2 ok, 0 failed"
          --batch ${DIR}.specs --cache-dir ${DIR} --threads 2)
