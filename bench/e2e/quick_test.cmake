# bench_e2e_quick: runs rmrls_bench --quick untraced and traced, and fails
# unless both runs pass the oracle and every workload reports every metric
# BENCHMARK.json names (end_to_end untraced, per_layer traced). A second
# untraced run, on another seed, must reproduce gates_mean and
# quantum_cost_mean digit for digit: they are taken over reference jobs that
# are the same for every seed, and BENCHMARK.json gates them exactly.
#
#   cmake -DBENCH=<rmrls_bench> -DWORK=<scratch dir> -P quick_test.cmake
cmake_minimum_required(VERSION 3.19)

get_filename_component(root ${CMAKE_CURRENT_LIST_DIR}/../.. ABSOLUTE)
file(READ ${root}/BENCHMARK.json spec)
string(JSON workloads LENGTH "${spec}" workloads)
math(EXPR last_w "${workloads} - 1")

# Runs rmrls_bench --quick and leaves its --json output in `${name}`.
function(run_quick name)
  set(out ${WORK}/quick-${name}.json)
  execute_process(
    COMMAND ${BENCH} --quick ${ARGN} --work-dir ${WORK} --json ${out}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "rmrls_bench --quick ${ARGN} exited ${rc}")
  endif()
  file(READ ${out} result)
  set(${name} "${result}" PARENT_SCOPE)
endfunction()

run_quick(untraced --trace 0 --seed 1)
run_quick(traced --trace 1 --seed 1)
run_quick(rerun --trace 0 --seed 2)

foreach(list end_to_end per_layer)
  if(list STREQUAL end_to_end)
    set(result "${untraced}")
  else()
    set(result "${traced}")
  endif()
  string(JSON metrics LENGTH "${spec}" ${list})
  math(EXPR last_m "${metrics} - 1")
  foreach(w RANGE ${last_w})
    string(JSON workload GET "${spec}" workloads ${w} name)
    foreach(m RANGE ${last_m})
      string(JSON metric GET "${spec}" ${list} ${m} name)
      string(JSON value ERROR_VARIABLE missing
             GET "${result}" workloads ${workload} metrics ${metric} value)
      if(missing)
        message(FATAL_ERROR "${workload}: no ${metric} in the ${list} run")
      endif()
    endforeach()
  endforeach()
endforeach()

foreach(w RANGE ${last_w})
  string(JSON workload GET "${spec}" workloads ${w} name)
  foreach(metric gates_mean quantum_cost_mean)
    string(JSON a GET "${untraced}" workloads ${workload} metrics ${metric} value)
    string(JSON b GET "${rerun}" workloads ${workload} metrics ${metric} value)
    if(NOT a STREQUAL b)
      message(FATAL_ERROR "${workload}: ${metric} ${a} (seed 1) != ${b} (seed 2)")
    endif()
  endforeach()
endforeach()
message(STATUS "bench_e2e_quick: every workload reports every metric, "
               "and quality reproduces exactly")
