# Included (deferred) by build.cmake in the root directory scope.
add_executable(aeq_bench ${dir}/aeq_bench.cc)
target_link_libraries(aeq_bench PRIVATE aeq_runner aeq_workload aeq_sim)
