# Build hook for the benchmark program. Pass it to the repository's own
# CMake project without editing it:
#
#   cmake -S . -B <dir> -DCMAKE_PROJECT_aequitas_INCLUDE=$PWD/benchmark/build.cmake
#
# CMake includes this file at the end of the root project() call, before
# src/ exists as targets, so the target definitions are deferred to the end
# of the root directory. A deferred add_subdirectory is a CMake error, hence
# a deferred include: targets.cmake then runs in the root directory scope
# and inherits exactly the compile options and definitions that perf_probe
# and every other repository binary get.
set(dir ${CMAKE_CURRENT_LIST_DIR})
cmake_language(DEFER DIRECTORY ${CMAKE_SOURCE_DIR} CALL include ${dir}/targets.cmake)
