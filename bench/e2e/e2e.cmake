# Build file of the full-MD-step benchmark. run.py configures the repository
# with -DCMAKE_PROJECT_INCLUDE=<this file>, so CMake reads it right after the
# top-level project() call. The harness target is defined at the end of the
# top-level CMakeLists instead: by then every library exists and the
# repository's language settings are in force, so e2e_anatomy compiles with
# the same flags and options as apps/dpmd.
include_guard(GLOBAL)

function(dp_e2e_add_anatomy)
  add_executable(e2e_anatomy "${CMAKE_CURRENT_FUNCTION_LIST_DIR}/anatomy.cpp")
  target_link_libraries(e2e_anatomy PRIVATE dp_fused dp_parallel dp_build_flags)
  set_target_properties(e2e_anatomy PROPERTIES RUNTIME_OUTPUT_DIRECTORY
                                               "${CMAKE_BINARY_DIR}/bench/e2e")
endfunction()

cmake_language(DEFER CALL dp_e2e_add_anatomy)
