# pelta_add_test(<name> LABEL <unit|integration|property> [<extra>...]
#                TIMEOUT <sec> [PER_BINARY])
#
# Builds tests/<name>.cpp into a gtest binary linked against pelta::pelta
# and registers it with CTest. By default individual cases are discovered
# via gtest_discover_tests so `ctest -j` parallelises across cases. Pass
# PER_BINARY for fixture-heavy suites: the whole binary registers as one
# CTest test, so per-case process spawns don't re-pay expensive setup
# (training tiny victim models) 5-20x over — this is what keeps
# `ctest -L unit` a sub-minute inner loop on a single core.
#
# LABEL takes the primary label plus optional extras (e.g. `concurrency`,
# which scopes the ThreadSanitizer CI leg to the pool/async suites).
function(pelta_add_test name)
  cmake_parse_arguments(ARG "PER_BINARY" "TIMEOUT" "LABEL" ${ARGN})
  if(NOT ARG_LABEL OR NOT ARG_TIMEOUT)
    message(FATAL_ERROR "pelta_add_test(${name}) requires LABEL and TIMEOUT")
  endif()

  add_executable(${name} ${name}.cpp)
  target_link_libraries(${name} PRIVATE pelta::pelta GTest::gtest_main pelta_build_flags)

  # Sanitized and --coverage (Debug, gcov-counting) builds run ~10x slower;
  # scale the timeouts, don't fail on them. A coverage run killed at its
  # timeout never writes its .gcda counters.
  if(PELTA_SANITIZE OR CMAKE_CXX_FLAGS MATCHES "--coverage")
    math(EXPR ARG_TIMEOUT "${ARG_TIMEOUT} * 10")
  endif()

  if(ARG_PER_BINARY)
    add_test(NAME ${name} COMMAND ${name})
    set_tests_properties(${name} PROPERTIES LABELS "${ARG_LABEL}" TIMEOUT ${ARG_TIMEOUT})
  else()
    # The discovery script re-splits its PROPERTIES on every `;`, so a
    # label list cannot pass through it. A second CTest include, read after
    # the discovery include has defined ${name}_TESTS, sets the labels.
    gtest_discover_tests(${name}
      PROPERTIES TIMEOUT ${ARG_TIMEOUT}
      DISCOVERY_TIMEOUT 60)
    set(labels_file "${CMAKE_CURRENT_BINARY_DIR}/${name}_labels.cmake")
    file(WRITE "${labels_file}"
      "if(DEFINED ${name}_TESTS)\n"
      "  set_tests_properties(\${${name}_TESTS} PROPERTIES LABELS \"${ARG_LABEL}\")\n"
      "endif()\n")
    set_property(DIRECTORY APPEND PROPERTY TEST_INCLUDE_FILES "${labels_file}")
  endif()
endfunction()
