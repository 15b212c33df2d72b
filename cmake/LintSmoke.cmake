# CI lint gate: runs `hacc -analyze -sarif -` over every example program
# and asserts (a) the verifier reports no error-severity findings and (b)
# the emitted SARIF parses as JSON with the expected 2.1.0 shell. The
# seeded-bad corpus under examples/programs/bad/ is deliberately outside
# the glob — those programs exist to fire rules (tests/verify_test.cpp
# pins them). Invoked by ctest as
#   cmake -DHACC=<hacc> -DPROGRAMS_DIR=<dir> -P LintSmoke.cmake

foreach(Var HACC PROGRAMS_DIR)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "LintSmoke.cmake needs -D${Var}=...")
  endif()
endforeach()

# Non-recursive on purpose: bad/ must not be linted.
file(GLOB Programs "${PROGRAMS_DIR}/*.hac")
if(NOT Programs)
  message(FATAL_ERROR "no .hac programs under ${PROGRAMS_DIR}")
endif()

foreach(Program IN LISTS Programs)
  execute_process(
    COMMAND ${HACC} -analyze -sarif - ${Program}
    RESULT_VARIABLE RC
    OUTPUT_VARIABLE Sarif
    ERROR_VARIABLE Stderr)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR
      "hacc -analyze found errors in ${Program} (rc=${RC}):\n${Stderr}")
  endif()

  # The output must be valid JSON with the SARIF 2.1.0 shell. string(JSON)
  # raises a FATAL_ERROR itself on malformed input.
  string(JSON Version GET "${Sarif}" "version")
  if(NOT Version STREQUAL "2.1.0")
    message(FATAL_ERROR "${Program}: unexpected SARIF version ${Version}")
  endif()
  string(JSON Driver GET "${Sarif}" "runs" 0 "tool" "driver" "name")
  if(NOT Driver STREQUAL "hac-verify")
    message(FATAL_ERROR "${Program}: unexpected SARIF driver ${Driver}")
  endif()
  string(JSON NumRules LENGTH "${Sarif}" "runs" 0 "tool" "driver" "rules")
  if(NumRules LESS 7)
    message(FATAL_ERROR "${Program}: rule table truncated (${NumRules})")
  endif()

  # No error-severity results may survive on the good corpus.
  string(JSON NumResults LENGTH "${Sarif}" "runs" 0 "results")
  math(EXPR Last "${NumResults} - 1")
  if(NumResults GREATER 0)
    foreach(I RANGE ${Last})
      string(JSON Level GET "${Sarif}" "runs" 0 "results" ${I} "level")
      if(Level STREQUAL "error")
        string(JSON Msg GET "${Sarif}" "runs" 0 "results" ${I}
               "message" "text")
        message(FATAL_ERROR "${Program}: error finding: ${Msg}")
      endif()
    endforeach()
  endif()

  message(STATUS "lint ok: ${Program} (${NumResults} findings)")
endforeach()
