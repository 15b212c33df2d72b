# Golden lint gate: runs `hacc -analyze -sarif -` over every program in
# the seeded-bad corpus (examples/programs/bad/) and asserts the EXACT
# set of rule IDs that fire. Each program declares its expectation in a
# trailing comment directive:
#
#   -- expect: HAC004 HAC005     the distinct ruleIds that must appear
#   -- expect: none              no rule may fire
#   -- hacc-flags: -Xverify-inject=doall   extra driver flags (optional)
#
# Thread count is pinned to -j 2 so the LIR race checks behave identically on any host (a program's
# -- hacc-flags may override it with its own -j). Invoked by ctest as
#   cmake -DHACC=<hacc> -DBAD_DIR=<dir> -P LintGolden.cmake

foreach(Var HACC BAD_DIR)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "LintGolden.cmake needs -D${Var}=...")
  endif()
endforeach()

file(GLOB Programs "${BAD_DIR}/*.hac")
if(NOT Programs)
  message(FATAL_ERROR "no .hac programs under ${BAD_DIR}")
endif()
list(SORT Programs)

foreach(Program IN LISTS Programs)
  file(READ ${Program} Source)

  string(REGEX MATCH "-- expect:([^\n]*)" _ "${Source}")
  if(NOT CMAKE_MATCH_1)
    message(FATAL_ERROR
      "${Program}: missing '-- expect: <RULES|none>' directive")
  endif()
  string(STRIP "${CMAKE_MATCH_1}" ExpectLine)
  if(ExpectLine STREQUAL "none")
    set(Expected "")
  else()
    separate_arguments(Expected UNIX_COMMAND "${ExpectLine}")
  endif()

  set(ExtraFlags "")
  string(REGEX MATCH "-- hacc-flags:([^\n]*)" _ "${Source}")
  if(CMAKE_MATCH_1)
    string(STRIP "${CMAKE_MATCH_1}" FlagLine)
    separate_arguments(ExtraFlags UNIX_COMMAND "${FlagLine}")
  endif()

  execute_process(
    COMMAND ${HACC} -analyze -sarif - -j 2 ${ExtraFlags}
            ${Program}
    RESULT_VARIABLE RC
    OUTPUT_VARIABLE Sarif
    ERROR_VARIABLE Stderr)
  # Positives exit 1 (error findings); only a missing/failed SARIF
  # document is fatal here — the rule-set comparison is the real gate.
  if(Sarif STREQUAL "")
    message(FATAL_ERROR
      "${Program}: hacc produced no SARIF (rc=${RC}):\n${Stderr}")
  endif()

  string(JSON NumResults LENGTH "${Sarif}" "runs" 0 "results")
  set(Actual "")
  if(NumResults GREATER 0)
    math(EXPR Last "${NumResults} - 1")
    foreach(I RANGE ${Last})
      string(JSON RuleId ERROR_VARIABLE JsonErr
             GET "${Sarif}" "runs" 0 "results" ${I} "ruleId")
      if(NOT JsonErr AND NOT RuleId STREQUAL "")
        list(APPEND Actual ${RuleId})
      endif()
    endforeach()
  endif()
  list(REMOVE_DUPLICATES Actual)
  list(SORT Actual)
  list(SORT Expected)

  if(NOT "${Actual}" STREQUAL "${Expected}")
    message(FATAL_ERROR
      "${Program}: rule set mismatch\n  expected: [${Expected}]\n"
      "  actual:   [${Actual}]\n${Stderr}")
  endif()

  message(STATUS "golden ok: ${Program} [${Actual}]")
endforeach()
