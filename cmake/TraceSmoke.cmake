# Smoke test for `hacc -json`: compiles and runs an example program with
# telemetry enabled and asserts the JSON document carries the stable span
# taxonomy and dependence-test outcome counters (see DESIGN.md
# "Observability"). Then every mode that stops before the run (-dump-deps,
# -dump-lir, -selfcheck, -emit-c) must still write a parseable document
# with the same top-level keys, for the array program and for a module,
# and `-json -` next to a mode that prints to stdout is a usage error.
# Invoked by ctest as
#   cmake -DHACC=<hacc> -DPROGRAM=<file.hac> -DMODULE_PROGRAM=<file.hac>
#         -DOUT=<scratch.json> -P TraceSmoke.cmake

foreach(Var HACC PROGRAM MODULE_PROGRAM OUT)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "TraceSmoke.cmake needs -D${Var}=...")
  endif()
endforeach()

execute_process(
  COMMAND ${HACC} -json ${OUT} ${PROGRAM}
  RESULT_VARIABLE RC
  OUTPUT_VARIABLE Stdout
  ERROR_VARIABLE Stderr)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "hacc -json failed (rc=${RC}):\n${Stdout}\n${Stderr}")
endif()

file(READ ${OUT} Json)

# Phase spans: the compile tree and the runtime execution.
set(ExpectedKeys
  "\"phases\""
  "\"counters\""
  "\"name\": \"compile\""
  "\"name\": \"parse\""
  "\"name\": \"clause-tree\""
  "\"name\": \"depgraph\""
  "\"name\": \"affine-extract\""
  "\"name\": \"dep-tests\""
  "\"name\": \"schedule\""
  "\"name\": \"plan-build\""
  "\"name\": \"execute\""
  "\"ms\": "
  # Dependence-test outcome buckets: always present, even when zero.
  "\"dep.gcd.independent\""
  "\"dep.banerjee.independent\""
  "\"dep.exact.independent\""
  "\"dep.exact.budget_exhausted\""
  "\"dep.assumed.dependent\""
  # Runtime ExecStats folded into the same document.
  "\"exec_stats\""
  "\"exec.stores\""
  "\"stores\": ")

foreach(Key IN LISTS ExpectedKeys)
  string(FIND "${Json}" "${Key}" Pos)
  if(Pos EQUAL -1)
    message(FATAL_ERROR "missing ${Key} in ${OUT}:\n${Json}")
  endif()
endforeach()

foreach(Program ${PROGRAM} ${MODULE_PROGRAM})
  foreach(Mode -dump-deps -dump-lir -selfcheck -emit-c)
    file(REMOVE ${OUT})
    execute_process(
      COMMAND ${HACC} ${Mode} -json ${OUT} ${Program}
      RESULT_VARIABLE RC
      OUTPUT_VARIABLE Stdout
      ERROR_VARIABLE Stderr)
    if(NOT RC EQUAL 0)
      message(FATAL_ERROR
        "hacc ${Mode} -json failed on ${Program} (rc=${RC}):\n${Stderr}")
    endif()
    if(NOT EXISTS ${OUT})
      message(FATAL_ERROR "hacc ${Mode} -json wrote no document for ${Program}")
    endif()
    file(READ ${OUT} Json)
    # string(JSON) raises a FATAL_ERROR itself on malformed input or a
    # missing key.
    foreach(Key file mode thunkless threads analysis jit trace)
      string(JSON Unused GET "${Json}" ${Key})
    endforeach()
    string(JSON Unused GET "${Json}" trace phases)
    string(JSON Unused GET "${Json}" trace counters dep.gcd.independent)
  endforeach()
  message(STATUS "json ok: ${Program}")
endforeach()

foreach(Mode -dump-deps -dump-module)
  execute_process(
    COMMAND ${HACC} ${Mode} -json - ${MODULE_PROGRAM}
    RESULT_VARIABLE RC
    OUTPUT_VARIABLE Stdout
    ERROR_VARIABLE Stderr)
  if(NOT RC EQUAL 1 OR NOT Stdout STREQUAL "")
    message(FATAL_ERROR
      "hacc ${Mode} -json - must be a usage error (rc=${RC}):\n${Stdout}")
  endif()
endforeach()
