# Parallel-runtime gate: runs every example program twice — `hacc -j 1`
# and `hacc -j 8` — and requires byte-identical stdout. The parallel
# evaluator's contract is bit-identical results AND identical ExecStats
# (stores/loads/checks lines) at any thread count, so the full printed
# report must not change. An update without an in-place schedule cannot
# execute and exits 2; both runs must then
# agree on the exit code too. Also runs `-selfcheck -j 8`, which pits the
# 8-thread LIR evaluator against the OpenMP-compiled C kernel. Invoked by
# ctest as
#   cmake -DHACC=<hacc> -DPROGRAMS_DIR=<dir> -P ParSmoke.cmake

foreach(Var HACC PROGRAMS_DIR)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "ParSmoke.cmake needs -D${Var}=...")
  endif()
endforeach()

# Non-recursive on purpose: bad/ holds seeded rule-firing programs.
file(GLOB Programs "${PROGRAMS_DIR}/*.hac")
if(NOT Programs)
  message(FATAL_ERROR "no .hac programs under ${PROGRAMS_DIR}")
endif()

foreach(Program IN LISTS Programs)
  execute_process(
    COMMAND ${HACC} -j 1 ${Program}
    RESULT_VARIABLE SerialRC
    OUTPUT_VARIABLE SerialOut
    ERROR_VARIABLE SerialErr)
  execute_process(
    COMMAND ${HACC} -j 8 ${Program}
    RESULT_VARIABLE ParRC
    OUTPUT_VARIABLE ParOut
    ERROR_VARIABLE ParErr)

  if(NOT SerialRC EQUAL 0 AND NOT SerialRC EQUAL 2)
    message(FATAL_ERROR
      "hacc -j 1 failed on ${Program} (rc=${SerialRC}):\n${SerialErr}")
  endif()
  if(NOT ParRC EQUAL SerialRC)
    message(FATAL_ERROR
      "exit codes diverge on ${Program}: -j 1 gave ${SerialRC}, "
      "-j 8 gave ${ParRC}:\n${ParErr}")
  endif()
  if(NOT ParOut STREQUAL SerialOut)
    message(FATAL_ERROR
      "stdout diverges on ${Program} between -j 1 and -j 8:\n"
      "=== -j 1 ===\n${SerialOut}\n=== -j 8 ===\n${ParOut}")
  endif()

  execute_process(
    COMMAND ${HACC} -selfcheck -j 8 ${Program}
    RESULT_VARIABLE CheckRC
    OUTPUT_VARIABLE CheckOut
    ERROR_VARIABLE CheckErr)
  if(NOT CheckRC EQUAL 0)
    message(FATAL_ERROR
      "hacc -selfcheck -j 8 failed on ${Program} (rc=${CheckRC}):\n"
      "${CheckOut}\n${CheckErr}")
  endif()

  message(STATUS "par ok: ${Program}")
endforeach()
