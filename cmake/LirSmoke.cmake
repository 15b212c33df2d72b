# Loop-IR gate: runs `hacc -dump-lir -selfcheck` over every example
# program. -dump-lir lowers each program to LIR, runs the optimization
# passes, and fails on verifier errors; -selfcheck then executes both the
# LIR evaluator and the cc-compiled C kernel and requires bit-identical
# results. Programs that fall back to thunked evaluation print a note and
# exit 0 — the gate is about the compiled path agreeing with itself, not
# about every program being compilable. Every program that does compile
# must also print its C with `hacc -emit-c` (exit 0, a two-argument
# hac_kernel wrapper in the output). Invoked by ctest as
#   cmake -DHACC=<hacc> -DPROGRAMS_DIR=<dir> -P LirSmoke.cmake

foreach(Var HACC PROGRAMS_DIR)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "LirSmoke.cmake needs -D${Var}=...")
  endif()
endforeach()

# Non-recursive on purpose: bad/ holds seeded rule-firing programs.
file(GLOB Programs "${PROGRAMS_DIR}/*.hac")
if(NOT Programs)
  message(FATAL_ERROR "no .hac programs under ${PROGRAMS_DIR}")
endif()

foreach(Program IN LISTS Programs)
  execute_process(
    COMMAND ${HACC} -dump-lir -selfcheck ${Program}
    RESULT_VARIABLE RC
    OUTPUT_VARIABLE Stdout
    ERROR_VARIABLE Stderr)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR
      "hacc -dump-lir -selfcheck failed on ${Program} (rc=${RC}):\n"
      "${Stdout}\n${Stderr}")
  endif()

  if(NOT Stdout MATCHES "nothing to lower")
    execute_process(
      COMMAND ${HACC} -emit-c ${Program}
      RESULT_VARIABLE EmitRC
      OUTPUT_VARIABLE EmitOut
      ERROR_VARIABLE EmitErr)
    if(NOT EmitRC EQUAL 0 OR NOT EmitOut MATCHES "int hac_kernel\\(double")
      message(FATAL_ERROR
        "hacc -emit-c failed on ${Program} (rc=${EmitRC}):\n"
        "${EmitOut}\n${EmitErr}")
    endif()
  endif()

  message(STATUS "lir ok: ${Program}")
endforeach()
