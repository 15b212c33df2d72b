# JIT gate: every example program must print byte-identical output under
# the interpreter and under `-jit=sync` (native kernels hot-swapped in for
# every letrec binding), and a second -jit=sync run against the same cache
# directory must hit the disk cache instead of re-invoking cc. The cache
# lives in an isolated directory under the build tree via HAC_JIT_CACHE so
# the gate never touches (or depends on) the user's ~/.cache. Every
# program kind runs, updates on their deterministic start array; programs
# that fall back to the thunked interpreter contribute no kernels.
# Invoked by ctest as
#   cmake -DHACC=<hacc> -DPROGRAMS_DIR=<dir> -DCACHE_DIR=<dir> -P JitSmoke.cmake

foreach(Var HACC PROGRAMS_DIR CACHE_DIR)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "JitSmoke.cmake needs -D${Var}=...")
  endif()
endforeach()

# Start cold: a stale cache would hide keying regressions that miss the
# disk on every run.
file(REMOVE_RECURSE ${CACHE_DIR})

# Non-recursive on purpose: bad/ holds seeded rule-firing programs.
file(GLOB Programs "${PROGRAMS_DIR}/*.hac" "${PROGRAMS_DIR}/multi/*.hac")
if(NOT Programs)
  message(FATAL_ERROR "no .hac programs under ${PROGRAMS_DIR}")
endif()

foreach(Program IN LISTS Programs)
  execute_process(
    COMMAND ${HACC} ${Program}
    RESULT_VARIABLE InterpRC
    OUTPUT_VARIABLE InterpOut
    ERROR_VARIABLE InterpErr)
  if(NOT InterpRC EQUAL 0)
    message(FATAL_ERROR
      "hacc failed on ${Program} (rc=${InterpRC}):\n${InterpOut}\n${InterpErr}")
  endif()

  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env HAC_JIT_CACHE=${CACHE_DIR}
      ${HACC} -jit=sync ${Program}
    RESULT_VARIABLE JitRC
    OUTPUT_VARIABLE JitOut
    ERROR_VARIABLE JitErr)
  if(NOT JitRC EQUAL 0)
    message(FATAL_ERROR
      "hacc -jit=sync failed on ${Program} (rc=${JitRC}):\n${JitOut}\n${JitErr}")
  endif()

  if(NOT InterpOut STREQUAL JitOut)
    message(FATAL_ERROR
      "native kernel output differs from interpreter on ${Program}:\n"
      "--- interpreter ---\n${InterpOut}\n--- -jit=sync ---\n${JitOut}")
  endif()

  message(STATUS "jit ok: ${Program}")
endforeach()

# Warm rerun: the cache directory is now populated, so a second -jit=sync
# pass over a kernel-bearing program must report disk cache hits and no
# fresh compiles in the -json telemetry.
set(WarmProgram ${PROGRAMS_DIR}/sec5_example1.hac)
if(NOT EXISTS ${WarmProgram})
  list(GET Programs 0 WarmProgram)
endif()

set(WarmJson ${CACHE_DIR}/warm_telemetry.json)
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env HAC_JIT_CACHE=${CACHE_DIR}
    ${HACC} -jit=sync -json ${WarmJson} ${WarmProgram}
  RESULT_VARIABLE WarmRC
  OUTPUT_VARIABLE WarmStdout
  ERROR_VARIABLE WarmErr)
if(NOT WarmRC EQUAL 0)
  message(FATAL_ERROR
    "warm-cache hacc -jit=sync -json failed on ${WarmProgram} "
    "(rc=${WarmRC}):\n${WarmStdout}\n${WarmErr}")
endif()
file(READ ${WarmJson} WarmOut)

if(NOT WarmOut MATCHES "\"cache_hits\": *([1-9][0-9]*)")
  message(FATAL_ERROR
    "warm-cache rerun of ${WarmProgram} reported no jit cache hits — "
    "the disk cache is not being reused:\n${WarmOut}")
endif()
if(NOT WarmOut MATCHES "\"compiles\": *0")
  message(FATAL_ERROR
    "warm-cache rerun of ${WarmProgram} still invoked cc — "
    "expected \"compiles\": 0 in the telemetry:\n${WarmOut}")
endif()

message(STATUS "jit warm cache ok: ${WarmProgram}")
