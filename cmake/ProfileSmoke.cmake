# Profiler gate: runs `hacc -profile -timeline <out> -j 2` over every
# example program and asserts (a) the run succeeds, (b) the hot-loop
# table appears on stderr with per-loop rows for every program the LIR
# evaluator executed, and (c) the timeline file parses as Chrome
# trace-event JSON with a nonempty traceEvents array. Programs that fall
# back to the thunked interpreter legitimately profile zero LIR loops and
# are exempt from the row check. Invoked by ctest as
#   cmake -DHACC=<hacc> -DPROGRAMS_DIR=<dir> -DOUT_DIR=<dir> -P ProfileSmoke.cmake

foreach(Var HACC PROGRAMS_DIR OUT_DIR)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "ProfileSmoke.cmake needs -D${Var}=...")
  endif()
endforeach()

# Non-recursive on purpose: bad/ holds seeded rule-firing programs.
file(GLOB Programs "${PROGRAMS_DIR}/*.hac")
if(NOT Programs)
  message(FATAL_ERROR "no .hac programs under ${PROGRAMS_DIR}")
endif()

foreach(Program IN LISTS Programs)
  get_filename_component(Stem ${Program} NAME_WE)

  set(Timeline "${OUT_DIR}/profile_smoke_${Stem}.json")
  execute_process(
    COMMAND ${HACC} -profile -timeline ${Timeline} -j 2 ${Program}
    RESULT_VARIABLE RC
    OUTPUT_VARIABLE Stdout
    ERROR_VARIABLE Stderr)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR
      "hacc -profile failed on ${Program} (rc=${RC}):\n${Stdout}\n${Stderr}")
  endif()

  # The hot-loop table goes to stderr. Every program the LIR evaluator
  # ran must produce at least one attributed loop row; only a fallback
  # to the thunked interpreter may profile nothing.
  if(NOT Stderr MATCHES "=== profile ===")
    message(FATAL_ERROR
      "${Program}: no profile table on stderr:\n${Stderr}")
  endif()
  if(Stderr MATCHES "no LIR loops executed")
    if(NOT Stdout MATCHES "falling back" AND NOT Stderr MATCHES "falling back")
      message(FATAL_ERROR
        "${Program}: executed via LIR but profiled no loops:\n${Stderr}")
    endif()
    message(STATUS "profile ok: ${Program} (interpreter fallback)")
  else()
    if(NOT Stderr MATCHES "profiled [1-9][0-9]* loops")
      message(FATAL_ERROR
        "${Program}: missing per-loop summary line:\n${Stderr}")
    endif()
  endif()

  # The timeline must be valid JSON with a nonempty traceEvents array
  # (the pipeline lane is always present). string(JSON) raises a
  # FATAL_ERROR itself on malformed input.
  if(NOT EXISTS ${Timeline})
    message(FATAL_ERROR "${Program}: timeline ${Timeline} not written")
  endif()
  file(READ ${Timeline} Trace)
  string(JSON NumEvents LENGTH "${Trace}" "traceEvents")
  if(NumEvents LESS 1)
    message(FATAL_ERROR "${Program}: empty traceEvents in ${Timeline}")
  endif()
  string(JSON Ph GET "${Trace}" "traceEvents" 0 "ph")
  if(NOT Ph STREQUAL "M")
    message(FATAL_ERROR
      "${Program}: expected thread_name metadata first, got ph=${Ph}")
  endif()

  if(NOT Stderr MATCHES "no LIR loops executed")
    message(STATUS "profile ok: ${Program} (${NumEvents} timeline events)")
  endif()
endforeach()
