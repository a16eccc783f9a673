# Check one bench artifact (run with `cmake -P`): rerun the command that
# produces it, require `tsx_report` to find no broken invariant in it and,
# given a committed baseline, require it to be byte-identical. Virtual time
# makes every run deterministic across hosts, so any difference is a model
# change; a mismatch prints `tsx_report --diff` to say what moved.
#
#   cmake [-DBASELINE=<committed file>] -DOUT=<fresh artifact>
#         -DREPORT=<tsx_report binary> -DCOMMAND=<cmd|arg|...>
#         -P baseline_check.cmake
#
# COMMAND is '|'-separated so it survives as a single -D value.
foreach(var OUT REPORT COMMAND)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "baseline_check: -D${var}= is required")
  endif()
endforeach()

string(REPLACE "|" ";" cmd "${COMMAND}")
file(REMOVE "${OUT}")
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_VARIABLE log
                ERROR_VARIABLE log)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "producing command failed (${rc}):\n${log}")
endif()

# The invariant registry runs first, so a regenerated baseline is checked
# too. Only the "!!" finding lines are echoed, not the whole report.
execute_process(COMMAND "${REPORT}" "${OUT}" RESULT_VARIABLE rc
                OUTPUT_VARIABLE report ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  string(REGEX MATCHALL "[^\n]*!![^\n]*" findings "${report}")
  list(JOIN findings "\n" findings)
  message(FATAL_ERROR "tsx_report ${OUT} exited ${rc}:\n${err}${findings}")
endif()

if(NOT DEFINED BASELINE)
  return()
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${BASELINE}"
                        "${OUT}"
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  execute_process(COMMAND "${REPORT}" --diff "${BASELINE}" "${OUT}")
  message(FATAL_ERROR
    "${OUT} is not byte-identical to ${BASELINE}.\n"
    "If the model change is intended and announced, regenerate the "
    "baseline by copying the fresh artifact over it.")
endif()
