# Exact gate for one committed baseline (run with `cmake -P`): rerun the
# command that produced it and require the fresh artifact to be
# byte-identical. Virtual time makes every run deterministic across hosts,
# so any difference is a model change. On a mismatch the script prints
# `tsx_report --diff` so the failure says what moved.
#
#   cmake -DBASELINE=<committed file> -DOUT=<fresh artifact>
#         -DREPORT=<tsx_report binary> -DCOMMAND=<cmd|arg|...>
#         -P baseline_check.cmake
#
# COMMAND is '|'-separated so it survives as a single -D value.
foreach(var BASELINE OUT REPORT COMMAND)
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
