# A bad command line must be a usage error (run with `cmake -P`): the
# command exits 2 and its stderr matches EXPECT. Neither a silent exit 0
# nor a crash passes.
#
#   cmake -DEXPECT=<regex> -DCOMMAND=<cmd|arg|...> -P usage_error_check.cmake
#
# COMMAND is '|'-separated so it survives as a single -D value.
string(REPLACE "|" ";" cmd "${COMMAND}")
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "expected exit 2, got '${rc}'; stderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "stderr does not match '${EXPECT}':\n${err}")
endif()
