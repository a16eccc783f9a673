# Run one command and check what it did (run with `cmake -P`): it exits RC
# (default 0); its stderr matches STDERR and its stdout STDOUT when given,
# and with EMPTY_STDOUT it prints nothing on stdout; the page an
# --html=<page> argument names matches PAGE_MATCH and not PAGE_REJECT.
# A usage error is RC=2 with a STDERR message: neither a silent exit 0 nor
# a crash passes.
#
#   cmake [-DRC=<code>] [-DSTDERR=<regex>] [-DSTDOUT=<regex>]
#         [-DEMPTY_STDOUT=ON] [-DPAGE_MATCH=<regex>] [-DPAGE_REJECT=<regex>]
#         -DCOMMAND=<cmd|arg|...> -P command_check.cmake
#
# COMMAND is '|'-separated so it survives as a single -D value.
string(REPLACE "|" ";" cmd "${COMMAND}")
if(NOT DEFINED RC)
  set(RC 0)
endif()
if("${COMMAND}" MATCHES "--html=([^|]*)")
  set(page "${CMAKE_MATCH_1}")
  file(REMOVE "${page}")
endif()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "${RC}")
  message(FATAL_ERROR "expected exit ${RC}, got '${rc}'; stderr:\n${err}")
endif()
if(DEFINED STDERR AND NOT err MATCHES "${STDERR}")
  message(FATAL_ERROR "stderr does not match '${STDERR}':\n${err}")
endif()
if(DEFINED STDOUT AND NOT out MATCHES "${STDOUT}")
  message(FATAL_ERROR "stdout does not match '${STDOUT}':\n${out}")
endif()
if(EMPTY_STDOUT AND NOT out STREQUAL "")
  message(FATAL_ERROR "expected no stdout, got:\n${out}")
endif()
if(DEFINED PAGE_MATCH)
  file(READ "${page}" text)
  if(NOT text MATCHES "${PAGE_MATCH}")
    message(FATAL_ERROR "${page} does not match '${PAGE_MATCH}'")
  endif()
  if(DEFINED PAGE_REJECT AND text MATCHES "${PAGE_REJECT}")
    message(FATAL_ERROR "${page} matches '${PAGE_REJECT}'")
  endif()
endif()
