# Run a command and fail unless its standard output matches a committed
# file byte for byte. Used by ctest for outputs pinned as goldens:
#
#   cmake -DEXPECTED=<file> -DACTUAL=<file> -P CompareOutput.cmake
#         <command> [args...]
#
# On a mismatch the fresh output is left in ACTUAL for diffing.

set(_cmd)
set(_seen_script FALSE)
math(EXPR _last "${CMAKE_ARGC} - 1")
foreach(_i RANGE 1 ${_last})
    if(_seen_script)
        list(APPEND _cmd "${CMAKE_ARGV${_i}}")
    elseif(CMAKE_ARGV${_i} MATCHES "CompareOutput\\.cmake$")
        set(_seen_script TRUE)
    endif()
endforeach()
if(NOT _cmd)
    message(FATAL_ERROR "CompareOutput.cmake: no command given")
endif()

execute_process(COMMAND ${_cmd} OUTPUT_VARIABLE _out RESULT_VARIABLE _rc)
if(NOT _rc EQUAL 0)
    message(FATAL_ERROR "command exited with ${_rc}: ${_cmd}")
endif()
file(READ "${EXPECTED}" _want)
if(NOT _out STREQUAL _want)
    file(WRITE "${ACTUAL}" "${_out}")
    message(FATAL_ERROR "output differs from ${EXPECTED}; "
                        "fresh output left in ${ACTUAL}")
endif()
