# Runs `${EXE} ${PREFIX} <arg>` for every argument below and fails unless
# each run exits 2, the tools' usage-error code.  With FLAG the arguments
# are `${FLAG}=<value>` for every malformed number below (plus the
# optional ;-list ${EXTRA}); without it they are the ;-list ${ARGS}.
#
#   cmake -DEXE=<tool> [-DPREFIX=<subcommand>] -DFLAG=--seed [-DEXTRA=...]
#         -P expect_usage_error.cmake
#   cmake -DEXE=<tool> [-DPREFIX=<subcommand>] "-DARGS=--a;--b=1"
#         -P expect_usage_error.cmake
if(FLAG)
  set(ARGS "${FLAG}=")  # the empty value is not a CMake list item
  foreach(value -1 +5 abc 10x 0x 1e3 " 7" 18446744073709551616 ${EXTRA})
    list(APPEND ARGS "${FLAG}=${value}")
  endforeach()
endif()
foreach(arg IN LISTS ARGS)
  execute_process(COMMAND "${EXE}" ${PREFIX} "${arg}"
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${EXE} ${PREFIX} ${arg}: exit ${rc}, expected 2\n${err}")
  endif()
endforeach()
