# Runs `${EXE} ${PREFIX} ${FLAG}=<value>` for every malformed number below
# (plus the optional ;-list ${EXTRA}) and fails unless each run exits 2,
# the tools' usage-error code.
#
#   cmake -DEXE=<tool> [-DPREFIX=<subcommand>] -DFLAG=--seed [-DEXTRA=...]
#         -P expect_usage_error.cmake
set(values -1 +5 abc 10x 0x 1e3 " 7" 18446744073709551616 ${EXTRA})
# The empty value (`--flag=`) cannot live in a CMake list; run it first.
foreach(value IN ITEMS "" LISTS values)
  execute_process(COMMAND "${EXE}" ${PREFIX} "${FLAG}=${value}"
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
            "${EXE} ${PREFIX} ${FLAG}=${value}: exit ${rc}, expected 2\n${err}")
  endif()
endforeach()
