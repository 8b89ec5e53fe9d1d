# Reruns one wsim command and compares its --json output byte for byte
# with a committed golden file: same seed, same bytes.
#
#   cmake -DWSIM=<wsim binary> -DCOMMAND=<subcommand> -DARGS="<flags>"
#         -DGOLDEN=<committed json> -DOUT=<fresh json> -P compare_json.cmake
separate_arguments(flags UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${WSIM}" ${COMMAND} --json "${OUT}" ${flags}
                RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "wsim ${COMMAND} ${ARGS} exited with ${status}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${OUT}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from ${GOLDEN}\n"
                      "repro: ${WSIM} ${COMMAND} --json ${OUT} ${ARGS}")
endif()
