# Runs one acr_driver command line and checks its exit code and stdout.
# Used by the DriverCli.* and DriverTrace.* ctests (examples/CMakeLists.txt):
#
#   cmake -DDRIVER=<acr_driver> "-DARGS=--flag=a --flag=b" -DEXPECT_EXIT=0
#         "-DEXPECT_STDOUT=<regex>" "-DEXPECT_SHA256=<hex>"
#         -P driver_cli_check.cmake
#
# An empty EXPECT_STDOUT skips the regex check; an empty EXPECT_SHA256 skips
# the byte-exact check of the whole stdout.
separate_arguments(argv UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${DRIVER} ${argv}
                RESULT_VARIABLE exit_code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT exit_code STREQUAL EXPECT_EXIT)
  message(FATAL_ERROR "acr_driver ${ARGS}: exit ${exit_code}, expected "
                      "${EXPECT_EXIT}\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT EXPECT_STDOUT STREQUAL "" AND NOT out MATCHES "${EXPECT_STDOUT}")
  message(FATAL_ERROR "acr_driver ${ARGS}: stdout lacks /${EXPECT_STDOUT}/\n"
                      "stdout:\n${out}")
endif()
if(NOT EXPECT_SHA256 STREQUAL "")
  string(SHA256 digest "${out}")
  if(NOT digest STREQUAL EXPECT_SHA256)
    message(FATAL_ERROR "acr_driver ${ARGS}: stdout sha256 ${digest}, "
                        "expected ${EXPECT_SHA256}\nstdout:\n${out}")
  endif()
endif()
