# Count flags must be positive: the CLI parses them as signed longs and
# casts to unsigned, so `--cycles -1` would otherwise become UINT64_MAX.
function(expect_rejected flag)
    execute_process(COMMAND ${APOLLO_CLI} ${ARGN}
                    RESULT_VARIABLE rc
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(rc EQUAL 0)
        message(FATAL_ERROR "apollo ${ARGN} succeeded: ${out}")
    endif()
    if(NOT err MATCHES "--${flag} must be a positive count")
        message(FATAL_ERROR "apollo ${ARGN}: unexpected error: ${err}")
    endif()
endfunction()

expect_rejected(cycles gen-data --design tiny --cycles -1)
expect_rejected(cycles gen-data --design tiny --cycles 0)
expect_rejected(benchmarks gen-data --design tiny --benchmarks 0)
expect_rejected(population gen-data --design tiny --ga 1 --population -3)
expect_rejected(generations gen-data --design tiny --ga 1 --generations 0)
expect_rejected(cycles trace --design tiny --cycles -1)
