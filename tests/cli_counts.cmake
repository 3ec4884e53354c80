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

# Thread and latency flags must be non-negative, and a thread count
# above kMaxWorkerThreads (util/thread_pool.hh) or a non-finite
# setting is rejected as the flags are parsed: before the model loads
# and before any pool or serve worker exists. `--threads -1` used to
# become 4294967295 (droop-lab) or SIZE_MAX (serve) workers.
function(expect_error pattern)
    execute_process(COMMAND ${APOLLO_CLI} ${ARGN}
                    RESULT_VARIABLE rc
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(rc EQUAL 0)
        message(FATAL_ERROR "apollo ${ARGN} succeeded: ${out}")
    endif()
    if(NOT err MATCHES "${pattern}")
        message(FATAL_ERROR "apollo ${ARGN}: unexpected error: ${err}")
    endif()
endfunction()

expect_error("--threads must be a non-negative count"
             droop-lab --threads -1)
expect_error("--latency must be a non-negative count"
             droop-lab --latency -2)
expect_rejected(engage droop-lab --engage 0)
expect_rejected(engage droop-lab --engage -1)
expect_error("threads must be at most 256" droop-lab --threads 100000)
expect_error("threads must be at most 256"
             droop-lab --threads 99999999999)
expect_error("trigger percentile must be in" droop-lab --percentile nan)
expect_error("--threads must be a non-negative count"
             serve --model no-such-model.txt --threads -1)
expect_error("threads must be at most 256"
             serve --model no-such-model.txt --threads 100000)
expect_rejected(max-sessions serve --model no-such-model.txt
                --max-sessions 0)
expect_rejected(max-queue serve --model no-such-model.txt --max-queue -1)
