# Fails when the apollo library's disassembly holds a fused multiply-add
# or multiply-subtract (vfmadd*, vfmsub*, vfnmadd*, vfnmsub*). The library
# compiles with -ffp-contract=off so that every vector kernel rounds each
# multiply and each add as its scalar definition does
# (docs/INTERNALS.md §5).
#
#   cmake -DOBJDUMP=<objdump> -DLIBRARY=<libapollo.a> -DOUT=<file> \
#         -P no_fma.cmake

execute_process(COMMAND "${OBJDUMP}" -d --no-show-raw-insn "${LIBRARY}"
                OUTPUT_FILE "${OUT}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${OBJDUMP} -d ${LIBRARY} failed: ${rc}")
endif()

file(STRINGS "${OUT}" insns REGEX "^ +[0-9a-f]+:\t")
list(LENGTH insns n_insns)
if(n_insns EQUAL 0)
    message(FATAL_ERROR "no instruction disassembled from ${LIBRARY}")
endif()

file(STRINGS "${OUT}" fmas REGEX "\tvfn?m(add|sub)")
list(LENGTH fmas n_fmas)
if(n_fmas GREATER 0)
    list(GET fmas 0 first)
    message(FATAL_ERROR "${n_fmas} fused multiply-add instructions in "
                        "${LIBRARY} (first: ${first})")
endif()
message(STATUS "${n_insns} instructions, no fused multiply-add")
