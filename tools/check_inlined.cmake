# Inlining guard, no timing involved: fails when BINARY holds an
# out-of-line copy of one of op2's per-element argument helpers
# (tgt/pre in src/op2/parloop.hpp, which forces them inline)
# or of DatSpan::elem. An out-of-line copy means a call per argument per
# element, or per stencil column, on the hot path.
#
#   cmake -DNM=<nm> -DBINARY=<executable> -P tools/check_inlined.cmake
#
# Prints "SKIP:" (ctest's SKIP_REGULAR_EXPRESSION) when no nm is available.
if(NM AND EXISTS "${NM}")
  set(nm_tool "${NM}")
else()
  find_program(nm_tool nm)
endif()
if(NOT nm_tool)
  message("SKIP: nm not found, cannot list the symbols of ${BINARY}")
  return()
endif()
execute_process(COMMAND "${nm_tool}" -C "${BINARY}" OUTPUT_VARIABLE symbols
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${nm_tool} -C ${BINARY} failed (${rc}): ${err}")
endif()
string(REGEX MATCHALL
       "(vcgt::op2::detail::(pre|tgt)<|vcgt::op2::DatSpan<[^\n]*>::elem\\()[^\n]*"
       hits "${symbols}")
list(LENGTH hits n)
if(n GREATER 0)
  list(JOIN hits "\n  " listing)
  message(FATAL_ERROR "${n} out-of-line op2 per-element helper(s) in ${BINARY}:\n  ${listing}")
endif()
message("no out-of-line op2 per-element helpers in ${BINARY}")
