# Fails when a source file under DIR calls EvalExpr: the fused pipeline
# evaluates every SELECT and ARITH through typed column programs, and the
# row evaluator stays the oracle behind relational::ApplyOperator.
#   cmake -DDIR=<src/core> -P no_eval_expr_calls.cmake
file(GLOB_RECURSE sources ${DIR}/*.h ${DIR}/*.cc)
if(NOT sources)
  message(FATAL_ERROR "no sources under '${DIR}'")
endif()
foreach(source IN LISTS sources)
  file(STRINGS ${source} calls REGEX "EvalExpr[ \t]*\\(")
  if(calls)
    message(FATAL_ERROR "${source} calls EvalExpr: ${calls}")
  endif()
endforeach()
