# Fails when a source file under DIR calls EvalExpr, Table::GetRow or
# Table::AppendRow: the fused pipeline evaluates every SELECT and ARITH
# through typed column programs, and rows move between tables as typed
# column ranges. The row evaluator and the row accessors stay the oracle
# behind relational::ApplyOperator.
#   cmake -DDIR=<src/core> -P no_eval_expr_calls.cmake
file(GLOB_RECURSE sources ${DIR}/*.h ${DIR}/*.cc)
if(NOT sources)
  message(FATAL_ERROR "no sources under '${DIR}'")
endif()
foreach(source IN LISTS sources)
  foreach(callee IN ITEMS EvalExpr GetRow AppendRow)
    file(STRINGS ${source} calls REGEX "${callee}[ \t]*\\(")
    if(calls)
      message(FATAL_ERROR "${source} calls ${callee}: ${calls}")
    endif()
  endforeach()
endforeach()
