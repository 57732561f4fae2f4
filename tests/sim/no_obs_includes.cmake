# Fails when a source file under DIR includes a header from src/obs: the
# device model and the Stream Pool compute and record nothing.
#   cmake -DDIR=<src/sim or src/stream> -P no_obs_includes.cmake
file(GLOB_RECURSE sources ${DIR}/*.h ${DIR}/*.cc)
if(NOT sources)
  message(FATAL_ERROR "no sources under '${DIR}'")
endif()
foreach(source IN LISTS sources)
  file(STRINGS ${source} includes REGEX "^[ \t]*#[ \t]*include[ \t]*[\"<]obs/")
  if(includes)
    message(FATAL_ERROR "${source} includes obs/: ${includes}")
  endif()
endforeach()
