# Checks DESIGN.md's schema index against the code: every versioned schema
# name (massf.<name>.v<N>) mentioned under src/, examples/, bench/ or
# scripts/ must have a row in the "### Schema index" section, and every
# name a row gives in backticks must still be mentioned there.
#
#   cmake -DROOT=<repository root> -P tests/schema_index.cmake
if(NOT DEFINED ROOT)
  message(FATAL_ERROR "usage: cmake -DROOT=<repository root> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

set(name_regex "massf\\.[A-Za-z0-9_]+\\.v[0-9]+")

# The index: from its heading to the next heading.
file(READ "${ROOT}/DESIGN.md" design)
string(FIND "${design}" "\n### Schema index\n" start)
if(start EQUAL -1)
  message(FATAL_ERROR "DESIGN.md has no '### Schema index' section")
endif()
math(EXPR start "${start} + 1")
string(SUBSTRING "${design}" ${start} -1 index)
string(FIND "${index}" "\n#" end)
if(NOT end EQUAL -1)
  string(SUBSTRING "${index}" 0 ${end} index)
endif()

file(GLOB_RECURSE sources LIST_DIRECTORIES false
     "${ROOT}/src/*" "${ROOT}/examples/*" "${ROOT}/bench/*"
     "${ROOT}/scripts/*")
set(in_code "")
set(problems "")
foreach(path IN LISTS sources)
  file(READ "${path}" text)
  string(REGEX MATCHALL "${name_regex}" names "${text}")
  list(REMOVE_DUPLICATES names)
  foreach(name IN LISTS names)
    list(APPEND in_code "${name}")
    string(FIND "${index}" "`${name}`" at)
    if(at EQUAL -1)
      file(RELATIVE_PATH rel "${ROOT}" "${path}")
      list(APPEND problems "${name} (${rel}) has no row in DESIGN.md's schema index")
    endif()
  endforeach()
endforeach()

string(REGEX MATCHALL "`${name_regex}`" listed "${index}")
list(REMOVE_DUPLICATES listed)
foreach(quoted IN LISTS listed)
  string(REPLACE "`" "" name "${quoted}")
  list(FIND in_code "${name}" at)
  if(at EQUAL -1)
    list(APPEND problems "${name} is in DESIGN.md's schema index but no longer in the code")
  endif()
endforeach()

if(problems)
  list(REMOVE_DUPLICATES problems)
  list(JOIN problems "\n  " report)
  message(FATAL_ERROR "schema index out of date:\n  ${report}")
endif()
list(REMOVE_DUPLICATES in_code)
list(LENGTH in_code count)
message(STATUS "schema index covers all ${count} schema names in the code")
