#===-- tests/thread_locals.cmake - Allowlist of src/ thread-locals -------===#
#
# Part of the deoptless reproduction. MIT license.
#
# Fails when src/ declares a thread_local variable that is not named below,
# or when a named one no longer exists. Per-thread ambient state is how
# lower layers find "the current Vm"; each entry here is a deliberate
# exception, and the list only shrinks.
#
#   cmake -DSRC_DIR=<checkout>/src -P tests/thread_locals.cmake
#
#===----------------------------------------------------------------------===#

set(ALLOWED
  "bc/interp.cpp:Hooks"                  # interpreter hooks (InterpHooks)
  "compile/snapshot.cpp:ActiveSnapshot"  # a compile job's feedback view
  "exec/backend.cpp:Active"              # the executor's RetireEpochs
  "lowcode/exec.cpp:Hooks"               # LowCode engine hooks (LowHooks)
  "obs/trace.cpp:B"                      # the thread's trace ring buffer
  "osr/deoptless.cpp:Depths"             # running continuation depths
  "runtime/gcheap.cpp:Active"            # the executor's GcHeap
  "vm/vm.cpp:CurrentVm"                  # the thread's active Vm
)

if(NOT SRC_DIR)
  message(FATAL_ERROR "usage: cmake -DSRC_DIR=<src> -P thread_locals.cmake")
endif()

get_filename_component(SRC_DIR ${SRC_DIR} ABSOLUTE)
file(GLOB_RECURSE FILES RELATIVE ${SRC_DIR} ${SRC_DIR}/*.cpp ${SRC_DIR}/*.h)
set(SEEN "")
set(ERRORS "")
foreach(F ${FILES})
  file(STRINGS ${SRC_DIR}/${F} LINES REGEX "thread_local")
  foreach(L ${LINES})
    # The declared name is the last identifier before an initializer or
    # the end of the declaration.
    if(L MATCHES "thread_local[^=;{(]*[ *&]([A-Za-z_][A-Za-z0-9_]*) *([=;{(\\]|$)")
      set(ID "${F}:${CMAKE_MATCH_1}")
      list(APPEND SEEN ${ID})
      list(FIND ALLOWED ${ID} IDX)
      if(IDX EQUAL -1)
        string(APPEND ERRORS "  not allowlisted: ${ID}\n")
      endif()
    else()
      string(APPEND ERRORS "  unrecognized declaration in ${F}: ${L}\n")
    endif()
  endforeach()
endforeach()

foreach(ID ${ALLOWED})
  list(FIND SEEN ${ID} IDX)
  if(IDX EQUAL -1)
    string(APPEND ERRORS "  allowlisted but gone (drop it from the list): ${ID}\n")
  endif()
endforeach()

if(ERRORS)
  message(FATAL_ERROR "src/ thread_local allowlist violated:\n${ERRORS}")
endif()
list(LENGTH SEEN N)
message(STATUS "src/ declares ${N} allowlisted thread_local variables")
