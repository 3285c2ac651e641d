# ctest script: a killed campaign must be resumable from its result store
# with a byte-identical merged JSON document. The kill is simulated by a
# store that holds half the campaign (a `--shard 0/2` run) plus a torn
# trailing frame (exactly what a mid-append SIGKILL leaves behind);
# `--resume` must then splice the stored runs, re-run the rest, and
# produce the same campaign JSON as the uninterrupted reference — at every
# worker count. A second resume from the now-complete store must execute
# nothing and leave every shard file byte-unchanged.
#
# Invoked as:
#   cmake -DRUNALL=<path-to-fiveg_runall> -DWORK_DIR=<dir>
#         -P runall_resume.cmake
if(NOT RUNALL OR NOT WORK_DIR)
  message(FATAL_ERROR "RUNALL and WORK_DIR must be set")
endif()
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

set(common --smoke --seed 42 --timeout 300 --no-timing --quiet)

function(run_campaign what)
  execute_process(
    COMMAND ${RUNALL} ${common} ${ARGN}
    OUTPUT_QUIET
    ERROR_VARIABLE run_err
    RESULT_VARIABLE run_rc)
  if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR "${what} failed (rc=${run_rc}): ${run_err}")
  endif()
endfunction()

function(require_same_file a b what)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b}
    RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "${what}")
  endif()
endfunction()

# Uninterrupted reference campaign (also produces the full store).
run_campaign("reference run" --jobs 2 --json ${WORK_DIR}/ref.json
             --store ${WORK_DIR}/ref_store)

# Simulate the kill: half the work units ran, then a torn partial frame.
run_campaign("half-campaign run" --jobs 2 --shard 0/2
             --store ${WORK_DIR}/killed)
file(GLOB killed_shards ${WORK_DIR}/killed/*.fgrs)
list(LENGTH killed_shards n_killed)
if(NOT n_killed EQUAL 1)
  message(FATAL_ERROR "expected one shard file in the killed store, got "
                      "${n_killed}")
endif()
file(APPEND ${killed_shards} "FGRSxRtorn-mid-append")

# Resume at several worker counts; each gets its own store copy (resume
# appends to it) and must merge to the byte-identical reference JSON.
foreach(jobs 1 2 8)
  set(store ${WORK_DIR}/resume_j${jobs})
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E copy_directory ${WORK_DIR}/killed ${store})
  run_campaign("--resume --jobs ${jobs}" --jobs ${jobs} --resume ${store}
               --json ${WORK_DIR}/resume_j${jobs}.json)
  require_same_file(${WORK_DIR}/ref.json ${WORK_DIR}/resume_j${jobs}.json
                    "--resume --jobs ${jobs} JSON differs from the "
                    "uninterrupted reference")
endforeach()

# Second resume from the grown (now complete) store: nothing left to run,
# same JSON out, and no shard file may change.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E copy_directory ${WORK_DIR}/resume_j2
          ${WORK_DIR}/second)
run_campaign("second resume" --jobs 2 --resume ${WORK_DIR}/second
             --json ${WORK_DIR}/second.json)
require_same_file(${WORK_DIR}/ref.json ${WORK_DIR}/second.json
                  "second resume JSON differs from the reference")
file(GLOB grown_shards RELATIVE ${WORK_DIR}/resume_j2
     ${WORK_DIR}/resume_j2/*.fgrs)
file(GLOB second_shards RELATIVE ${WORK_DIR}/second ${WORK_DIR}/second/*.fgrs)
if(NOT grown_shards STREQUAL second_shards)
  message(FATAL_ERROR "second resume changed the shard set: "
                      "${grown_shards} -> ${second_shards}")
endif()
foreach(shard ${grown_shards})
  require_same_file(${WORK_DIR}/resume_j2/${shard} ${WORK_DIR}/second/${shard}
                    "second resume modified ${shard} (expected zero "
                    "re-runs)")
endforeach()

message(STATUS "runall resume: byte-identical JSON at jobs 1/2/8 and on a "
               "no-op second resume")
