# ctest script: a sharded manifest campaign's columnar store must merge to
# the byte-identical fiveg_query export of the unsharded reference run —
# including after a mid-campaign kill. Three crash artifacts are simulated
# (one per worker count): a deleted shard file (every run of the shard
# re-runs on resume), a torn trailing frame (sealed by the writer on
# reopen; every run spliced), and an intact store (every run spliced). In
# every case the resumed shard plus its sibling must export the same bytes
# as the uninterrupted reference, and fiveg_prof must read the store and
# find no flaky experiment.
#
# Invoked as:
#   cmake -DRUNALL=<fiveg_runall> -DQUERY=<fiveg_query> -DPROF=<fiveg_prof>
#         -DMANIFEST=<campaign.json> -DWORK_DIR=<dir> -P runall_store.cmake
if(NOT RUNALL OR NOT QUERY OR NOT PROF OR NOT MANIFEST OR NOT WORK_DIR)
  message(FATAL_ERROR "RUNALL, QUERY, PROF, MANIFEST and WORK_DIR must be set")
endif()
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

set(common --manifest ${MANIFEST} --timeout 300 --quiet)

function(run_shard out_prefix shard jobs store)
  execute_process(
    COMMAND ${RUNALL} ${common} --shard ${shard} --jobs ${jobs}
            --store ${store}
    OUTPUT_QUIET
    ERROR_VARIABLE run_err
    RESULT_VARIABLE run_rc)
  if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR
            "${out_prefix} shard ${shard} failed (rc=${run_rc}): ${run_err}")
  endif()
endfunction()

function(export_store store out)
  execute_process(
    COMMAND ${QUERY} ${store} --export-runall-json ${out}
    OUTPUT_QUIET
    ERROR_VARIABLE query_err
    RESULT_VARIABLE query_rc)
  if(NOT query_rc EQUAL 0)
    message(FATAL_ERROR
            "fiveg_query failed on ${store} (rc=${query_rc}): ${query_err}")
  endif()
endfunction()

# --- Reference: the whole campaign as one shard. --------------------------
run_shard(ref 0/1 2 ${WORK_DIR}/ref_store)
export_store(${WORK_DIR}/ref_store ${WORK_DIR}/ref.json)

# --- Clean 2-way shard split must merge to the reference bytes. -----------
run_shard(clean 0/2 2 ${WORK_DIR}/clean_store)
run_shard(clean 1/2 2 ${WORK_DIR}/clean_store)
export_store(${WORK_DIR}/clean_store ${WORK_DIR}/clean.json)
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/ref.json ${WORK_DIR}/clean.json
  RESULT_VARIABLE clean_diff)
if(NOT clean_diff EQUAL 0)
  message(FATAL_ERROR "2-shard store export differs from the unsharded one")
endif()

# --- Kill + resume at several worker counts. ------------------------------
# crash mode per jobs value: delete (the shard re-runs in full), tear
# (torn trailing frame sealed on reopen), keep (nothing re-runs).
set(modes_1 delete)
set(modes_2 tear)
set(modes_8 keep)
foreach(jobs 1 2 8)
  set(work ${WORK_DIR}/resume_j${jobs})
  set(store ${work}_store)

  # Shard 0 runs to completion, then the "kill" mangles its store file.
  run_shard(resume_j${jobs} 0/2 ${jobs} ${store})
  set(mode ${modes_${jobs}})
  if(mode STREQUAL delete)
    file(REMOVE ${store}/shard-0-of-2.fgrs)
  elseif(mode STREQUAL tear)
    file(APPEND ${store}/shard-0-of-2.fgrs "FGRSxRtorn-frame-garbage")
  endif()

  # Resume shard 0 from the store (appends land back in it), then run
  # shard 1 cleanly into the same store directory.
  execute_process(
    COMMAND ${RUNALL} ${common} --shard 0/2 --jobs ${jobs}
            --resume ${store}
    OUTPUT_QUIET
    ERROR_VARIABLE resume_err
    RESULT_VARIABLE resume_rc)
  if(NOT resume_rc EQUAL 0)
    message(FATAL_ERROR
            "resume (jobs ${jobs}, mode ${mode}) failed (rc=${resume_rc}): "
            "${resume_err}")
  endif()
  run_shard(resume_j${jobs} 1/2 ${jobs} ${store})

  export_store(${store} ${work}.json)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/ref.json ${work}.json
    RESULT_VARIABLE resume_diff)
  if(NOT resume_diff EQUAL 0)
    message(FATAL_ERROR
            "resumed store export (jobs ${jobs}, mode ${mode}) differs "
            "from the reference")
  endif()

  # The profiler reads the resumed store: no mixed statuses, no ok runs
  # of one cell that disagree.
  execute_process(
    COMMAND ${PROF} ${store} --json
    OUTPUT_QUIET
    ERROR_VARIABLE prof_err
    RESULT_VARIABLE prof_rc)
  if(NOT prof_rc EQUAL 0)
    message(FATAL_ERROR
            "fiveg_prof failed (jobs ${jobs}, mode ${mode}, "
            "rc=${prof_rc}): ${prof_err}")
  endif()
endforeach()

message(STATUS "runall store: sharded + killed-and-resumed campaigns merge "
               "to byte-identical exports at jobs 1/2/8")
