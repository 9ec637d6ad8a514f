# `hiperbot tune --resume` must refuse an asynchronous session journal
# before it opens the journal for append, leaving its bytes as they were:
# a run appended to an async body leaves a journal no reader accepts whole.
#
#   cmake -DHIPERBOT=<cli> -DJOURNAL=<async journal> -DWORK=<copy to resume>
#         -P cli_resume_refuses_async.cmake
execute_process(COMMAND ${CMAKE_COMMAND} -E copy ${JOURNAL} ${WORK}
                RESULT_VARIABLE copied)
if(NOT copied EQUAL 0)
  message(FATAL_ERROR "cannot copy ${JOURNAL} to ${WORK}")
endif()
execute_process(COMMAND ${HIPERBOT} tune --dataset kripke --resume ${WORK}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "the resume of an async journal succeeded:\n${out}")
endif()
if(NOT err MATCHES "hiperbot serve")
  message(FATAL_ERROR "the refusal does not name `hiperbot serve`:\n${err}")
endif()
file(SHA256 ${JOURNAL} before)
file(SHA256 ${WORK} after)
if(NOT before STREQUAL after)
  message(FATAL_ERROR "the refused resume changed ${WORK}")
endif()
