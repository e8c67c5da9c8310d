# End-to-end check of the "generate new input sets" workflow at the CLI
# surface: make_inputs writes an input set, the proxy and the validator
# consume its .mgz3 container, the full mapper maps its FASTQ, and a file
# carrying the retired MGZ2 magic is refused with a structured error.
#
#   cmake -DMAKE_INPUTS=... -DMINIGIRAFFE=... -DVALIDATE=... -DGIRAFFE=...
#         -DMG_VERIFY=... -DWORK=<scratch dir> -P cli_input_set.cmake

set(SET B-yeast)

# Run a command; fail unless it exits with `expected`.  The combined
# output lands in the variable named by `out`.
function(run_expect expected out)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE stdout
                  ERROR_VARIABLE stderr)
  if(NOT "${code}" STREQUAL "${expected}")
    message(FATAL_ERROR "${ARGN}\nexited '${code}', expected ${expected}\n"
                        "${stdout}${stderr}")
  endif()
  set(${out} "${stdout}${stderr}" PARENT_SCOPE)
endfunction()

function(expect_match text pattern what)
  if(NOT text MATCHES "${pattern}")
    message(FATAL_ERROR "${what}: no match for '${pattern}' in:\n${text}")
  endif()
endfunction()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
set(BASE "${WORK}/${SET}")

run_expect(0 log ${MAKE_INPUTS} --input-set ${SET} --scale 0.05
           --out-dir "${WORK}")
foreach(ext mgz3 fastq seeds.bin expected.ext)
  if(NOT EXISTS "${BASE}.${ext}")
    message(FATAL_ERROR "make_inputs did not write ${BASE}.${ext}\n${log}")
  endif()
endforeach()

run_expect(0 log ${MINIGIRAFFE} "${BASE}.mgz3" "${BASE}.seeds.bin"
           --threads 2 --output "${WORK}/out.ext")
expect_match("${log}" "mmap load" "minigiraffe_app")

run_expect(0 log ${VALIDATE} "${BASE}.mgz3" "${BASE}.seeds.bin"
           "${BASE}.expected.ext")
expect_match("${log}" "VALIDATION PASSED" "validate_proxy")

run_expect(0 log ${GIRAFFE} "${BASE}.mgz3" "${BASE}.fastq" --threads 2
           --gaf "${WORK}/out.gaf")
file(SIZE "${WORK}/out.gaf" gaf_bytes)
if(gaf_bytes EQUAL 0)
  message(FATAL_ERROR "giraffe_app wrote an empty GAF\n${log}")
endif()

run_expect(0 log ${MG_VERIFY} "${BASE}.mgz3")

# The retired v2 stream magic: exit 1 with a structured Corrupt error
# naming the file, not a crash (a signal would not give exit code 1).
set(OLD "${WORK}/retired.mgz3")
file(WRITE "${OLD}" "MGZ2 a stream container from before the mapped format")
run_expect(1 log ${GIRAFFE} "${OLD}" "${BASE}.fastq")
expect_match("${log}" "corrupt: .*bad magic.*file=${OLD}" "giraffe_app")
run_expect(1 log ${MINIGIRAFFE} "${OLD}" "${BASE}.seeds.bin")
expect_match("${log}" "corrupt: .*bad magic.*file=${OLD}" "minigiraffe_app")
run_expect(1 log ${MG_VERIFY} "${OLD}")
expect_match("${log}" "corrupt: .*bad magic" "mg_verify")

file(REMOVE_RECURSE "${WORK}")
