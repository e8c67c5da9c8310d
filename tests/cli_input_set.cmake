# End-to-end check of the "generate new input sets" workflow at the CLI
# surface: make_inputs writes an input set (and its GFA export, haplotype
# paths included), the proxy and the validator
# consume its .mgz3 container, the full mapper maps its FASTQ, mg_verify
# reports a damaged, a truncated and an empty container, and a file
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
           --out-dir "${WORK}" --gfa "${BASE}.gfa")
foreach(ext mgz3 fastq seeds.bin expected.ext gfa)
  if(NOT EXISTS "${BASE}.${ext}")
    message(FATAL_ERROR "make_inputs did not write ${BASE}.${ext}\n${log}")
  endif()
endforeach()

# The GFA carries the graph and every haplotype as a P line.
file(STRINGS "${BASE}.gfa" gfa_s REGEX "^S\t")
file(STRINGS "${BASE}.gfa" gfa_l REGEX "^L\t")
file(STRINGS "${BASE}.gfa" gfa_p REGEX "^P\t")
list(LENGTH gfa_p paths)
if(NOT gfa_s OR NOT gfa_l OR paths EQUAL 0)
  message(FATAL_ERROR "make_inputs --gfa wrote no S, L or P lines\n${log}")
endif()
expect_match("${log}" "wrote GFA \\(${paths} haplotype paths\\)"
             "make_inputs --gfa")

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

# A damaged section: one payload byte of the first section inverted in a
# copy (dd patches it in place).  mg_verify lists that section as
# MISMATCH and exits 1.
string(REGEX MATCH "section ([^ ]+) +offset=([0-9]+) +size=([0-9]+)"
       first "${log}")
if(NOT first OR CMAKE_MATCH_3 EQUAL 0)
  message(FATAL_ERROR "mg_verify printed no non-empty section\n${log}")
endif()
set(DAMAGED_SECTION "${CMAKE_MATCH_1}")
math(EXPR at "${CMAKE_MATCH_2} + ${CMAKE_MATCH_3} / 2")
set(BAD "${WORK}/damaged.mgz3")
configure_file("${BASE}.mgz3" "${BAD}" COPYONLY)
file(READ "${BAD}" old_byte OFFSET ${at} LIMIT 1 HEX)
if(old_byte STREQUAL "00")
  set(new_byte "\\377")
else()
  set(new_byte "\\000")
endif()
run_expect(0 log sh -c "printf '${new_byte}' | dd of='${BAD}' bs=1 \
seek=${at} count=1 conv=notrunc 2>/dev/null")
run_expect(1 log ${MG_VERIFY} "${BAD}")
expect_match("${log}" "section ${DAMAGED_SECTION} [^\n]*MISMATCH"
             "mg_verify damaged section")

# A container cut short inside its first page, and an empty one: exit 1
# with a structured truncated error, not a crash.
set(CUT "${WORK}/cut.mgz3")
run_expect(0 log dd if=${BASE}.mgz3 of=${CUT} bs=1000 count=1)
run_expect(1 log ${MG_VERIFY} "${CUT}")
expect_match("${log}" "truncated: .*file=${CUT}" "mg_verify cut container")
set(EMPTY "${WORK}/empty.mgz3")
file(WRITE "${EMPTY}" "")
run_expect(1 log ${MG_VERIFY} "${EMPTY}")
expect_match("${log}" "truncated: .*file=${EMPTY}" "mg_verify empty container")

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
