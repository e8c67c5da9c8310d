# End-to-end check of the README's operator workflow for the mapping
# daemon: make_inputs writes a container, mgd serves it, mg_loadgen sends
# traffic while it hot-swaps between two containers over the wire, an
# operator publishes a replacement with `mv` and SIGHUP, mg_top renders
# one frame, and a SIGTERM drain exits 0 with every accepted request
# completed.  One worker, one connection and a socket of its own keep the
# run small and deterministic under `ctest -j`.
#
#   cmake -DMAKE_INPUTS=... -DMGD=... -DLOADGEN=... -DMG_TOP=...
#         -DWORK=<scratch dir> -P operator_workflow.cmake

set(SET B-yeast)

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
set(BASE "${WORK}/${SET}")
string(RANDOM LENGTH 6 run)
set(SOCK "${WORK}/mgd-${run}.sock")
set(LOG "${WORK}/mgd.log")
set(PIDFILE "${WORK}/mgd.pid")
set(EXITFILE "${WORK}/mgd.exit")

# Kill a daemon this script started (on failure paths), then fail.
function(die)
  if(EXISTS "${PIDFILE}")
    file(READ "${PIDFILE}" pid)
    string(STRIP "${pid}" pid)
    execute_process(COMMAND kill -KILL ${pid} OUTPUT_QUIET ERROR_QUIET)
  endif()
  set(log "")
  if(EXISTS "${LOG}")
    file(READ "${LOG}" log)
  endif()
  message(FATAL_ERROR "${ARGN}\nmgd log:\n${log}")
endfunction()

# Run a command with a timeout; fail unless it exits with `expected`.
# The combined output lands in the variable named by `out`.
function(run_expect expected out)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE stdout
                  ERROR_VARIABLE stderr
                  TIMEOUT 120)
  if(NOT "${code}" STREQUAL "${expected}")
    die("${ARGN}\nexited '${code}', expected ${expected}\n"
        "${stdout}${stderr}")
  endif()
  set(${out} "${stdout}${stderr}" PARENT_SCOPE)
endfunction()

function(expect_match text pattern what)
  if(NOT text MATCHES "${pattern}")
    die("${what}: no match for '${pattern}' in:\n${text}")
  endif()
endfunction()

# Poll the daemon log (every 0.1 s, up to `seconds`) for `pattern`.
function(wait_for_log pattern seconds what)
  math(EXPR polls "${seconds} * 10")
  foreach(i RANGE ${polls})
    if(EXISTS "${LOG}")
      file(READ "${LOG}" log)
      if(log MATCHES "${pattern}")
        return()
      endif()
    endif()
    execute_process(COMMAND sleep 0.1)
  endforeach()
  die("${what}: mgd logged no '${pattern}' within ${seconds} s")
endfunction()

run_expect(0 log ${MAKE_INPUTS} --input-set ${SET} --scale 0.05
           --out-dir "${WORK}")
# The second container the wire swaps alternate with.
configure_file("${BASE}.mgz3" "${WORK}/swap.mgz3" COPYONLY)

# Start mgd detached: the shell records its pid, waits for it and
# publishes its exit status with a rename, with every stream redirected
# so this script does not wait on the daemon's output.
execute_process(COMMAND sh -c "( '${MGD}' '${BASE}.mgz3' --socket '${SOCK}' \
--workers 1 --queue-capacity 16 >'${LOG}' 2>&1 </dev/null & \
echo $! >'${PIDFILE}'; wait $!; echo $? >'${EXITFILE}.tmp'; \
mv '${EXITFILE}.tmp' '${EXITFILE}' ) \
>/dev/null 2>&1 </dev/null &")
wait_for_log("mgd: serving on" 30 "startup")

# Traffic with two wire swaps to the other container.
run_expect(0 log ${LOADGEN} --socket "${SOCK}" --input-set ${SET}
           --tenants default:40 --connections 1 --duration 3
           --reads-per-request 8 --swap-every 1
           --swap-path "${WORK}/swap.mgz3")
expect_match("${log}" "swap: generation [0-9]+ published" "mg_loadgen swap")
if(log MATCHES "swap: REJECTED")
  die("mg_loadgen: a wire swap was rejected\n${log}")
endif()

# Publish a replacement the documented way (mv, never cp over the served
# file) and ask for a reload.
configure_file("${BASE}.mgz3" "${WORK}/next.mgz3" COPYONLY)
file(RENAME "${WORK}/next.mgz3" "${BASE}.mgz3")
file(READ "${PIDFILE}" pid)
string(STRIP "${pid}" pid)
run_expect(0 log kill -HUP ${pid})
wait_for_log("mgd: SIGHUP reload published generation" 30 "SIGHUP reload")

# One rendered mg_top frame.
run_expect(0 log ${MG_TOP} --socket "${SOCK}" --count 1 --clear false)
expect_match("${log}" "mgd [a-z]+  generation [0-9]+  reloads [0-9]+"
             "mg_top")

# SIGTERM: the drain must be clean and the daemon must exit 0.
run_expect(0 log kill -TERM ${pid})
foreach(i RANGE 300)
  if(EXISTS "${EXITFILE}")
    break()
  endif()
  execute_process(COMMAND sleep 0.1)
endforeach()
if(NOT EXISTS "${EXITFILE}")
  die("mgd did not exit within 30 s of SIGTERM")
endif()
file(READ "${EXITFILE}" code)
string(STRIP "${code}" code)
file(READ "${LOG}" log)
if(NOT code STREQUAL "0")
  die("mgd exited ${code} after SIGTERM")
endif()
if(NOT log MATCHES "mgd: drained clean — ([0-9]+) accepted, ([0-9]+) completed"
   OR NOT CMAKE_MATCH_1 STREQUAL CMAKE_MATCH_2 OR CMAKE_MATCH_1 EQUAL 0)
  die("drain: not clean, or accepted != completed")
endif()
expect_match("${log}" "mgd: [0-9]+ reloads \\(0 rejected\\)" "reload count")

file(REMOVE_RECURSE "${WORK}")
