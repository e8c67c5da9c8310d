/**
 * @file
 * The measuring modes: one function per workload family.  Each loads the
 * generated inputs, sets up (several times; setup_s is the median),
 * measures for the requested seconds, checks every output, and fills a
 * RunResult with the end-to-end metrics (untraced run) or the per-layer
 * metrics (traced run).
 */
#pragma once

#include "common.h"

namespace e2e {

RunResult runBatch(const Workload& workload, const RunOptions& options);
RunResult runServe(const Workload& workload, const RunOptions& options);

} // namespace e2e
