/**
 * @file
 * Input generation and the file layout the measuring modes read.
 */
#pragma once

#include <cstdint>
#include <string>

#include "common.h"

namespace e2e {

std::string workloadDir(const std::string& dir, const Workload& workload);
/** copy 0 is the served container; copy 1 the hot-swap alternate. */
std::string containerPath(const std::string& dir, const Workload& workload,
                          int copy);
std::string readsPath(const std::string& dir, const Workload& workload,
                      uint64_t seed);
/** The reference GAF a measuring run maps for `seed` (written by run). */
std::string gafPath(const std::string& dir, const Workload& workload,
                    uint64_t seed);
/** Chrome-trace JSON of the last traced pass (written by a traced run). */
std::string spansPath(const std::string& dir, const Workload& workload,
                      uint64_t seed);

/**
 * Build the workload's container(s) if absent and the read set of
 * `seed` (`reads` reads, 0 = the workload's default) if absent.
 */
void generate(const std::string& dir, const Workload& workload,
              uint64_t seed, size_t reads);

} // namespace e2e
