/**
 * @file
 * The *host* machine's capabilities, as opposed to the modelled Table II
 * machines in config.h.  Every run record (JSON summaries, bench outputs)
 * embeds this description so results from a heterogeneous fleet stay
 * attributable to the CPU that produced them.
 */
#pragma once

#include <string>

namespace mg::machine {

/** The host CPU, probed once per process. */
struct HostCpu
{
    /** Compile-target architecture ("x86_64", "aarch64", "unknown"). */
    std::string arch;
    /** Wide-ISA summary ("avx2+avx512bw", "neon", "swar64" when none). */
    std::string features;
};

/** The cached probe (first call probes, later calls are free). */
const HostCpu& hostCpu();

/** JSON object fragment: {"arch":"...","features":"..."}. */
std::string hostCpuJson();

} // namespace mg::machine
