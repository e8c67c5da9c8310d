#include "machine/host.h"

namespace mg::machine {

const HostCpu&
hostCpu()
{
    static const HostCpu host = [] {
        HostCpu h;
#if defined(__x86_64__) || defined(_M_X64)
        h.arch = "x86_64";
        if (__builtin_cpu_supports("avx2")) {
            h.features = "avx2";
        }
        if (__builtin_cpu_supports("avx512f") &&
            __builtin_cpu_supports("avx512bw")) {
            h.features += h.features.empty() ? "avx512bw" : "+avx512bw";
        }
#elif defined(__aarch64__)
        h.arch = "aarch64";
        h.features = "neon"; // ASIMD is architecturally baseline on AArch64
#else
        h.arch = "unknown";
#endif
        if (h.features.empty()) {
            h.features = "swar64";
        }
        return h;
    }();
    return host;
}

std::string
hostCpuJson()
{
    const HostCpu& h = hostCpu();
    return "{\"arch\":\"" + h.arch + "\",\"features\":\"" + h.features +
           "\"}";
}

} // namespace mg::machine
