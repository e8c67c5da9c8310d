#include "util/status.h"

namespace mg::util {

const char*
statusCodeName(StatusCode code)
{
    switch (code) {
      case StatusCode::Ok:
        return "ok";
      case StatusCode::InvalidArgument:
        return "invalid-argument";
      case StatusCode::Truncated:
        return "truncated";
      case StatusCode::Corrupt:
        return "corrupt";
      case StatusCode::ChecksumMismatch:
        return "checksum-mismatch";
      case StatusCode::IoError:
        return "io-error";
      case StatusCode::FaultInjected:
        return "fault-injected";
      case StatusCode::ResourceExhausted:
        return "resource-exhausted";
      case StatusCode::Internal:
        return "internal";
    }
    return "unknown";
}

std::string
Status::toString() const
{
    std::string out = statusCodeName(code);
    out += ": ";
    out += message;
    if (!file.empty() || !section.empty()) {
        out += " [";
        bool first = true;
        if (!file.empty()) {
            out += "file=";
            out += file;
            first = false;
        }
        if (!section.empty()) {
            out += first ? "section=" : " section=";
            out += section;
            first = false;
        }
        out += first ? "offset=" : " offset=";
        out += std::to_string(offset);
        out += "]";
    }
    return out;
}

StatusError::StatusError(Status status)
    : Error(status.toString()), status_(std::move(status))
{}

void
throwStatus(Status status)
{
    MG_ASSERT(!status.ok());
    throw StatusError(std::move(status));
}

uint32_t
fitU32(uint64_t value, std::string_view section)
{
    if (value > UINT32_MAX) {
        failSection(StatusCode::InvalidArgument, {.section = section},
                    "value ", value, " does not fit the 32-bit '", section,
                    "' field");
    }
    return static_cast<uint32_t>(value);
}

} // namespace mg::util
