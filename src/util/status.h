/**
 * @file
 * Structured error reporting for the decode trust boundary.  A Status
 * carries a machine-readable code plus the provenance of the failure —
 * which file, which container section, and at what byte offset — so a
 * corrupt multi-gigabyte pangenome produces "checksum mismatch in
 * section 'nodes' of graph.mgz at offset 517" instead of a bare what().
 *
 * StatusError derives from mg::util::Error, so every existing
 * catch (const util::Error&) site keeps working; hardened decode paths
 * throw StatusError and callers that care (mg_verify, the fault tests)
 * can downcast to inspect the code and context.
 */
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "util/common.h"

namespace mg::util {

/** Failure taxonomy used across io, gbwt, and sched failure paths. */
enum class StatusCode : uint8_t
{
    Ok = 0,
    /** Bad argument or configuration from the caller. */
    InvalidArgument,
    /** Input ended before the structure it promised. */
    Truncated,
    /** Structurally invalid input (bad magic, inconsistent counts). */
    Corrupt,
    /** A section checksum did not match its payload. */
    ChecksumMismatch,
    /** The operating system failed a read/write. */
    IoError,
    /** A deliberately injected fault (mg::fault) fired. */
    FaultInjected,
    /** Allocation or similar resource failure. */
    ResourceExhausted,
    /** Invariant violation that should be unreachable. */
    Internal,
};

/** Short stable name ("truncated", "checksum-mismatch", ...). */
const char* statusCodeName(StatusCode code);

/** One failure with its provenance. */
struct Status
{
    StatusCode code = StatusCode::Ok;
    std::string message;
    /** Originating file path; empty for in-memory buffers. */
    std::string file;
    /** Container section being decoded ("nodes", "gbwt", ...); may be
     *  empty. */
    std::string section;
    /** Byte offset of the failure within the file/buffer. */
    uint64_t offset = 0;

    bool ok() const { return code == StatusCode::Ok; }

    /** "truncated: <message> [file=... section=... offset=...]". */
    std::string toString() const;
};

/** Exception carrying a Status; what() is status().toString(). */
class StatusError : public Error
{
  public:
    explicit StatusError(Status status);
    const Status& status() const { return status_; }

  private:
    Status status_;
};

/** Throw the status as a StatusError (must not be Ok). */
[[noreturn]] void throwStatus(Status status);

/** Where a failure lies, as failSection() records it in a Status. */
struct Provenance
{
    std::string_view file = {};
    std::string_view section = {};
    /** Byte offset in `file`; a bind check, which sees only its
     *  section's payload, gives it within `section` and the container
     *  loader rebases it onto the file. */
    uint64_t offset = 0;
};

/** Throw a StatusError with `code` at `where`; the message is
 *  cat(args...). */
template <typename... Args>
[[noreturn]] void
failSection(StatusCode code, const Provenance& where, Args&&... args)
{
    Status status;
    status.code = code;
    status.message = cat(std::forward<Args>(args)...);
    status.file = std::string(where.file);
    status.section = std::string(where.section);
    status.offset = where.offset;
    throwStatus(std::move(status));
}

/**
 * `value` narrowed to a 32-bit container field, or a StatusError
 * (InvalidArgument, naming `section`) when it does not fit.  Builders
 * narrow every offset the MGZ v3 layout stores in 32 bits through this,
 * so an index too large for the format fails at build time with the
 * field's name instead of wrapping.
 */
uint32_t fitU32(uint64_t value, std::string_view section);

} // namespace mg::util
