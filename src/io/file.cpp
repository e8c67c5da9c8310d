#include "io/file.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>

#include "fault/fault.h"
#include "io/fd.h"
#include "util/common.h"
#include "util/status.h"

namespace mg::io {

namespace {

/** Throw an IoError status naming the offending file. */
[[noreturn]] void
ioFail(const std::string& path, std::string message)
{
    util::Status status;
    status.code = util::StatusCode::IoError;
    status.message = std::move(message);
    status.file = path;
    util::throwStatus(std::move(status));
}

} // namespace

bool
fileExists(const std::string& path)
{
    return ::access(path.c_str(), F_OK) == 0;
}

std::vector<uint8_t>
readFileBytes(const std::string& path)
{
    // Fault point: the operating system failing a read.
    fault::inject("io.file.read");

    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in.good()) {
        ioFail(path, "cannot open file for reading");
    }
    std::streamsize size = in.tellg();
    in.seekg(0);
    std::vector<uint8_t> bytes(static_cast<size_t>(size));
    in.read(reinterpret_cast<char*>(bytes.data()), size);
    if (!in.good() && size != 0) {
        ioFail(path, "short read from file");
    }
    return bytes;
}

void
writeFileBytes(const std::string& path, const std::vector<uint8_t>& bytes)
{
    // Fault point: the operating system failing a write.
    fault::inject("io.file.write");

    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out.good()) {
        ioFail(path, "cannot open file for writing");
    }
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out.good()) {
        ioFail(path, "short write to file");
    }
}

void
writeFileBytesDurable(const std::string& path,
                      const std::vector<uint8_t>& bytes)
{
    // Fault point: crash, throw, or torn write at the moment of
    // persistence.  A torn write models a storage stack without working
    // atomicity — the mangled prefix lands at the *final* path directly,
    // exactly what the CRC on every durable format exists to catch.
    if (auto torn = fault::corrupted("io.file.durable", bytes)) {
        writeFileBytes(path, *torn);
        return;
    }

    // A temp name unique to this call: writers racing on one path (two
    // processes publishing the same container) each rename their own
    // complete file, and the last rename wins.
    static std::atomic<uint64_t> sequence{0};
    const std::string tmp = path + ".tmp." + std::to_string(::getpid()) +
                            "." + std::to_string(sequence.fetch_add(1));
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        ioFail(tmp, "cannot open temp file for durable write");
    }
    // EINTR/partial-write-safe: a drain signal landing mid-flush must not
    // tear the checkpoint image (io::writeFull retries both).
    if (writeFull(fd, bytes.data(), bytes.size()) < 0) {
        ::close(fd);
        ioFail(tmp, "write failed during durable write");
    }
    if (::fsync(fd) != 0) {
        ::close(fd);
        ioFail(tmp, "fsync failed during durable write");
    }
    ::close(fd);

    // Fault point: crash between the durable tmp file and the rename —
    // the final path keeps its previous content (or stays absent) and the
    // orphan tmp file is ignored by loaders.
    fault::inject("io.file.durable.rename");

    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        ioFail(path, "rename failed during durable write");
    }
    // Make the rename itself durable by syncing the directory entry.
    std::string dir = path;
    size_t slash = dir.find_last_of('/');
    dir = slash == std::string::npos ? std::string(".")
                                     : dir.substr(0, slash);
    int dirfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dirfd >= 0) {
        ::fsync(dirfd); // best effort: some filesystems refuse dir fsync
        ::close(dirfd);
    }
}

std::string
readFileText(const std::string& path)
{
    std::vector<uint8_t> bytes = readFileBytes(path);
    return std::string(bytes.begin(), bytes.end());
}

void
writeFileText(const std::string& path, const std::string& text)
{
    // Fault point shared with the binary writer.
    fault::inject("io.file.write");

    std::ofstream out(path, std::ios::trunc);
    if (!out.good()) {
        ioFail(path, "cannot open file for writing");
    }
    out << text;
    out.flush();
    if (!out.good()) {
        ioFail(path, "short write to file");
    }
}

} // namespace mg::io
