/**
 * @file
 * Whole-file byte helpers shared by the binary container formats.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mg::io {

/** True iff `path` names an existing file (access(2) check). */
bool fileExists(const std::string& path);

/** Read an entire file into memory; throws mg::util::Error on failure. */
std::vector<uint8_t> readFileBytes(const std::string& path);

/** Write bytes to a file, replacing it; throws on failure. */
void writeFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes);

/**
 * Crash-consistent write: the bytes land at `path` atomically, or `path`
 * keeps its previous content (or stays absent).  Protocol: write to a
 * temp file beside `path` (`path.tmp.<pid>.<n>`, unique per call, so
 * concurrent writers of one path never share it), fsync the file, rename
 * over `path`, fsync the directory.  A reader therefore never observes a
 * partial file at `path`, and a reader that mapped the old file keeps
 * reading it — assuming the platform's rename-after-fsync atomicity, which the
 * checkpoint loader does NOT rely on alone: every consumer of durable
 * files also verifies a CRC, so even a torn write (fault-injectable via
 * the "io.file.durable" site with kind torn-write) is detected, not
 * trusted.  Fault points: "io.file.durable" before any write (crash /
 * torn-write / throw), "io.file.durable.rename" between the tmp fsync
 * and the rename (a crash there leaves only the tmp file).
 */
void writeFileBytesDurable(const std::string& path,
                           const std::vector<uint8_t>& bytes);

/** Read an entire text file. */
std::string readFileText(const std::string& path);

/** Write a text file, replacing it. */
void writeFileText(const std::string& path, const std::string& text);

} // namespace mg::io
