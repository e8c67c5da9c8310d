/**
 * @file
 * LEB128-style variable-length integer coding plus a byte-stream reader and
 * writer.  This is the primitive the MGZ container and the compressed GBWT
 * record store are built on: small values (edge ranks, run lengths, delta
 * gaps) dominate those streams, so a byte-oriented varint gives most of the
 * compression the GBZ format gets from its sdsl bit vectors at a fraction of
 * the complexity.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/common.h"
#include "util/status.h"

namespace mg::util {

/** Append v to out as an unsigned LEB128 varint (1..10 bytes). */
void putVarint(std::vector<uint8_t>& out, uint64_t v);

/** ZigZag-encode a signed value so small magnitudes stay small. */
inline uint64_t
zigzagEncode(int64_t v)
{
    return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

/** Inverse of zigzagEncode. */
inline int64_t
zigzagDecode(uint64_t v)
{
    return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/**
 * Sequential reader over a byte span.  Bounds-checked: reading past the end
 * throws mg::util::StatusError (corrupt input is a user-facing error) whose
 * Status carries the reader's provenance context (see setContext) plus the
 * byte offset of the violation.
 */
class ByteReader
{
  public:
    ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
    explicit ByteReader(const std::vector<uint8_t>& bytes)
        : ByteReader(bytes.data(), bytes.size()) {}

    /**
     * Attach provenance for error reporting.  The file name is kept by
     * reference and must outlive the reader; the section must be a string
     * with static storage (a literal).
     */
    void
    setContext(std::string_view file, const char* section = nullptr)
    {
        ctxFile_ = file;
        ctxSection_ = section;
    }

    /** Update only the section component of the context. */
    void setSection(const char* section) { ctxSection_ = section; }

    /**
     * Decode one unsigned varint and advance.  A single-byte value (the
     * bulk of GBWT record fields) is read inline; anything else, including
     * every error, goes through the checked loop.
     */
    uint64_t
    getVarint()
    {
        if (pos_ < size_ && data_[pos_] < 0x80) [[likely]] {
            return data_[pos_++];
        }
        return getVarintSlow();
    }
    /** Decode one zigzag-coded signed varint and advance. */
    int64_t getSignedVarint() { return zigzagDecode(getVarint()); }
    /** Read one raw byte and advance. */
    uint8_t getByte();
    /** Read n raw bytes into dst and advance. */
    void getBytes(void* dst, size_t n);
    /** Read a varint-length-prefixed string. */
    std::string getString();

    size_t pos() const { return pos_; }
    size_t remaining() const { return size_ - pos_; }
    bool atEnd() const { return pos_ == size_; }
    void seek(size_t pos);
    const uint8_t* data() const { return data_; }
    size_t size() const { return size_; }

  protected:
    /** Throw a StatusError at the current position with this reader's
     *  provenance context. */
    [[noreturn]] void fail(StatusCode code, std::string what) const;

  private:
    /** getVarint() past its single-byte fast path. */
    uint64_t getVarintSlow();

    const uint8_t* data_;
    size_t size_;
    size_t pos_ = 0;
    std::string_view ctxFile_{};
    const char* ctxSection_ = nullptr;
};

/** Sequential writer producing a byte vector. */
class ByteWriter
{
  public:
    void putVarint(uint64_t v) { mg::util::putVarint(bytes_, v); }
    void putSignedVarint(int64_t v) { putVarint(zigzagEncode(v)); }
    void putByte(uint8_t b) { bytes_.push_back(b); }
    void putBytes(const void* src, size_t n);
    /** Write a varint length prefix followed by the raw characters. */
    void putString(const std::string& s);

    const std::vector<uint8_t>& bytes() const { return bytes_; }
    std::vector<uint8_t> takeBytes() { return std::move(bytes_); }
    size_t size() const { return bytes_.size(); }

  private:
    std::vector<uint8_t> bytes_;
};

} // namespace mg::util
