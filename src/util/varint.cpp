#include "util/varint.h"

#include <cstring>

namespace mg::util {

void
putVarint(std::vector<uint8_t>& out, uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<uint8_t>(v));
}

void
ByteReader::fail(StatusCode code, std::string what) const
{
    Status status;
    status.code = code;
    status.message = std::move(what);
    status.file = std::string(ctxFile_);
    status.section = ctxSection_ ? ctxSection_ : "";
    status.offset = pos_;
    throwStatus(std::move(status));
}

uint64_t
ByteReader::getVarintSlow()
{
    uint64_t value = 0;
    int shift = 0;
    while (true) {
        if (pos_ >= size_) {
            fail(StatusCode::Truncated,
                 cat("varint truncated at offset ", pos_));
        }
        uint8_t byte = data_[pos_++];
        if (shift >= 64) {
            fail(StatusCode::Corrupt,
                 cat("varint too long at offset ", pos_));
        }
        value |= static_cast<uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80)) {
            break;
        }
        shift += 7;
    }
    return value;
}

uint8_t
ByteReader::getByte()
{
    if (pos_ >= size_) {
        fail(StatusCode::Truncated,
             cat("byte read past end at offset ", pos_));
    }
    return data_[pos_++];
}

void
ByteReader::getBytes(void* dst, size_t n)
{
    if (n > size_ - pos_) {
        fail(StatusCode::Truncated,
             cat("raw read of ", n, " bytes past end at offset ", pos_));
    }
    std::memcpy(dst, data_ + pos_, n);
    pos_ += n;
}

std::string
ByteReader::getString()
{
    uint64_t len = getVarint();
    if (len > size_ - pos_) {
        fail(StatusCode::Truncated,
             cat("string of length ", len, " truncated at offset ", pos_));
    }
    std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return s;
}

void
ByteReader::seek(size_t pos)
{
    if (pos > size_) {
        fail(StatusCode::InvalidArgument,
             cat("seek past end: ", pos, " > ", size_));
    }
    pos_ = pos;
}

void
ByteWriter::putBytes(const void* src, size_t n)
{
    const uint8_t* p = static_cast<const uint8_t*>(src);
    bytes_.insert(bytes_.end(), p, p + n);
}

void
ByteWriter::putString(const std::string& s)
{
    putVarint(s.size());
    putBytes(s.data(), s.size());
}

} // namespace mg::util
