/**
 * @file
 * Oriented node handles and graph positions, following the VG toolkit's
 * handle-graph convention: a handle packs a node id and an orientation into
 * one 64-bit word, so traversals work uniformly on both strands of the
 * pangenome.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace mg::graph {

/** Node identifier; ids are dense and 1-based, 0 is invalid. */
using NodeId = uint64_t;

inline constexpr NodeId kInvalidNodeId = 0;

/**
 * An oriented reference to a graph node.  Bit 0 holds the orientation
 * (0 = forward strand, 1 = reverse complement), the remaining bits hold the
 * node id.
 */
class Handle
{
  public:
    Handle() : packed_(0) {}

    Handle(NodeId id, bool is_reverse)
        : packed_((id << 1) | (is_reverse ? 1 : 0))
    {}

    NodeId id() const { return packed_ >> 1; }
    bool isReverse() const { return packed_ & 1; }

    /** The same node in the opposite orientation. */
    Handle flip() const { return Handle::fromPacked(packed_ ^ 1); }

    /** Raw packed value, usable as a dense array index (2*id [+1]). */
    uint64_t packed() const { return packed_; }

    static Handle
    fromPacked(uint64_t packed)
    {
        Handle h;
        h.packed_ = packed;
        return h;
    }

    bool valid() const { return id() != kInvalidNodeId; }

    friend bool operator==(Handle a, Handle b)
    {
        return a.packed_ == b.packed_;
    }
    friend bool operator!=(Handle a, Handle b)
    {
        return a.packed_ != b.packed_;
    }
    friend bool operator<(Handle a, Handle b)
    {
        return a.packed_ < b.packed_;
    }

    /** "12+" / "12-" rendering for logs and tests. */
    std::string str() const;

  private:
    uint64_t packed_;
};

/**
 * A Handle narrowed to the 32 bits the graph's edge table stores (node
 * ids up to 2^31 - 1).  It converts to Handle implicitly, so a span of
 * them reads as a range of handles.
 */
struct PackedHandle
{
    uint32_t packed = 0;

    operator Handle() const { return Handle::fromPacked(packed); }

    friend bool operator==(PackedHandle, PackedHandle) = default;
};

/**
 * A base-level position on the graph: an oriented node plus an offset into
 * that node's sequence as read in the handle's orientation.
 */
struct Position
{
    Handle handle;
    uint32_t offset = 0;

    friend bool operator==(const Position& a, const Position& b)
    {
        return a.handle == b.handle && a.offset == b.offset;
    }
    friend bool operator<(const Position& a, const Position& b)
    {
        if (a.handle != b.handle) {
            return a.handle < b.handle;
        }
        return a.offset < b.offset;
    }

    std::string str() const;
};

} // namespace mg::graph

namespace std {

template <>
struct hash<mg::graph::Handle>
{
    size_t operator()(mg::graph::Handle h) const noexcept
    {
        return std::hash<uint64_t>()(h.packed());
    }
};

} // namespace std
