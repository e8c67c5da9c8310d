#include "gbwt/gbwt.h"

#include <algorithm>

#include "util/common.h"

namespace mg::gbwt {

bool
Gbwt::hasRecord(graph::Handle node) const
{
    auto [data, size] = recordSpan(node);
    (void)data;
    return size > 0;
}

std::pair<const uint8_t*, size_t>
Gbwt::recordSpan(graph::Handle node) const
{
    uint64_t slot = node.packed();
    if (slot + 1 >= recordOffsets_.size()) {
        return {nullptr, 0};
    }
    uint64_t begin = recordOffsets_[slot];
    uint64_t end = recordOffsets_[slot + 1];
    return {arena_.data() + begin, end - begin};
}

DecodedRecord
Gbwt::decodeRecord(graph::Handle node, util::MemTracer* tracer) const
{
    DecodedRecord record;
    decodeRecordInto(node, record, tracer);
    return record;
}

void
Gbwt::decodeRecordInto(graph::Handle node, DecodedRecord& out,
                       util::MemTracer* tracer) const
{
    auto [data, size] = recordSpan(node);
    if (size == 0) {
        out.clear();
        return;
    }
    // The decode touches the compressed bytes sequentially; this is the
    // access CachedGBWT exists to amortize.
    util::traceAccess(tracer, data, static_cast<uint32_t>(size));
    util::traceWork(tracer, size * 4);
    util::ByteCursor cursor(data, size);
    cursor.enterSection("gbwt-record");
    DecodedRecord::decodeInto(cursor, out);
}

SearchState
Gbwt::find(graph::Handle node, util::MemTracer* tracer) const
{
    DecodedRecord record = decodeRecord(node, tracer);
    return SearchState(node, 0, record.numVisits());
}

SearchState
Gbwt::extend(const SearchState& state, graph::Handle to,
             util::MemTracer* tracer) const
{
    DecodedRecord record = decodeRecord(state.node, tracer);
    return record.extend(state, to);
}

uint64_t
Gbwt::nodeCount(graph::Handle node, util::MemTracer* tracer) const
{
    return decodeRecord(node, tracer).numVisits();
}

std::vector<uint32_t>
Gbwt::locate(const SearchState& state) const
{
    std::vector<uint32_t> ids;
    if (state.empty()) {
        return ids;
    }
    uint64_t slot = state.node.packed();
    util::require(slot + 1 < docOffsets_.size(),
                  "locate: state references an unknown node");
    util::ByteReader reader(docArena_.data() + docOffsets_[slot],
                            docOffsets_[slot + 1] - docOffsets_[slot]);
    // Visits are varint path ids in visit order; skip to the range.
    for (uint64_t i = 0; i < state.start; ++i) {
        reader.getVarint();
    }
    ids.reserve(state.size());
    for (uint64_t i = state.start; i < state.end; ++i) {
        ids.push_back(static_cast<uint32_t>(reader.getVarint()));
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    return ids;
}

std::vector<uint32_t>
Gbwt::pathsThrough(const std::vector<graph::Handle>& walk) const
{
    if (walk.empty()) {
        return {};
    }
    SearchState state = find(walk.front());
    for (size_t i = 1; i < walk.size() && !state.empty(); ++i) {
        state = extend(state, walk[i]);
    }
    return locate(state);
}

Gbwt::ArenaRefs
Gbwt::arenaRefs() const
{
    return ArenaRefs{
        arena_.data(),         arena_.size(),
        recordOffsets_.data(), recordOffsets_.size(),
        docArena_.data(),      docArena_.size(),
        docOffsets_.data(),    docOffsets_.size(),
    };
}

void
Gbwt::bindMapped(std::shared_ptr<mem::MappedFile> file,
                 const ArenaRefs& refs, uint64_t num_paths,
                 uint64_t total_visits)
{
    auto check_offsets = [](const uint32_t* offsets, size_t count,
                            size_t arena_size, const char* what) {
        if (count == 0) {
            util::require(arena_size == 0, what,
                          ": arena bytes with no offset table");
            return;
        }
        uint32_t prev = 0;
        util::require(offsets[0] == 0, what, ": table must start at 0");
        for (size_t i = 1; i < count; ++i) {
            util::require(offsets[i] >= prev, what,
                          ": non-monotone offset at entry ", i);
            prev = offsets[i];
        }
        util::require(prev == arena_size, what,
                      ": offsets inconsistent with arena size ", arena_size);
    };
    check_offsets(refs.recordOffsets, refs.numRecordOffsets, refs.arenaSize,
                  "gbwt.offsets");
    check_offsets(refs.docOffsets, refs.numDocOffsets, refs.docArenaSize,
                  "gbwt.docoffs");
    util::require(refs.numRecordOffsets == refs.numDocOffsets,
                  "gbwt: record/document offset tables disagree: ",
                  refs.numRecordOffsets, " vs ", refs.numDocOffsets);
    arena_ = mem::ArenaView<uint8_t>();
    recordOffsets_ = mem::ArenaView<uint32_t>();
    docArena_ = mem::ArenaView<uint8_t>();
    docOffsets_ = mem::ArenaView<uint32_t>();
    arena_.bind(file, refs.arena, refs.arenaSize);
    recordOffsets_.bind(file, refs.recordOffsets, refs.numRecordOffsets);
    docArena_.bind(file, refs.docArena, refs.docArenaSize);
    docOffsets_.bind(std::move(file), refs.docOffsets, refs.numDocOffsets);
    numPaths_ = num_paths;
    totalVisits_ = total_visits;
}

} // namespace mg::gbwt
