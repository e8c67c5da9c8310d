#include "gbwt/cached_gbwt.h"

#include <bit>

#include "util/common.h"
#include "util/dna.h"
#include "util/prefetch.h"

namespace mg::gbwt {

namespace {

/** Round up to a power of two, minimum 2. */
size_t
roundUpPow2(size_t n)
{
    if (n < 2) {
        return 2;
    }
    return std::bit_ceil(n);
}

/** Max load factor before growth: 3/4. */
bool
overloaded(size_t size, size_t capacity)
{
    return 4 * (size + 1) > 3 * capacity;
}

} // namespace

CachedGbwt::CachedGbwt(const Gbwt& gbwt, size_t initial_capacity,
                       util::MemTracer* tracer)
    : gbwt_(gbwt), tracer_(tracer), cachingEnabled_(initial_capacity > 0)
{
    if (cachingEnabled_) {
        initialSlots_ = roundUpPow2(initial_capacity);
        slots_.assign(initialSlots_, Slot{});
        // Table initialization writes every slot.  With epoch-stamped
        // clear() this is a one-time cost per cache, not per read: reuse
        // via clear() only bumps the generation counter.
        util::traceAccess(tracer_, slots_.data(),
                          static_cast<uint32_t>(std::min<size_t>(
                              slots_.size() * sizeof(Slot), UINT32_MAX)),
                          true);
        util::traceWork(tracer_, slots_.size() / 4);
    }
}

size_t
CachedGbwt::probe(uint64_t key)
{
    size_t mask = slots_.size() - 1;
    size_t index = util::hash64(key) & mask;
    while (true) {
        ++stats_.probes;
        util::traceAccess(tracer_, &slots_[index], sizeof(Slot));
        util::traceWork(tracer_, 4);
        const Slot& slot = slots_[index];
        // A never-written slot or one from an older generation terminates
        // the chain: both are reusable.  Within one epoch no slot ever
        // transitions live -> reusable, so chains stay consistent.
        if (slot.key == key || slot.key == 0 || slot.epoch != epoch_) {
            return index;
        }
        index = (index + 1) & mask;
    }
}

void
CachedGbwt::rehash()
{
    ++stats_.rehashes;
    // Build the grown table in the retained spare buffer; the old table
    // becomes the spare, so a warm cache grows without allocating.
    spare_.assign(slots_.size() * 2, Slot{});
    slots_.swap(spare_);
    const std::vector<Slot>& old = spare_;
    size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
        if (!live(slot)) {
            continue; // stale generations are not carried forward
        }
        // Reinsertion touches every old slot and a fresh table twice its
        // size: this is the expensive growth the paper tunes away from.
        size_t index = util::hash64(slot.key) & mask;
        while (slots_[index].key != 0) {
            util::traceAccess(tracer_, &slots_[index], sizeof(Slot));
            index = (index + 1) & mask;
        }
        util::traceAccess(tracer_, &slots_[index], sizeof(Slot), true);
        util::traceWork(tracer_, 8);
        slots_[index] = slot;
    }
}

const DecodedRecord&
CachedGbwt::record(graph::Handle node)
{
    ++stats_.lookups;
    if (!cachingEnabled_) {
        ++stats_.decodes;
        gbwt_.decodeRecordInto(node, uncached_, tracer_);
        return uncached_;
    }
    uint64_t key = node.packed() + 1;
    size_t index = probe(key);
    if (live(slots_[index]) && slots_[index].key == key) {
        ++stats_.hits;
        const DecodedRecord& rec = entry(slots_[index].value);
        // A hit reads the decoded record itself: what the query uses.
        rec.traceRead(tracer_);
        return rec;
    }
    ++stats_.decodes;
    if (overloaded(entriesUsed_, slots_.size())) {
        rehash();
        index = probe(key);
    }
    // Recycle a retained entry from an earlier generation when one exists;
    // decodeInto then overwrites it in place.
    if (entriesUsed_ < entriesMade_) {
        ++stats_.recycles;
    } else {
        if ((entriesMade_ >> kBlockShift) == blocks_.size()) {
            blocks_.push_back(
                std::make_unique<DecodedRecord[]>(kBlockMask + 1));
        }
        ++entriesMade_;
    }
    DecodedRecord& rec = entry(entriesUsed_);
    gbwt_.decodeRecordInto(node, rec, tracer_);
    Slot& slot = slots_[index];
    slot.key = key;
    slot.value = static_cast<uint32_t>(entriesUsed_);
    slot.epoch = epoch_;
    ++entriesUsed_;
    util::traceAccess(tracer_, &slot, sizeof(Slot), true);
    return rec;
}

SearchState
CachedGbwt::find(graph::Handle node)
{
    return SearchState(node, 0, record(node).numVisits());
}

SearchState
CachedGbwt::extend(const SearchState& state, graph::Handle to)
{
    const DecodedRecord& rec = record(state.node);
    util::traceWork(tracer_, rec.runs().size() + rec.edges().size());
    return rec.extend(state, to);
}

std::vector<SearchState>
CachedGbwt::successorStates(const SearchState& state)
{
    const DecodedRecord& rec = record(state.node);
    util::traceWork(tracer_, rec.runs().size() + rec.edges().size());
    return rec.successorStates(state);
}

void
CachedGbwt::successorStatesInto(const SearchState& state,
                                std::vector<SearchState>& out)
{
    const DecodedRecord& rec = record(state.node);
    util::traceWork(tracer_, rec.runs().size() + rec.edges().size());
    rec.successorStatesInto(state, out);
}

uint64_t
CachedGbwt::nodeCount(graph::Handle node)
{
    return record(node).numVisits();
}

void
CachedGbwt::prefetch(graph::Handle node) const
{
    if (cachingEnabled_) {
        size_t mask = slots_.size() - 1;
        size_t index = util::hash64(node.packed() + 1) & mask;
        util::prefetchRead(&slots_[index]);
    }
    // Also warm the compressed bytes; on a hit this is wasted bandwidth,
    // but inspecting the slot here would stall on the very load the hint
    // is trying to hide.
    gbwt_.prefetchRecord(node);
}

size_t
CachedGbwt::footprintBytes() const
{
    size_t bytes = (slots_.size() + spare_.size()) * sizeof(Slot);
    for (const std::unique_ptr<DecodedRecord[]>& block : blocks_) {
        for (size_t i = 0; i <= kBlockMask; ++i) {
            bytes += block[i].footprintBytes();
        }
    }
    return bytes;
}

void
CachedGbwt::clear()
{
    stats_ = CacheStats{};
    entriesUsed_ = 0;
    if (!cachingEnabled_) {
        return;
    }
    if (slots_.size() != initialSlots_) {
        // Growth past the initial capacity does not survive a reset: a
        // fresh mapping task starts at the tuned capacity, as a newly
        // constructed cache would.
        slots_.assign(initialSlots_, Slot{});
    }
    ++epoch_;
    if (epoch_ == 0) {
        // Generation counter wrapped: stamps are ambiguous, wipe once.
        for (Slot& slot : slots_) {
            slot = Slot{};
        }
        epoch_ = 1;
    }
}

} // namespace mg::gbwt
