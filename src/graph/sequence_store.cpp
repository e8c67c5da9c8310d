#include "graph/sequence_store.h"

#include "util/common.h"
#include "util/status.h"

namespace mg::graph {

void
SequenceStore::addNode(std::string_view forward_sequence)
{
    auto& words = words_.owned();
    auto& offsets = offsets_.owned();
    if (offsets.empty()) {
        offsets.push_back(0);
    }
    // Canonicalize once into scratch: ambiguity letters -> 'A' (counted),
    // non-letters rejected.  Everything downstream assumes pure ACGT.
    sanitizeScratch_.assign(forward_sequence);
    util::SanitizeCounts counts = util::sanitizeDna(sanitizeScratch_);
    MG_CHECK(counts.invalid == 0,
             "node sequence contains non-IUPAC characters (", counts.invalid,
             " invalid bytes)");

    const uint64_t len = sanitizeScratch_.size();
    const uint64_t begin = offsets.back();
    const uint64_t total = begin + 2 * len;
    const uint32_t end = util::fitU32(total, "seq.offsets");
    sanitizedBases_ += counts.ambiguous;
    const uint64_t node_words = util::packedDataWords(len);
    packScratch_.assign(node_words, 0);
    rcScratch_.assign(node_words, 0);
    util::packAsciiInto(sanitizeScratch_, packScratch_.data(), 0);
    util::reverseComplementPacked(packScratch_.data(), len,
                                  rcScratch_.data());

    // Data words plus the pad word chunk32 needs; new words arrive zeroed,
    // and the old pad word simply becomes a data word to OR into.
    words.resize(util::packedBufferWords(total), 0);
    util::copyPackedInto(words.data(), begin, packScratch_.data(), len);
    offsets.push_back(static_cast<uint32_t>(begin + len));
    util::copyPackedInto(words.data(), begin + len, rcScratch_.data(), len);
    offsets.push_back(end);
    ++numNodes_;
}

void
SequenceStore::bindMapped(std::shared_ptr<mem::MappedFile> file,
                          const uint64_t* words, size_t num_words,
                          const uint32_t* offsets, size_t num_offsets,
                          size_t num_nodes, size_t sanitized_bases)
{
    util::require(num_offsets == 2 * num_nodes + 1,
                  "seq.offsets: expected ", 2 * num_nodes + 1,
                  " entries for ", num_nodes, " nodes, got ", num_offsets);
    util::require(offsets[0] == 0, "seq.offsets: table must start at 0");
    for (size_t node = 0; node < num_nodes; ++node) {
        // Slots 2k and 2k+1 are one node's forward and reverse strands.
        const uint32_t begin = offsets[2 * node];
        const uint32_t middle = offsets[2 * node + 1];
        const uint32_t end = offsets[2 * node + 2];
        util::require(middle > begin && end > middle,
                      "seq.offsets: non-increasing at node ", node + 1,
                      " (empty node sequences are never written)");
        util::require(end - middle == middle - begin,
                      "seq.offsets: node ", node + 1, " has strands of ",
                      middle - begin, " and ", end - middle, " bases");
    }
    const uint64_t bases = offsets[num_offsets - 1];
    util::require(num_words == util::packedBufferWords(bases),
                  "seq.words: ", num_words, " words inconsistent with ",
                  bases, " packed bases");
    words_ = mem::ArenaView<uint64_t>();
    offsets_ = mem::ArenaView<uint32_t>();
    words_.bind(file, words, num_words);
    offsets_.bind(std::move(file), offsets, num_offsets);
    numNodes_ = num_nodes;
    sanitizedBases_ = sanitized_bases;
}

} // namespace mg::graph
