/**
 * Property suite for the 2-bit packed sequence substrate: pack/unpack and
 * reverse-complement round-trips, shift-carry chunk reads at every offset,
 * the canonicalization policy, the packed SequenceStore, and — the core of
 * the suite — 10k randomized match-run trials pitting the SWAR kernel
 * (matchRunPacked) and its scalar oracle (matchRunScalar) against a
 * per-character ground truth, including word-boundary starts, runs ending
 * exactly on 31/32/63/64-base edges, adversarial tail lengths, span
 * cutoffs, and sanitized non-ACGT input.  Registered like every other
 * mg_test, so ASan+UBSan MG_SANITIZE builds run the whole suite under
 * both sanitizers.
 */
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "graph/sequence_store.h"
#include "util/common.h"
#include "util/dna.h"
#include "util/rng.h"

namespace mg::util {
namespace {

/** Pack a string into a fresh pad-word-correct buffer. */
std::vector<uint64_t>
packString(std::string_view seq, uint64_t at = 0)
{
    std::vector<uint64_t> words(packedBufferWords(at + seq.size()), 0);
    packAsciiInto(seq, words.data(), at);
    return words;
}

TEST(SanitizePolicyTest, CountsAndCanonicalizes)
{
    std::string clean = "acgtACGT";
    SanitizeCounts counts = sanitizeDna(clean);
    EXPECT_EQ(clean, "ACGTACGT");
    EXPECT_EQ(counts.ambiguous, 0u); // case-normalization is not counted
    EXPECT_EQ(counts.invalid, 0u);

    std::string ambiguous = "ANRYKMSWBDHVNU";
    counts = sanitizeDna(ambiguous);
    EXPECT_EQ(ambiguous, "AAAAAAAAAAAAAA");
    EXPECT_EQ(counts.ambiguous, 13u);
    EXPECT_EQ(counts.invalid, 0u);

    std::string garbage = "AC-T*";
    counts = sanitizeDna(garbage);
    EXPECT_EQ(garbage, "ACATA");
    EXPECT_EQ(counts.ambiguous, 0u);
    EXPECT_EQ(counts.invalid, 2u);
}

TEST(SanitizePolicyTest, CanonicalCodeFollowsPolicy)
{
    EXPECT_EQ(canonicalCode('A'), 0);
    EXPECT_EQ(canonicalCode('a'), 0);
    EXPECT_EQ(canonicalCode('c'), 1);
    EXPECT_EQ(canonicalCode('G'), 2);
    EXPECT_EQ(canonicalCode('t'), 3);
    EXPECT_EQ(canonicalCode('N'), 0); // ambiguity letters read as 'A'
    EXPECT_EQ(canonicalCode('R'), 0);
    EXPECT_EQ(canonicalCode('-'), 0); // invalid bytes too (ingest rejects)
}

TEST(PackedDnaTest, PackUnpackRoundTrip)
{
    Rng rng(101);
    for (size_t len : {size_t{0}, size_t{1}, size_t{31}, size_t{32},
                       size_t{33}, size_t{63}, size_t{64}, size_t{65},
                       size_t{200}, size_t{977}}) {
        std::string seq = rng.randomDna(len);
        std::vector<uint64_t> words = packString(seq);
        EXPECT_EQ(unpackPacked(words.data(), 0, len), seq);
        for (size_t i = 0; i < len; ++i) {
            EXPECT_EQ(codeBase(packedCode(words.data(), i)), seq[i]);
        }
        // Tail bits past the data must be zero (RC derivation relies on it).
        if (len % kBasesPerWord != 0) {
            uint64_t tail = words[len / kBasesPerWord];
            EXPECT_EQ(tail & ~basesMask(len % kBasesPerWord), 0u);
        }
        EXPECT_EQ(words.back(), 0u); // pad word untouched
    }
}

TEST(PackedDnaTest, Chunk32AtEveryOffset)
{
    Rng rng(102);
    std::string seq = rng.randomDna(128);
    std::vector<uint64_t> words = packString(seq);
    for (uint64_t p = 0; p <= 96; ++p) {
        uint64_t chunk = chunk32(words.data(), p);
        for (uint32_t b = 0; b < kBasesPerWord; ++b) {
            ASSERT_EQ(static_cast<uint8_t>((chunk >> (2 * b)) & 3u),
                      packedCode(words.data(), p + b))
                << "offset " << p << " base " << b;
        }
    }
}

TEST(PackedDnaTest, RcWordMatchesStringReverseComplement)
{
    Rng rng(103);
    for (int trial = 0; trial < 50; ++trial) {
        std::string seq = rng.randomDna(32);
        std::vector<uint64_t> words = packString(seq);
        std::vector<uint64_t> rc = {rcWord(words[0]), 0};
        EXPECT_EQ(unpackPacked(rc.data(), 0, 32), reverseComplement(seq));
    }
}

TEST(PackedDnaTest, ReverseComplementPackedMatchesString)
{
    Rng rng(104);
    std::vector<size_t> lengths = {1, 2, 31, 32, 33, 64, 96, 97};
    for (int trial = 0; trial < 40; ++trial) {
        lengths.push_back(1 + rng.uniform(300));
    }
    for (size_t len : lengths) {
        std::string seq = rng.randomDna(len);
        std::vector<uint64_t> fwd = packString(seq);
        std::vector<uint64_t> rc(packedBufferWords(len), 0);
        reverseComplementPacked(fwd.data(), len, rc.data());
        ASSERT_EQ(unpackPacked(rc.data(), 0, len), reverseComplement(seq))
            << "len " << len;
        // Involution: RC(RC(x)) == x, and tail bits stay zero.
        std::vector<uint64_t> back(packedBufferWords(len), 0);
        reverseComplementPacked(rc.data(), len, back.data());
        ASSERT_EQ(unpackPacked(back.data(), 0, len), seq);
        if (len % kBasesPerWord != 0) {
            EXPECT_EQ(rc[len / kBasesPerWord] &
                          ~basesMask(len % kBasesPerWord),
                      0u);
        }
    }
}

TEST(PackedDnaTest, CopyPackedIntoArbitraryOffsets)
{
    Rng rng(105);
    for (uint64_t dst_base : {uint64_t{0}, uint64_t{1}, uint64_t{31},
                              uint64_t{32}, uint64_t{33}, uint64_t{63},
                              uint64_t{100}}) {
        size_t len = 1 + rng.uniform(150);
        std::string seq = rng.randomDna(len);
        std::vector<uint64_t> src = packString(seq);
        std::vector<uint64_t> dst(packedBufferWords(dst_base + len), 0);
        copyPackedInto(dst.data(), dst_base, src.data(), len);
        ASSERT_EQ(unpackPacked(dst.data(), dst_base, len), seq)
            << "dst_base " << dst_base;
    }
}

/** Per-character ground truth for the match-run kernels. */
uint32_t
charMatchRun(std::string_view a, std::string_view b, uint32_t span)
{
    uint32_t i = 0;
    while (i < span && a[i] == b[i]) {
        ++i;
    }
    return i;
}

TEST(PackedDnaTest, MatchRunAllVariantsVsCharGroundTruth)
{
    Rng rng(106);
    for (int trial = 0; trial < 10000; ++trial) {
        // Word-boundary coverage: starts anywhere in the first two words.
        uint64_t abase = rng.uniform(64);
        uint64_t bbase = rng.uniform(64);
        // Spans up to 300 bases, with every tail length 0–63 hit often,
        // so the SWAR loop sees both single-chunk runs and many chunks
        // plus a ragged tail.
        uint32_t span = static_cast<uint32_t>(
            trial % 2 == 0 ? rng.uniform(100) : rng.uniform(300));
        std::string q = rng.randomDna(span);
        std::string t = q;
        switch (trial % 5) {
        case 0:
            // Random mutations anywhere (including none).
            for (uint32_t m = rng.uniform(3); m > 0; --m) {
                if (span == 0) {
                    break;
                }
                size_t at = rng.uniform(span);
                t[at] = rng.differentBase(t[at]);
            }
            break;
        case 1:
            // Run ends exactly on a word edge of the a-side.
            if (span > 0) {
                uint64_t edge = ((abase / 32) + 1) * 32;
                if (edge > abase && edge - abase <= span) {
                    size_t at = static_cast<size_t>(edge - abase);
                    if (at < span) {
                        t[at] = rng.differentBase(t[at]);
                    }
                }
            }
            break;
        case 2:
            // Mismatch in the very first base.
            if (span > 0) {
                t[0] = rng.differentBase(t[0]);
            }
            break;
        case 3:
            // Exact match: the run must end at the span cutoff even though
            // the packed buffers keep matching beyond it.
            break;
        case 4: {
            // Mismatch straddling a chunk boundary: one base before or
            // after the 32/64/128/256-base marks (relative to the span
            // start), the off-by-one hot spots of the chunked loop.
            if (span == 0) {
                break;
            }
            const uint32_t lanes[] = {31, 32, 63, 64, 127, 128, 255, 256};
            uint32_t at = lanes[rng.uniform(8)];
            if (at < span) {
                t[at] = rng.differentBase(t[at]);
            }
            break;
        }
        }
        std::vector<uint64_t> a = packString(q, abase);
        std::vector<uint64_t> b = packString(t, bbase);
        uint32_t expect = charMatchRun(q, t, span);
        ASSERT_EQ(matchRunScalar(a.data(), abase, b.data(), bbase, span),
                  expect)
            << "scalar trial " << trial << " abase " << abase << " bbase "
            << bbase << " span " << span;
        uint64_t words = 0;
        uint32_t swar =
            matchRunPacked(a.data(), abase, b.data(), bbase, span, words);
        ASSERT_EQ(swar, expect)
            << "swar trial " << trial << " abase " << abase << " bbase "
            << bbase << " span " << span;
        // Chunk-count bounds: one XOR per started 32-base block of the
        // scanned prefix.
        if (span > 0) {
            ASSERT_GE(words, (uint64_t{swar} + 31) / 32);
            ASSERT_LE(words, uint64_t{span} / 32 + 1);
        }
    }
}

TEST(PackedDnaTest, MatchRunVariantsOnSanitizedInput)
{
    // Ambiguity letters and stray bytes canonicalize to 'A' before
    // packing; both kernels must agree on the sanitized strings.
    Rng rng(110);
    const std::string alphabet = "ACGTNRYKMSWBDHVU-acgtn";
    for (int trial = 0; trial < 2000; ++trial) {
        uint32_t span = static_cast<uint32_t>(rng.uniform(200));
        std::string q, t;
        for (uint32_t i = 0; i < span; ++i) {
            q.push_back(alphabet[rng.uniform(alphabet.size())]);
            t.push_back(rng.chance(0.9)
                            ? q.back()
                            : alphabet[rng.uniform(alphabet.size())]);
        }
        std::string qs = q, ts = t;
        sanitizeDna(qs);
        sanitizeDna(ts);
        uint64_t abase = rng.uniform(64);
        uint64_t bbase = rng.uniform(64);
        // packAsciiInto applies the same canonicalization, so packing the
        // raw strings must equal packing the sanitized ones.
        std::vector<uint64_t> a = packString(q, abase);
        std::vector<uint64_t> b = packString(t, bbase);
        uint32_t expect = charMatchRun(qs, ts, span);
        uint64_t words = 0;
        ASSERT_EQ(matchRunScalar(a.data(), abase, b.data(), bbase, span),
                  expect)
            << "scalar trial " << trial;
        ASSERT_EQ(
            matchRunPacked(a.data(), abase, b.data(), bbase, span, words),
            expect)
            << "swar trial " << trial;
    }
}

TEST(PackedDnaTest, MatchRunAdversarialTails)
{
    // Long identical prefixes with the first difference placed in every
    // tail position 0–63 after each multiple of 64 up to 256, at random
    // intra-word phases: the chunk-to-chunk handoff must be seamless.
    Rng rng(111);
    for (uint32_t stride : {uint32_t{0}, uint32_t{64}, uint32_t{128},
                            uint32_t{256}}) {
        for (uint32_t tail = 0; tail < 64; ++tail) {
            const uint32_t at = stride + tail;
            const uint32_t span = at + 1 + rng.uniform(40);
            const uint64_t abase = rng.uniform(32);
            const uint64_t bbase = rng.uniform(32);
            std::string q = rng.randomDna(span);
            std::string t = q;
            t[at] = rng.differentBase(t[at]);
            std::vector<uint64_t> a = packString(q, abase);
            std::vector<uint64_t> b = packString(t, bbase);
            uint64_t words = 0;
            ASSERT_EQ(
                matchRunScalar(a.data(), abase, b.data(), bbase, span), at)
                << "scalar stride " << stride << " tail " << tail;
            ASSERT_EQ(matchRunPacked(a.data(), abase, b.data(), bbase, span,
                                     words),
                      at)
                << "swar stride " << stride << " tail " << tail;
        }
    }
}

TEST(PackedSpanTest, AccessorsDecodeTheRange)
{
    Rng rng(107);
    std::string seq = rng.randomDna(90);
    std::vector<uint64_t> words = packString(seq, 17);
    PackedSpan span{words.data(), 17, 90};
    EXPECT_EQ(span.str(), seq);
    for (uint32_t i = 0; i < span.size; ++i) {
        ASSERT_EQ(span.at(i), seq[i]);
    }
}

} // namespace
} // namespace mg::util

namespace mg::graph {
namespace {

TEST(PackedSequenceStoreTest, StoresBothStrandsAndSanitizes)
{
    SequenceStore store;
    store.addNode("ACGNT"); // N -> A under the policy
    EXPECT_EQ(store.numNodes(), 1u);
    EXPECT_EQ(store.forwardSequence(1), "ACGAT");
    EXPECT_EQ(store.sequence(Handle(1, true)), "ATCGT");
    EXPECT_EQ(store.sanitizedBases(), 1u);
    EXPECT_THROW(store.addNode("AC T"), util::Error);

    util::Rng rng(108);
    std::vector<std::string> seqs;
    for (int i = 0; i < 40; ++i) {
        seqs.push_back(rng.randomDna(1 + rng.uniform(120)));
        store.addNode(seqs.back());
    }
    for (size_t i = 0; i < seqs.size(); ++i) {
        NodeId id = static_cast<NodeId>(i + 2);
        ASSERT_EQ(store.length(id), seqs[i].size());
        ASSERT_EQ(store.forwardSequence(id), seqs[i]);
        ASSERT_EQ(store.sequence(Handle(id, true)),
                  util::reverseComplement(seqs[i]));
        ASSERT_EQ(store.packedView(Handle(id, false)).str(), seqs[i]);
        for (size_t off = 0; off < seqs[i].size(); ++off) {
            ASSERT_EQ(store.base(Handle(id, false), off), seqs[i][off]);
        }
    }
}

TEST(PackedSequenceStoreTest, FootprintReportsResidentAndReserved)
{
    SequenceStore store;
    store.reserveBases(1 << 16);
    store.addNode("ACGTACGTACGTACGT");
    EXPECT_GT(store.footprintBytes(), 0u);
    EXPECT_EQ(store.footprintBytes(),
              store.arenaBytes() + store.offsetTableBytes());
    // reserveBases left far more capacity than data: reserved >> resident.
    EXPECT_GT(store.reservedBytes(), store.footprintBytes());
    // 2 bits per base, both strands: arena words for 2*16 bases + pad.
    EXPECT_EQ(store.arenaBytes(),
              util::packedBufferWords(2 * 16) * sizeof(uint64_t));
}

} // namespace
} // namespace mg::graph
