/** Unit and property tests for the util substrate. */
#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <set>

#include "test_paths.h"
#include "util/common.h"
#include "util/crc32.h"
#include "util/csv.h"
#include "util/cursor.h"
#include "util/dna.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/str.h"
#include "util/varint.h"

namespace mg::util {
namespace {

// ---------------------------------------------------------------- varint

TEST(VarintTest, EncodesSmallValuesInOneByte)
{
    for (uint64_t v : {0ull, 1ull, 64ull, 127ull}) {
        std::vector<uint8_t> bytes;
        putVarint(bytes, v);
        EXPECT_EQ(bytes.size(), 1u) << v;
    }
}

TEST(VarintTest, RoundTripsBoundaryValues)
{
    std::vector<uint64_t> values = {
        0, 1, 127, 128, 16383, 16384, (1ull << 32) - 1, 1ull << 32,
        std::numeric_limits<uint64_t>::max(),
    };
    ByteWriter writer;
    for (uint64_t v : values) {
        writer.putVarint(v);
    }
    ByteReader reader(writer.bytes());
    for (uint64_t v : values) {
        EXPECT_EQ(reader.getVarint(), v);
    }
    EXPECT_TRUE(reader.atEnd());
}

TEST(VarintTest, SignedRoundTrip)
{
    std::vector<int64_t> values = {
        0, -1, 1, -64, 63, -65, 1000000, -1000000,
        std::numeric_limits<int64_t>::min(),
        std::numeric_limits<int64_t>::max(),
    };
    ByteWriter writer;
    for (int64_t v : values) {
        writer.putSignedVarint(v);
    }
    ByteReader reader(writer.bytes());
    for (int64_t v : values) {
        EXPECT_EQ(reader.getSignedVarint(), v);
    }
}

TEST(VarintTest, RandomRoundTripSweep)
{
    Rng rng(99);
    ByteWriter writer;
    std::vector<uint64_t> values;
    for (int i = 0; i < 2000; ++i) {
        // Bias towards small magnitudes: shift by a random amount.
        uint64_t v = rng.next() >> (rng.uniform(64));
        values.push_back(v);
        writer.putVarint(v);
    }
    ByteReader reader(writer.bytes());
    for (uint64_t v : values) {
        EXPECT_EQ(reader.getVarint(), v);
    }
}

TEST(VarintTest, TruncatedInputThrows)
{
    std::vector<uint8_t> bytes = { 0x80, 0x80 }; // continuation, no end
    ByteReader reader(bytes);
    EXPECT_THROW(reader.getVarint(), Error);
}

TEST(ByteReaderTest, StringRoundTripAndBounds)
{
    ByteWriter writer;
    writer.putString("hello");
    writer.putString("");
    writer.putString(std::string(300, 'x'));
    ByteReader reader(writer.bytes());
    EXPECT_EQ(reader.getString(), "hello");
    EXPECT_EQ(reader.getString(), "");
    EXPECT_EQ(reader.getString(), std::string(300, 'x'));
    EXPECT_THROW(reader.getByte(), Error);
}

TEST(ByteReaderTest, SeekValidation)
{
    std::vector<uint8_t> bytes = {1, 2, 3};
    ByteReader reader(bytes);
    reader.seek(3);
    EXPECT_TRUE(reader.atEnd());
    EXPECT_THROW(reader.seek(4), Error);
}

// ------------------------------------------------------------------- dna

TEST(DnaTest, BaseCodesAreInvertible)
{
    for (char base : {'A', 'C', 'G', 'T'}) {
        EXPECT_EQ(codeBase(baseCode(base)), base);
    }
    EXPECT_EQ(baseCode('N'), 0xff);
    EXPECT_EQ(baseCode('a'), 0xff);
}

TEST(DnaTest, ComplementPairs)
{
    EXPECT_EQ(complementBase('A'), 'T');
    EXPECT_EQ(complementBase('T'), 'A');
    EXPECT_EQ(complementBase('C'), 'G');
    EXPECT_EQ(complementBase('G'), 'C');
}

TEST(DnaTest, ReverseComplementIsInvolution)
{
    Rng rng(5);
    for (int i = 0; i < 50; ++i) {
        std::string seq = rng.randomDna(1 + rng.uniform(200));
        EXPECT_EQ(reverseComplement(reverseComplement(seq)), seq);
    }
}

TEST(DnaTest, ReverseComplementKnownValue)
{
    EXPECT_EQ(reverseComplement("ACGT"), "ACGT"); // palindrome
    EXPECT_EQ(reverseComplement("AAAC"), "GTTT");
    EXPECT_EQ(reverseComplement("G"), "C");
}

TEST(DnaTest, PackUnpackKmerRoundTrip)
{
    Rng rng(6);
    for (int k : {1, 2, 15, 31, 32}) {
        std::string seq = rng.randomDna(k);
        EXPECT_EQ(unpackKmer(packKmer(seq, k), k), seq) << "k=" << k;
    }
}

TEST(DnaTest, PackedReverseComplementMatchesStringVersion)
{
    Rng rng(7);
    for (int i = 0; i < 40; ++i) {
        int k = 1 + static_cast<int>(rng.uniform(32));
        std::string seq = rng.randomDna(k);
        uint64_t packed = packKmer(seq, k);
        EXPECT_EQ(unpackKmer(reverseComplementKmer(packed, k), k),
                  reverseComplement(seq));
    }
}

TEST(DnaTest, Hash64IsDeterministicAndSpreads)
{
    std::set<uint64_t> seen;
    for (uint64_t i = 0; i < 1000; ++i) {
        uint64_t h = hash64(i);
        EXPECT_EQ(h, hash64(i));
        seen.insert(h);
    }
    EXPECT_EQ(seen.size(), 1000u); // no collisions on a tiny dense range
}

// ------------------------------------------------------------------- rng

TEST(RngTest, DeterministicForSameSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(RngTest, UniformRespectsBound)
{
    Rng rng(11);
    for (int i = 0; i < 10000; ++i) {
        EXPECT_LT(rng.uniform(17), 17u);
    }
}

TEST(RngTest, UniformIntCoversRangeInclusive)
{
    Rng rng(12);
    std::set<int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        int64_t v = rng.uniformInt(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, UniformRealInHalfOpenUnitInterval)
{
    Rng rng(13);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        double v = rng.uniformReal();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(RngTest, DifferentBaseNeverReturnsInput)
{
    Rng rng(14);
    for (int i = 0; i < 400; ++i) {
        char base = rng.randomBase();
        EXPECT_NE(rng.differentBase(base), base);
    }
}

TEST(RngTest, WeightedIndexHonorsZeroWeights)
{
    Rng rng(15);
    std::vector<double> weights = {0.0, 1.0, 0.0, 2.0};
    for (int i = 0; i < 500; ++i) {
        size_t idx = rng.weightedIndex(weights);
        EXPECT_TRUE(idx == 1 || idx == 3);
    }
}

TEST(RngTest, ShufflePreservesElements)
{
    Rng rng(16);
    std::vector<int> items = {1, 2, 3, 4, 5, 6, 7};
    std::vector<int> shuffled = items;
    rng.shuffle(shuffled);
    std::multiset<int> a(items.begin(), items.end());
    std::multiset<int> b(shuffled.begin(), shuffled.end());
    EXPECT_EQ(a, b);
}

// ----------------------------------------------------------------- flags

TEST(FlagsTest, ParsesTypedValuesAndDefaults)
{
    Flags flags("prog");
    flags.define("threads", "4", "thread count")
         .define("rate", "0.5", "a rate")
         .define("name", "x", "a name")
         .define("verbose", "false", "chatty");
    const char* argv[] = {"--threads", "8", "--rate=0.25", "--verbose"};
    ASSERT_TRUE(flags.parse(4, argv));
    EXPECT_EQ(flags.integer("threads"), 8);
    EXPECT_DOUBLE_EQ(flags.real("rate"), 0.25);
    EXPECT_EQ(flags.str("name"), "x");
    EXPECT_TRUE(flags.boolean("verbose"));
}

TEST(FlagsTest, UnknownFlagThrows)
{
    Flags flags("prog");
    flags.define("a", "1", "");
    const char* argv[] = {"--nope", "3"};
    EXPECT_THROW(flags.parse(2, argv), Error);
}

TEST(FlagsTest, PositionalArgumentsCollected)
{
    Flags flags("prog");
    flags.define("a", "1", "");
    const char* argv[] = {"input.bin", "--a", "2", "more.gbz"};
    ASSERT_TRUE(flags.parse(4, argv));
    ASSERT_EQ(flags.positional().size(), 2u);
    EXPECT_EQ(flags.positional()[0], "input.bin");
    EXPECT_EQ(flags.positional()[1], "more.gbz");
}

TEST(FlagsTest, BadIntegerValueThrows)
{
    Flags flags("prog");
    flags.define("n", "1", "");
    const char* argv[] = {"--n", "abc"};
    ASSERT_TRUE(flags.parse(2, argv));
    EXPECT_THROW(flags.integer("n"), Error);
}

// ------------------------------------------------------------------- str

TEST(StrTest, SplitPreservesEmptyFields)
{
    auto parts = split("a,,b,", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "");
    EXPECT_EQ(parts[2], "b");
    EXPECT_EQ(parts[3], "");
}

TEST(StrTest, JoinInvertsSplit)
{
    std::vector<std::string> parts = {"x", "y", "z"};
    EXPECT_EQ(join(parts, ","), "x,y,z");
    EXPECT_EQ(split(join(parts, ","), ','), parts);
}

TEST(StrTest, TrimRemovesSurroundingWhitespace)
{
    EXPECT_EQ(trim("  abc \t\n"), "abc");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(StrTest, PaddingWidths)
{
    EXPECT_EQ(padRight("ab", 5), "ab   ");
    EXPECT_EQ(padLeft("ab", 5), "   ab");
    EXPECT_EQ(padRight("abcdef", 3), "abcdef"); // never truncates
}

TEST(StrTest, FixedFormatting)
{
    EXPECT_EQ(fixed(3.14159, 2), "3.14");
    EXPECT_EQ(fixed(-0.5, 1), "-0.5");
}

// ------------------------------------------------------------------- csv

TEST(CsvTest, WritesHeaderAndEscapesFields)
{
    std::string path = testPath("mg_csv_test.csv");
    {
        CsvWriter csv(path, {"a", "b"});
        csv.row({"1", "plain"});
        csv.row({"with,comma", "with\"quote"});
    }
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "a,b");
    std::getline(in, line);
    EXPECT_EQ(line, "1,plain");
    std::getline(in, line);
    EXPECT_EQ(line, "\"with,comma\",\"with\"\"quote\"");
}

// ---------------------------------------------------------------- common

TEST(CommonTest, RequireThrowsWithMessage)
{
    try {
        require(false, "bad thing ", 42);
        FAIL() << "expected throw";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("bad thing 42"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------- crc32

TEST(Crc32Test, EmptyInputIsZero)
{
    EXPECT_EQ(crc32(nullptr, 0), 0x00000000u);
    Crc32 crc;
    EXPECT_EQ(crc.value(), 0x00000000u);
}

TEST(Crc32Test, KnownVectors)
{
    // The classic CRC32 check value, plus a couple of cross-checked
    // references (python zlib.crc32).
    const char check[] = "123456789";
    EXPECT_EQ(crc32(check, 9), 0xCBF43926u);
    const char a[] = "a";
    EXPECT_EQ(crc32(a, 1), 0xE8B7BE43u);
    const char abc[] = "abc";
    EXPECT_EQ(crc32(abc, 3), 0x352441C2u);
}

TEST(Crc32Test, IncrementalMatchesOneShot)
{
    std::vector<uint8_t> bytes(300);
    for (size_t i = 0; i < bytes.size(); ++i) {
        bytes[i] = static_cast<uint8_t>(i * 7 + 3);
    }
    uint32_t whole = crc32(bytes.data(), bytes.size());
    // Feed in uneven chunks, including an empty one.
    Crc32 crc;
    crc.update(bytes.data(), 1);
    crc.update(bytes.data() + 1, 0);
    crc.update(bytes.data() + 1, 128);
    crc.update(bytes.data() + 129, bytes.size() - 129);
    EXPECT_EQ(crc.value(), whole);
    // reset() starts a fresh stream.
    crc.reset();
    crc.update(bytes.data(), bytes.size());
    EXPECT_EQ(crc.value(), whole);
}

TEST(Crc32Test, SingleBitFlipChangesChecksum)
{
    std::vector<uint8_t> bytes(64, 0xAB);
    uint32_t clean = crc32(bytes.data(), bytes.size());
    for (size_t i = 0; i < bytes.size(); ++i) {
        bytes[i] ^= 0x01;
        EXPECT_NE(crc32(bytes.data(), bytes.size()), clean) << i;
        bytes[i] ^= 0x01;
    }
}

// ---------------------------------------------------------------- status

TEST(StatusTest, ToStringCarriesProvenance)
{
    Status status;
    status.code = StatusCode::Truncated;
    status.message = "need 8 bytes";
    status.file = "graph.mgz";
    status.section = "nodes";
    status.offset = 517;
    std::string text = status.toString();
    EXPECT_NE(text.find("truncated"), std::string::npos);
    EXPECT_NE(text.find("need 8 bytes"), std::string::npos);
    EXPECT_NE(text.find("graph.mgz"), std::string::npos);
    EXPECT_NE(text.find("nodes"), std::string::npos);
    EXPECT_NE(text.find("517"), std::string::npos);
}

TEST(StatusTest, StatusErrorIsAnError)
{
    Status status;
    status.code = StatusCode::Corrupt;
    status.message = "bad magic";
    try {
        throwStatus(status);
        FAIL() << "expected throw";
    } catch (const Error& e) { // legacy catch sites keep working
        EXPECT_NE(std::string(e.what()).find("bad magic"),
                  std::string::npos);
        const auto* structured = dynamic_cast<const StatusError*>(&e);
        ASSERT_NE(structured, nullptr);
        EXPECT_EQ(structured->status().code, StatusCode::Corrupt);
    }
}

// ---------------------------------------------------------------- cursor

TEST(ByteCursorTest, BoundsViolationReportsFileSectionOffset)
{
    std::vector<uint8_t> bytes = {1, 2, 3, 4};
    ByteCursor cursor(bytes, "cap.bin");
    cursor.enterSection("reads");
    cursor.getByte();
    cursor.getByte();
    try {
        uint8_t sink[4];
        cursor.getBytes(sink, sizeof(sink));
        FAIL() << "expected throw";
    } catch (const StatusError& e) {
        EXPECT_EQ(e.status().code, StatusCode::Truncated);
        EXPECT_EQ(e.status().file, "cap.bin");
        EXPECT_EQ(e.status().section, "reads");
        EXPECT_EQ(e.status().offset, 2u);
    }
}

TEST(ByteCursorTest, CheckRaisesWithFormattedMessage)
{
    std::vector<uint8_t> bytes = {9};
    ByteCursor cursor(bytes, "f.bin");
    cursor.check(true, StatusCode::Corrupt, "never thrown");
    try {
        cursor.check(false, StatusCode::Corrupt, "count ", 12, " too big");
        FAIL() << "expected throw";
    } catch (const StatusError& e) {
        EXPECT_EQ(e.status().code, StatusCode::Corrupt);
        EXPECT_NE(e.status().message.find("count 12 too big"),
                  std::string::npos);
        EXPECT_EQ(e.status().file, "f.bin");
    }
}

} // namespace
} // namespace mg::util
