/**
 * Crash-consistent checkpoint/resume tests: shard and manifest codec
 * roundtrips and rejection paths, the durable writer + loader, torn-write
 * detection, and the crash matrix — a child process SIGKILLed at injected
 * fault points inside the durability protocol, after which the parent
 * process resumes the run and must reproduce the uninterrupted GAF byte
 * for byte, for every scheduler.
 */
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <filesystem>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "giraffe/checkpoint_run.h"
#include "giraffe/parent.h"
#include "io/checkpoint.h"
#include "io/file.h"
#include "io/gaf.h"
#include "sim/pangenome_gen.h"
#include "sim/read_sim.h"
#include "test_paths.h"

namespace mg::io {
namespace {

/** Fresh (empty) checkpoint directory under the test temp root. */
std::string
freshDir(const std::string& name)
{
    std::filesystem::path dir = testPath(name);
    std::filesystem::remove_all(dir);
    return dir.string();
}

Shard
sampleShard(uint64_t begin, uint64_t end)
{
    Shard shard;
    shard.begin = begin;
    shard.end = end;
    for (uint64_t i = begin; i < end; ++i) {
        shard.gaf += "read" + std::to_string(i) + "\t100\t0\t100\t+\n";
    }
    shard.stats.deadlineHits = 1;
    shard.stats.stepCapHits = 2;
    shard.stats.cacheLookups = 300;
    shard.stats.cacheHits = 250;
    return shard;
}

// ------------------------------------------------------------------ codec

TEST(CheckpointCodecTest, ShardRoundtrip)
{
    Shard shard = sampleShard(16, 24);
    std::vector<uint8_t> bytes = encodeShard(shard);

    Shard out;
    util::Status status = decodeShard(bytes, "s.mgs", out);
    ASSERT_TRUE(status.ok()) << status.toString();
    EXPECT_EQ(out.begin, 16u);
    EXPECT_EQ(out.end, 24u);
    EXPECT_EQ(out.gaf, shard.gaf);
    EXPECT_EQ(out.stats.deadlineHits, 1u);
    EXPECT_EQ(out.stats.stepCapHits, 2u);
    EXPECT_EQ(out.stats.cacheLookups, 300u);
    EXPECT_EQ(out.stats.cacheHits, 250u);
}

TEST(CheckpointCodecTest, ManifestRoundtrip)
{
    Manifest manifest;
    manifest.totalReads = 100;
    manifest.shards.push_back({0, 10, 0x1234, shardFileName(0, 10)});
    manifest.shards.push_back({10, 30, 0x5678, shardFileName(10, 30)});
    std::vector<uint8_t> bytes = encodeManifest(manifest);

    Manifest out;
    util::Status status = decodeManifest(bytes, "m.mgc", out);
    ASSERT_TRUE(status.ok()) << status.toString();
    EXPECT_EQ(out.totalReads, 100u);
    ASSERT_EQ(out.shards.size(), 2u);
    EXPECT_EQ(out.shards[0].begin, 0u);
    EXPECT_EQ(out.shards[0].payloadCrc, 0x1234u);
    EXPECT_EQ(out.shards[1].file, shardFileName(10, 30));
}

TEST(CheckpointCodecTest, ManifestRejectsOverlapAndDisorder)
{
    // Overlapping ranges: a manifest must tile without double-covering
    // a read, or resume would emit it twice.
    Manifest overlap;
    overlap.totalReads = 100;
    overlap.shards.push_back({0, 12, 1, shardFileName(0, 12)});
    overlap.shards.push_back({8, 20, 2, shardFileName(8, 20)});
    Manifest out;
    EXPECT_FALSE(
        decodeManifest(encodeManifest(overlap), "m.mgc", out).ok());

    Manifest unsorted;
    unsorted.totalReads = 100;
    unsorted.shards.push_back({20, 30, 1, shardFileName(20, 30)});
    unsorted.shards.push_back({0, 10, 2, shardFileName(0, 10)});
    EXPECT_FALSE(
        decodeManifest(encodeManifest(unsorted), "m.mgc", out).ok());

    Manifest duplicate;
    duplicate.totalReads = 100;
    duplicate.shards.push_back({0, 10, 1, shardFileName(0, 10)});
    duplicate.shards.push_back({0, 10, 2, shardFileName(0, 10)});
    EXPECT_FALSE(
        decodeManifest(encodeManifest(duplicate), "m.mgc", out).ok());

    Manifest beyond;
    beyond.totalReads = 16;
    beyond.shards.push_back({0, 32, 1, shardFileName(0, 32)});
    EXPECT_FALSE(
        decodeManifest(encodeManifest(beyond), "m.mgc", out).ok());
}

TEST(CheckpointCodecTest, DamagedImagesReturnStatusNeverThrow)
{
    std::vector<uint8_t> shard_bytes = encodeShard(sampleShard(0, 8));
    Manifest manifest;
    manifest.totalReads = 8;
    manifest.shards.push_back({0, 8, 7, shardFileName(0, 8)});
    std::vector<uint8_t> manifest_bytes = encodeManifest(manifest);

    for (size_t cut = 0; cut < shard_bytes.size(); ++cut) {
        std::vector<uint8_t> bad(shard_bytes.begin(),
                                 shard_bytes.begin() +
                                     static_cast<long>(cut));
        Shard out;
        EXPECT_FALSE(decodeShard(bad, "s.mgs", out).ok());
    }
    for (size_t at = 0; at < manifest_bytes.size(); ++at) {
        std::vector<uint8_t> bad = manifest_bytes;
        bad[at] ^= 0x40;
        Manifest out;
        // A flip may strike the CRC of a structurally valid image or the
        // payload it protects; either way the decode must report it.
        EXPECT_FALSE(decodeManifest(bad, "m.mgc", out).ok());
    }
}

// ----------------------------------------------------------- writer/loader

TEST(CheckpointWriterTest, AppendLoadRoundtrip)
{
    std::string dir = freshDir("cp-roundtrip");
    CheckpointWriter writer(dir, 24);
    writer.append(sampleShard(8, 16));
    writer.append(sampleShard(0, 8)); // out-of-order completion is fine
    writer.append(sampleShard(16, 24));

    CheckpointState state;
    util::Status status = loadCheckpoint(dir, state);
    ASSERT_TRUE(status.ok()) << status.toString();
    EXPECT_EQ(state.droppedShards, 0u);
    ASSERT_EQ(state.shards.size(), 3u);
    // The manifest keeps entries sorted by range regardless of append
    // order.
    EXPECT_EQ(state.shards[0].begin, 0u);
    EXPECT_EQ(state.shards[1].begin, 8u);
    EXPECT_EQ(state.shards[2].begin, 16u);
    EXPECT_EQ(state.manifest.totalReads, 24u);
    EXPECT_EQ(state.shards[1].gaf, sampleShard(8, 16).gaf);
}

TEST(CheckpointWriterTest, MissingDirectoryIsAFreshRun)
{
    CheckpointState state;
    util::Status status =
        loadCheckpoint(freshDir("cp-missing"), state);
    EXPECT_TRUE(status.ok()) << status.toString();
    EXPECT_TRUE(state.manifest.shards.empty());
    EXPECT_TRUE(state.shards.empty());
}

TEST(CheckpointWriterTest, CorruptShardIsDroppedAndPruned)
{
    std::string dir = freshDir("cp-dropshard");
    CheckpointWriter writer(dir, 16);
    writer.append(sampleShard(0, 8));
    writer.append(sampleShard(8, 16));

    // Flip one payload byte of the first shard file on disk.
    std::string victim = dir + "/" + shardFileName(0, 8);
    std::vector<uint8_t> bytes = readFileBytes(victim);
    bytes[bytes.size() / 2] ^= 0x01;
    writeFileBytes(victim, bytes);

    CheckpointState state;
    util::Status status = loadCheckpoint(dir, state);
    ASSERT_TRUE(status.ok()) << status.toString();
    EXPECT_EQ(state.droppedShards, 1u);
    ASSERT_EQ(state.shards.size(), 1u);
    EXPECT_EQ(state.shards[0].begin, 8u);
    // The returned manifest is pruned to the survivors, so adopting it
    // and re-flushing the dropped range cannot create overlapping
    // entries.
    ASSERT_EQ(state.manifest.shards.size(), 1u);
    EXPECT_EQ(state.manifest.shards[0].begin, 8u);
}

TEST(CheckpointWriterTest, CorruptManifestIsFatal)
{
    std::string dir = freshDir("cp-badmanifest");
    CheckpointWriter writer(dir, 8);
    writer.append(sampleShard(0, 8));

    std::string manifest_path = dir + "/" + kManifestFileName;
    std::vector<uint8_t> bytes = readFileBytes(manifest_path);
    bytes[bytes.size() - 1] ^= 0xff; // trailing CRC byte
    writeFileBytes(manifest_path, bytes);

    CheckpointState state;
    EXPECT_FALSE(loadCheckpoint(dir, state).ok());
}

// ------------------------------------------------------------ end-to-end

/**
 * Full-pipeline fixture.  Main-process runs stick to thread-based
 * schedulers (VgBatch / WorkStealing); OmpDynamic only ever runs inside
 * forked children, which see a fresh OpenMP runtime — using OpenMP in
 * this process and then forking would hand every child a broken one.
 */
class CheckpointRunFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        fault::disarmAll();
        sim::PangenomeParams pparams;
        pparams.seed = 921;
        pparams.backboneLength = 8000;
        pparams.haplotypes = 4;
        pg_ = sim::generatePangenome(pparams);

        index::MinimizerParams mparams;
        mparams.k = 15;
        mparams.w = 8;
        minimizers_ = index::MinimizerIndex(pg_.graph, mparams);
        distance_ = index::DistanceIndex(pg_.graph);

        sim::ReadSimParams rparams;
        rparams.seed = 922;
        rparams.count = 60;
        rparams.readLength = 100;
        rparams.errorRate = 0.005;
        reads_ = sim::simulateReads(pg_, rparams);
    }

    void TearDown() override { fault::disarmAll(); }

    giraffe::ParentEmulator
    makeParent(sched::SchedulerKind kind =
                   sched::SchedulerKind::WorkStealing) const
    {
        giraffe::ParentParams params;
        params.numThreads = 2;
        params.batchSize = 8;
        params.scheduler = kind;
        return giraffe::ParentEmulator(pg_.graph, pg_.gbwt, minimizers_,
                                       distance_, params);
    }

    std::string
    referenceGaf() const
    {
        giraffe::ParentEmulator parent = makeParent();
        giraffe::ParentOutputs outputs = parent.run(reads_);
        return io::formatGaf(outputs.alignments, reads_, pg_.graph);
    }

    giraffe::CheckpointRunParams
    runParams(const std::string& dir) const
    {
        giraffe::CheckpointRunParams params;
        params.dir = dir;
        params.shardReads = 8;
        return params;
    }

    sim::GeneratedPangenome pg_;
    index::MinimizerIndex minimizers_;
    index::DistanceIndex distance_;
    map::ReadSet reads_;
};

TEST_F(CheckpointRunFixture, UninterruptedRunMatchesPlainRun)
{
    std::string dir = freshDir("cp-clean");
    giraffe::ParentEmulator parent = makeParent();
    giraffe::CheckpointRunResult result =
        giraffe::runCheckpointed(parent, reads_, runParams(dir));

    EXPECT_EQ(result.resumedReads, 0u);
    EXPECT_EQ(result.mappedReads, reads_.size());
    EXPECT_EQ(result.gaf, referenceGaf());

    // Re-running over the completed checkpoint maps nothing new and
    // still reproduces the same bytes.
    giraffe::CheckpointRunResult again =
        giraffe::runCheckpointed(parent, reads_, runParams(dir));
    EXPECT_EQ(again.resumedReads, reads_.size());
    EXPECT_EQ(again.mappedReads, 0u);
    EXPECT_EQ(again.gaf, result.gaf);
}

TEST_F(CheckpointRunFixture, FreshShardsCountTheirWholeTally)
{
    // One worker, so every chunk's cache history, and so its recycles,
    // is deterministic: the run's totals are the chunks' plain runs.
    giraffe::ParentParams params;
    params.numThreads = 1;
    params.batchSize = 8;
    const giraffe::ParentEmulator parent(pg_.graph, pg_.gbwt, minimizers_,
                                         distance_, params);
    map::Tally expected;
    const giraffe::CheckpointRunParams run = runParams(freshDir("cp-tally"));
    for (size_t begin = 0; begin < reads_.size(); begin += run.shardReads) {
        map::ReadSet chunk;
        chunk.reads.assign(
            reads_.reads.begin() + static_cast<long>(begin),
            reads_.reads.begin() +
                static_cast<long>(std::min(begin + run.shardReads,
                                           reads_.size())));
        expected.accumulate(parent.run(chunk).tally);
    }
    ASSERT_GT(expected[obs::MapCount::GbwtRecycles], 0u);

    const giraffe::CheckpointRunResult result =
        giraffe::runCheckpointed(parent, reads_, run);
    EXPECT_EQ(result.tally.counts, expected.counts);
    EXPECT_EQ(result.tally.latency.count(), reads_.size());

    // Resumed shards carry only their persisted delta: the cache counts
    // but recycles.
    const giraffe::CheckpointRunResult resumed =
        giraffe::runCheckpointed(parent, reads_, run);
    ASSERT_EQ(resumed.mappedReads, 0u);
    EXPECT_EQ(resumed.tally[obs::MapCount::GbwtLookups],
              expected[obs::MapCount::GbwtLookups]);
    EXPECT_EQ(resumed.tally[obs::MapCount::GbwtRecycles], 0u);
}

TEST_F(CheckpointRunFixture, InterruptedFlushResumesByteIdentical)
{
    std::string dir = freshDir("cp-interrupted");
    giraffe::ParentEmulator parent = makeParent();

    // The third flush throws: two shards (16 reads) are durable when the
    // run dies.
    fault::armFromText("checkpoint.flush=throw,after=2");
    EXPECT_THROW(
        giraffe::runCheckpointed(parent, reads_, runParams(dir)),
        util::Error);

    fault::disarmAll();
    giraffe::CheckpointRunResult resumed =
        giraffe::runCheckpointed(parent, reads_, runParams(dir));
    EXPECT_EQ(resumed.resumedReads, 16u);
    EXPECT_EQ(resumed.mappedReads, reads_.size() - 16u);
    EXPECT_EQ(resumed.gaf, referenceGaf());
}

TEST_F(CheckpointRunFixture, TornShardWriteIsDetectedAndRemapped)
{
    std::string dir = freshDir("cp-torn");
    giraffe::ParentEmulator parent = makeParent();

    // Durable-write call order is shard, manifest, shard, manifest, ...;
    // hit index 2 is the second shard file, which is persisted as a torn
    // prefix while its manifest entry (with the full payload's CRC) still
    // lands.  The loader must catch the mismatch, not trust the rename.
    fault::armFromText("io.file.durable=torn-write,after=2,limit=1");
    giraffe::CheckpointRunResult first =
        giraffe::runCheckpointed(parent, reads_, runParams(dir));
    fault::disarmAll();
    EXPECT_EQ(first.gaf, referenceGaf()); // in-memory spans were intact

    CheckpointState state;
    ASSERT_TRUE(loadCheckpoint(dir, state).ok());
    EXPECT_EQ(state.droppedShards, 1u);

    giraffe::CheckpointRunResult resumed =
        giraffe::runCheckpointed(parent, reads_, runParams(dir));
    EXPECT_EQ(resumed.droppedShards, 1u);
    EXPECT_EQ(resumed.mappedReads, 8u); // only the torn range remaps
    EXPECT_EQ(resumed.gaf, referenceGaf());
}

TEST_F(CheckpointRunFixture, RejectsCheckpointOfDifferentRun)
{
    std::string dir = freshDir("cp-mismatch");
    CheckpointWriter writer(dir, 999); // some other run's checkpoint
    writer.append(sampleShard(0, 8));

    giraffe::ParentEmulator parent = makeParent();
    EXPECT_THROW(
        giraffe::runCheckpointed(parent, reads_, runParams(dir)),
        util::Error);
}

/**
 * The crash matrix: for every scheduler and every fault point in the
 * durability protocol, a forked child is SIGKILLed mid-run (no unwinding,
 * no flushes — fault::Crash raises SIGKILL), and the surviving checkpoint
 * must resume to the uninterrupted run's exact bytes.
 */
TEST_F(CheckpointRunFixture, CrashMatrixResumesByteIdentical)
{
    const std::string reference = referenceGaf();
    const sched::SchedulerKind kinds[] = {
        sched::SchedulerKind::OmpDynamic,
        sched::SchedulerKind::VgBatch,
        sched::SchedulerKind::WorkStealing,
    };
    const char* crash_specs[] = {
        // 3rd shard flush: killed before the shard is written at all.
        "checkpoint.flush=crash,after=2",
        // 4th durable write = 2nd manifest: its shard is already durable
        // but orphaned; the old manifest stays authoritative.
        "io.file.durable=crash,after=3",
        // 2nd rename: the manifest temp file is fsynced but never
        // renamed; the directory looks like a fresh run.
        "io.file.durable.rename=crash,after=1",
    };

    for (sched::SchedulerKind kind : kinds) {
        for (size_t site = 0; site < std::size(crash_specs); ++site) {
            const char* spec = crash_specs[site];
            std::string dir = freshDir(
                std::string("cp-crash-") + sched::schedulerName(kind) +
                "-" + std::to_string(site));

            pid_t pid = fork();
            ASSERT_GE(pid, 0);
            if (pid == 0) {
                // Child: arm the crash and map until SIGKILL.  Exit codes
                // flag the two ways the crash could fail to happen.
                fault::armFromText(spec);
                try {
                    giraffe::ParentEmulator child_parent =
                        makeParent(kind);
                    giraffe::runCheckpointed(child_parent, reads_,
                                             runParams(dir));
                } catch (...) {
                    _exit(3);
                }
                _exit(2);
            }
            int wstatus = 0;
            ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
            ASSERT_TRUE(WIFSIGNALED(wstatus))
                << sched::schedulerName(kind) << " / " << spec
                << ": child exited "
                << (WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1)
                << " instead of crashing";
            EXPECT_EQ(WTERMSIG(wstatus), SIGKILL);

            // Resume in this process (thread-based scheduler) from
            // whatever the kill left behind.
            giraffe::ParentEmulator parent = makeParent();
            giraffe::CheckpointRunResult resumed =
                giraffe::runCheckpointed(parent, reads_, runParams(dir));
            EXPECT_EQ(resumed.gaf, reference)
                << sched::schedulerName(kind) << " / " << spec;
            EXPECT_EQ(resumed.resumedReads + resumed.mappedReads,
                      reads_.size());
        }
    }
}

} // namespace
} // namespace mg::io
