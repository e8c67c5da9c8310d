/**
 * Graceful-stop tests for the batch pipelines: the SIGTERM/SIGINT stop
 * flag wired through the shared RunParams of the parent and the proxy
 * (finish running batches, leave the rest as unmapped placeholders) and
 * CheckpointRunParams (finish the
 * in-progress shard, flush it durably, resume later to a byte-identical
 * GAF).  The SIGTERM test delivers a real signal to a child process using
 * the real serve::installStopHandlers() wiring — the same path
 * giraffe_app and minigiraffe_app use.
 */
#include <gtest/gtest.h>

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "giraffe/checkpoint_run.h"
#include "giraffe/parent.h"
#include "giraffe/proxy.h"
#include "io/gaf.h"
#include "serve/stop.h"
#include "sim/pangenome_gen.h"
#include "sim/read_sim.h"
#include "test_paths.h"

namespace mg {
namespace {

class DrainFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        fault::disarmAll();
        serve::resetStopForTests();
        sim::PangenomeParams pparams;
        pparams.seed = 701;
        pparams.backboneLength = 8000;
        pparams.haplotypes = 4;
        pg_ = sim::generatePangenome(pparams);

        index::MinimizerParams mparams;
        mparams.k = 15;
        mparams.w = 8;
        minimizers_ = index::MinimizerIndex(pg_.graph, mparams);
        distance_ = index::DistanceIndex(pg_.graph);

        sim::ReadSimParams rparams;
        rparams.seed = 702;
        rparams.count = 64;
        rparams.readLength = 100;
        rparams.errorRate = 0.005;
        reads_ = sim::simulateReads(pg_, rparams);
    }

    void
    TearDown() override
    {
        fault::disarmAll();
        serve::resetStopForTests();
    }

    giraffe::ParentEmulator
    makeParent(const std::atomic<bool>* stop_flag = nullptr) const
    {
        giraffe::ParentParams params;
        params.numThreads = 2;
        params.batchSize = 8;
        params.scheduler = sched::SchedulerKind::WorkStealing;
        params.stopFlag = stop_flag;
        return giraffe::ParentEmulator(pg_.graph, pg_.gbwt, minimizers_,
                                       distance_, params);
    }

    std::string
    freshDir(const std::string& name) const
    {
        std::filesystem::path dir = testPath(name);
        std::filesystem::remove_all(dir);
        return dir.string();
    }

    giraffe::CheckpointRunParams
    runParams(const std::string& dir,
              const std::atomic<bool>* stop_flag = nullptr) const
    {
        giraffe::CheckpointRunParams params;
        params.dir = dir;
        params.shardReads = 8;
        params.stopFlag = stop_flag;
        return params;
    }

    std::string
    referenceGaf() const
    {
        giraffe::ParentEmulator parent = makeParent();
        giraffe::ParentOutputs outputs = parent.run(reads_);
        return io::formatGaf(outputs.alignments, reads_, pg_.graph);
    }

    sim::GeneratedPangenome pg_;
    index::MinimizerIndex minimizers_;
    index::DistanceIndex distance_;
    map::ReadSet reads_;
};

/**
 * A pre-set stop flag means "no new batch is dispatched": the run
 * reports stopped, and every read still has a (placeholder) GAF line —
 * a stopped run never truncates the output format.  The proxy runs the
 * same loop: it maps nothing, says so, and still names every read.
 */
TEST_F(DrainFixture, StopFlagSkipsAllBatchesButKeepsShape)
{
    std::atomic<bool> stop{true};
    giraffe::ParentEmulator parent = makeParent(&stop);
    giraffe::ParentOutputs outputs = parent.run(reads_);
    EXPECT_TRUE(outputs.stopped);
    ASSERT_EQ(outputs.alignments.size(), reads_.size());
    std::string gaf = io::formatGaf(outputs.alignments, reads_, pg_.graph);
    EXPECT_EQ(static_cast<size_t>(
                  std::count(gaf.begin(), gaf.end(), '\n')),
              reads_.size());

    giraffe::ProxyParams params;
    params.numThreads = 2;
    params.batchSize = 8;
    params.stopFlag = &stop;
    giraffe::ProxyRunner proxy(pg_.graph, pg_.gbwt, distance_, params);
    giraffe::ProxyOutputs dump =
        proxy.run(parent.capturePreprocessing(reads_));
    EXPECT_TRUE(dump.stopped);
    EXPECT_EQ(dump.readsMapped, 0u);
    ASSERT_EQ(dump.extensions.size(), reads_.size());
    for (size_t i = 0; i < reads_.size(); ++i) {
        EXPECT_EQ(dump.extensions[i].readName, reads_.reads[i].name);
        EXPECT_TRUE(dump.extensions[i].extensions.empty());
    }
}

/** An unset flag changes nothing: stopped stays false. */
TEST_F(DrainFixture, ParentStopFlagUnsetRunsToCompletion)
{
    std::atomic<bool> stop{false};
    giraffe::ParentEmulator parent = makeParent(&stop);
    giraffe::ParentOutputs outputs = parent.run(reads_);
    EXPECT_FALSE(outputs.stopped);
    EXPECT_EQ(io::formatGaf(outputs.alignments, reads_, pg_.graph),
              referenceGaf());
}

/**
 * Checkpointed stop-and-resume: a run stopped before mapping anything
 * leaves a resumable directory; clearing the flag and re-running the
 * same directory completes to a GAF byte-identical to an uninterrupted
 * run — the stop is just a scheduled crash with better manners.
 */
TEST_F(DrainFixture, CheckpointStopThenResumeIsByteIdentical)
{
    std::string dir = freshDir("drain-stop-resume");
    std::atomic<bool> stop{true};

    giraffe::ParentEmulator parent = makeParent();
    giraffe::CheckpointRunResult stopped = giraffe::runCheckpointed(
        parent, reads_, runParams(dir, &stop));
    EXPECT_TRUE(stopped.stopped);
    EXPECT_LT(stopped.mappedReads, reads_.size());

    giraffe::CheckpointRunResult resumed =
        giraffe::runCheckpointed(parent, reads_, runParams(dir));
    EXPECT_FALSE(resumed.stopped);
    EXPECT_EQ(resumed.gaf, referenceGaf());
    EXPECT_EQ(resumed.resumedReads + resumed.mappedReads, reads_.size());
}

/**
 * Set in the child of SigtermMidCheckpointRunExitsZeroAndResumes to
 * "<ready pipe fd>:<checkpoint dir>": the test then plays the child.
 */
constexpr const char* kChildEnv = "MG_DRAIN_TEST_CHILD";

/**
 * The real thing: a child process installs the app's SIGTERM handlers,
 * runs a checkpointed mapping with the serve::stopFlag() wiring (exactly
 * what giraffe_app --checkpoint does), and the parent SIGTERMs it
 * mid-run.  The child must exit 0 with its in-progress shard flushed;
 * the parent resumes the directory to a byte-identical final GAF.
 *
 * The child is this test binary re-executed with a filter for this test
 * and kChildEnv set, as gtest's threadsafe death tests do: a fresh
 * process starts single-threaded, while a fork() of this one would
 * inherit the threads earlier tests of the binary left running.
 */
TEST_F(DrainFixture, SigtermMidCheckpointRunExitsZeroAndResumes)
{
    if (const char* child = std::getenv(kChildEnv)) {
        char* dir = nullptr;
        const int ready_fd = static_cast<int>(std::strtol(child, &dir, 10));
        serve::resetStopForTests();
        serve::installStopHandlers();
        char byte = 'r';
        if (::write(ready_fd, &byte, 1) != 1) {
            _exit(4);
        }
        ::close(ready_fd);
        try {
            giraffe::ParentEmulator child_parent = makeParent();
            giraffe::CheckpointRunResult result = giraffe::runCheckpointed(
                child_parent, reads_,
                runParams(dir + 1, serve::stopFlag()));
            // 0: stopped gracefully.  2: the run beat the signal (still
            // a pass for the resume check, but the parent asserts the
            // stop actually happened, so flag it distinctly).
            _exit(result.stopped ? 0 : 2);
        } catch (...) {
            _exit(3);
        }
    }

    std::string dir = freshDir("drain-sigterm");
    std::string reference = referenceGaf();

    int ready[2];
    ASSERT_EQ(::pipe(ready), 0);
    const ::testing::TestInfo* test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string filter = std::string("--gtest_filter=") +
                         test->test_suite_name() + "." + test->name();
    std::string marker = std::string(kChildEnv) + "=" +
                         std::to_string(ready[1]) + ":" + dir;
    std::string exe = "/proc/self/exe";
    char* argv[] = {exe.data(), filter.data(), nullptr};
    std::vector<char*> envp;
    for (char** var = environ; *var != nullptr; ++var) {
        envp.push_back(*var);
    }
    envp.push_back(marker.data());
    envp.push_back(nullptr);
    pid_t pid = 0;
    ASSERT_EQ(::posix_spawn(&pid, exe.c_str(), nullptr, nullptr, argv,
                            envp.data()),
              0);
    ::close(ready[1]);
    char byte = 0;
    ASSERT_EQ(::read(ready[0], &byte, 1), 1);
    ::close(ready[0]);
    // Let the child get into the mapping loop, then pull the plug the
    // way systemd would.
    ::usleep(20 * 1000);
    ASSERT_EQ(::kill(pid, SIGTERM), 0);
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFEXITED(wstatus));
    int code = WEXITSTATUS(wstatus);
    ASSERT_TRUE(code == 0 || code == 2) << "child exited " << code;

    // Whatever the child left behind resumes to the exact answer.
    giraffe::ParentEmulator parent = makeParent();
    giraffe::CheckpointRunResult resumed =
        giraffe::runCheckpointed(parent, reads_, runParams(dir));
    EXPECT_EQ(resumed.gaf, reference);
    EXPECT_EQ(resumed.resumedReads + resumed.mappedReads, reads_.size());
}

} // namespace
} // namespace mg
