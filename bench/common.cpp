#include "common.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>

#include "util/dna.h"
#include "util/rng.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

namespace mg::bench {

namespace {

uint64_t
ticksNow()
{
#if defined(__x86_64__) || defined(_M_X64)
    return __rdtsc();
#else
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
#endif
}

/** Keeps the timed match runs observable, so none is optimized away. */
volatile uint64_t g_match_sink = 0;

/**
 * util::matchRunPacked and util::chunk32 as they stood when the kernel
 * guard was recorded.  Do not edit: the guard measures the production
 * loop against this copy.
 */
uint64_t
referenceChunk32(const uint64_t* words, uint64_t p)
{
    uint64_t wi = p >> 5;
    uint32_t sh = (static_cast<uint32_t>(p) & 31u) << 1;
    return (words[wi] >> sh) | ((words[wi + 1] << 1) << (63 - sh));
}

uint32_t
referenceMatchRun(const uint64_t* a, uint64_t abase, const uint64_t* b,
                  uint64_t bbase, uint32_t span, uint64_t& words_compared)
{
    uint32_t done = 0;
    while (done < span) {
        uint64_t x = referenceChunk32(a, abase + done) ^
                     referenceChunk32(b, bbase + done);
        ++words_compared;
        uint32_t lim = span - done;
        if (lim > 32) {
            lim = 32;
        }
        uint32_t diff =
            x != 0 ? static_cast<uint32_t>(std::countr_zero(x)) >> 1 : 32;
        if (diff < lim) {
            return done + diff;
        }
        done += lim;
    }
    return span;
}

/** One pass of `reps` match runs, the kernel inlined into the loop. */
template <MatchKernel kKernel>
void
matchRunPass(const uint64_t* a, const uint64_t* b, uint32_t span,
             uint32_t reps, uint64_t max_off)
{
    uint64_t sink = 0;
    uint64_t words = 0;
    uint64_t off = 0;
    for (uint32_t r = 0; r < reps; ++r) {
        if constexpr (kKernel == MatchKernel::Swar) {
            sink += util::matchRunPacked(a, off, b, off, span, words);
        } else if constexpr (kKernel == MatchKernel::SwarReference) {
            sink += referenceMatchRun(a, off, b, off, span, words);
        } else {
            sink += util::matchRunScalar(a, off, b, off, span);
        }
        off += 33; // a new intra-word phase every call
        if (off >= max_off) {
            off -= max_off;
        }
    }
    g_match_sink = sink + words;
}

constexpr uint32_t kMatchBases = 1u << 16;

/** Match runs per pass at `span`: about 2M bases in all. */
uint32_t
matchRunReps(uint32_t span)
{
    return std::max<uint32_t>(1, (1u << 21) / span);
}

} // namespace

const char*
matchRunTickUnit()
{
#if defined(__x86_64__) || defined(_M_X64)
    return "cycle";
#else
    return "ns";
#endif
}

double
matchRunBases(uint32_t span)
{
    return static_cast<double>(span) * matchRunReps(span);
}

double
matchRunTicks(MatchKernel kernel, uint32_t span)
{
    // Two copies of one random sequence: every run matches for its whole
    // span.
    static const std::vector<uint64_t> a = [] {
        util::Rng rng(0x51313d);
        std::vector<uint64_t> words(util::packedBufferWords(kMatchBases), 0);
        util::packAsciiInto(rng.randomDna(kMatchBases), words.data(), 0);
        return words;
    }();
    static const std::vector<uint64_t> b = a;
    const uint64_t max_off = kMatchBases - span;
    const uint32_t reps = matchRunReps(span);
    const uint64_t t0 = ticksNow();
    switch (kernel) {
      case MatchKernel::Scalar:
        matchRunPass<MatchKernel::Scalar>(a.data(), b.data(), span, reps,
                                          max_off);
        break;
      case MatchKernel::Swar:
        matchRunPass<MatchKernel::Swar>(a.data(), b.data(), span, reps,
                                        max_off);
        break;
      case MatchKernel::SwarReference:
        matchRunPass<MatchKernel::SwarReference>(a.data(), b.data(), span,
                                                 reps, max_off);
        break;
    }
    return static_cast<double>(ticksNow() - t0);
}

const char* const kPairedMethod =
    "stats::pairedRatio: each round times one pass of the baseline and "
    "one of the candidate, order alternating by round; a pass is timed on "
    "the thread CPU clock (match kernels: TSC ticks; index builds and "
    "binds: wall clock); ratio = baseline cost / candidate cost per round; "
    "every estimate is a median over the rounds with its 95% percentile "
    "bootstrap interval (2000 resamples)";

void
writeEstimate(obs::JsonWriter& w, const std::string& key,
              const stats::ConfidenceInterval& estimate, size_t rounds)
{
    w.key(key).beginObject();
    w.field("median", estimate.pointEstimate);
    w.key("ci").beginArray();
    w.value(estimate.lower).value(estimate.upper).endArray();
    w.field("rounds", static_cast<uint64_t>(rounds));
    w.endObject();
}

std::string
describe(const stats::PairedRatio& pair)
{
    char text[96];
    std::snprintf(text, sizeof text,
                  "median %.4f (95%% CI %.4f-%.4f, %zu rounds)",
                  pair.median(), pair.ratio.lower, pair.ratio.upper,
                  pair.rounds());
    return text;
}

stats::ConfidenceInterval
rateOf(double work, const stats::ConfidenceInterval& cost)
{
    stats::ConfidenceInterval rate;
    rate.pointEstimate = work / cost.pointEstimate;
    rate.lower = work / cost.upper;
    rate.upper = work / cost.lower;
    return rate;
}

std::unique_ptr<World>
buildWorld(const std::string& input_set, double scale)
{
    auto world = std::make_unique<World>();
    world->set = sim::buildInputSet(sim::inputSetSpec(input_set), scale);
    index::MinimizerParams mparams;
    mparams.k = 15;
    mparams.w = 8;
    world->minimizers =
        index::MinimizerIndex(world->set.pangenome.graph, mparams);
    world->distance = index::DistanceIndex(world->set.pangenome.graph);
    return world;
}

std::vector<std::unique_ptr<World>>
buildAllWorlds(double scale)
{
    std::vector<std::unique_ptr<World>> worlds;
    for (const sim::InputSetSpec& spec : sim::standardInputSets()) {
        worlds.push_back(buildWorld(spec.name, scale));
    }
    return worlds;
}

util::Flags
benchFlags(const std::string& program, const std::string& default_scale)
{
    util::Flags flags(program);
    flags.define("scale", default_scale,
                 "read-count multiplier for every input set")
         .define("csv", "", "also write results to this CSV file");
    return flags;
}

void
banner(const std::string& experiment, const std::string& what)
{
    std::printf("== %s ==\n%s\n\n", experiment.c_str(), what.c_str());
}

std::vector<size_t>
threadSweep(size_t max_threads)
{
    std::vector<size_t> counts;
    for (size_t t = 1; t < max_threads; t *= 2) {
        counts.push_back(t);
    }
    counts.push_back(max_threads);
    return counts;
}

double
paperMemoryRequirementGb(const std::string& input_set)
{
    if (input_set == "A-human") {
        return 32.0;
    }
    if (input_set == "B-yeast") {
        return 40.0;
    }
    if (input_set == "C-HPRC") {
        return 120.0;
    }
    if (input_set == "D-HPRC") {
        return 320.0; // exceeded the paper's 256 GB machines
    }
    throw util::Error("unknown input set: " + input_set);
}

bool
fitsInMemory(const machine::MachineConfig& machine,
             const std::string& input_set)
{
    return static_cast<double>(machine.dramGb) >=
           paperMemoryRequirementGb(input_set);
}

uint64_t
paperReadCount(const std::string& input_set)
{
    // Table III: reads in millions -- A 1.0, B 24.5, C 8.0, D 71.1.
    if (input_set == "A-human") {
        return 1000000ull;
    }
    if (input_set == "B-yeast") {
        return 24500000ull;
    }
    if (input_set == "C-HPRC") {
        return 8000000ull;
    }
    if (input_set == "D-HPRC") {
        return 71100000ull;
    }
    throw util::Error("unknown input set: " + input_set);
}

tune::CapacityProfile
scaleProfileToPaper(const tune::CapacityProfile& p,
                    const std::string& input_set, double subsample)
{
    tune::CapacityProfile out = p;
    double target =
        static_cast<double>(paperReadCount(input_set)) * subsample;
    double factor = target / static_cast<double>(p.numReads);
    out.numReads = static_cast<uint64_t>(target);
    out.hostSeconds *= factor;
    out.anchorHostSeconds *= factor;
    out.anchorModelSeconds *= factor;
    out.work.instructions = static_cast<uint64_t>(
        static_cast<double>(p.work.instructions) * factor);
    out.work.memoryAccesses = static_cast<uint64_t>(
        static_cast<double>(p.work.memoryAccesses) * factor);
    out.work.bytesTouched = static_cast<uint64_t>(
        static_cast<double>(p.work.bytesTouched) * factor);
    for (auto& [name, c] : out.perMachine) {
        (void)name;
        auto scaled = [factor](uint64_t v) {
            return static_cast<uint64_t>(static_cast<double>(v) * factor);
        };
        c.l1Accesses = scaled(c.l1Accesses);
        c.l1Misses = scaled(c.l1Misses);
        c.l2Accesses = scaled(c.l2Accesses);
        c.l2Misses = scaled(c.l2Misses);
        c.llcAccesses = scaled(c.llcAccesses);
        c.llcMisses = scaled(c.llcMisses);
    }
    return out;
}

std::string
sourceCommit()
{
    std::string out;
    if (FILE* pipe =
            popen("git describe --always --dirty 2>/dev/null", "r")) {
        char buf[128];
        while (std::fgets(buf, sizeof buf, pipe) != nullptr) {
            out += buf;
        }
        pclose(pipe);
    }
    while (!out.empty() && (out.back() == '\n' || out.back() == ' ')) {
        out.pop_back();
    }
    return out.empty() ? "unknown" : out;
}

} // namespace mg::bench
