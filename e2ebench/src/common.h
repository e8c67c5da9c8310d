/**
 * @file
 * Shared pieces of the end-to-end benchmark harness: the workload table,
 * the read-set file with its ground truth, accuracy scoring, robust
 * statistics, process probes (peak RSS, steal ticks) and a minimal JSON
 * writer.  Nothing here calls into the mapper; the layer drivers live in
 * batch.cpp, serve.cpp and layers.cpp.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "map/read.h"
#include "sim/pangenome_gen.h"

namespace e2e {

/** One named workload: the analog graph, its reads and its driver. */
struct Workload
{
    std::string name;
    /** Analog the graph mirrors (DESIGN.md input sets A-D). */
    std::string analog;
    mg::sim::PangenomeParams pangenome;
    size_t readLength = 150;
    double errorRate = 0.002;
    bool paired = false;
    size_t fragmentLength = 450;
    /** Reads in the per-seed read set (mates counted separately). */
    size_t reads = 0;
    /** Batch: reads in the fixed-size warm-up pass that ends set-up. */
    size_t warmupReads = 0;
    /** Serve: passes over the whole read set that end set-up (the first
     *  one is the reference every later response must equal). */
    size_t warmupPasses = 1;
    /** Batch: mapping threads.  Serve: daemon workers. */
    size_t threads = 1;
    /** Serve: closed-loop client connections and reads per request. */
    size_t clients = 0;
    size_t readsPerRequest = 0;
    /** Serve: seconds between hot swaps (0 = never swap); also the
     *  length of a reads_per_s slice, so every slice holds one swap. */
    double swapEverySeconds = 0.0;
    bool serve() const { return clients > 0; }
};

/** The three workloads, by name; throws on an unknown name. */
const Workload& workload(const std::string& name);

/** Where a read was sampled from (projected onto walk nodes). */
struct Truth
{
    uint32_t haplotype = 0;
    uint64_t offset = 0;
    bool reverse = false;
    /** Node ids the sampled haplotype interval covers. */
    std::vector<uint64_t> nodes;
};

/** A read set plus one Truth per read (index-aligned). */
struct TruthReads
{
    mg::map::ReadSet reads;
    std::vector<Truth> truth;
};

/**
 * Sample a seeded read set from a generated pangenome.  Mirrors the
 * analog's read simulator (read length, substitution rate, +-25%
 * fragment jitter, mate 2 reverse-complemented) but keeps haplotype,
 * offset and strand for every read and mate.
 */
TruthReads sampleReads(const mg::sim::GeneratedPangenome& pangenome,
                       const Workload& workload, uint64_t seed,
                       size_t count);

/** reads.tsv: name, sequence, mate, haplotype, offset, strand, nodes. */
void saveTruthReads(const std::string& path, const TruthReads& set);
TruthReads loadTruthReads(const std::string& path);

/** Write a file by temp file + fsync + rename, so no reader sees half of
 *  it and a file someone has mapped is never rewritten in place. */
void publishFile(const std::string& path, std::string_view bytes);
std::string readText(const std::string& path);

/** Node ids of a GAF line's path column; false if the line is malformed
 *  (wrong column count, bad number or path syntax). */
bool parseGafLine(const std::string& line, std::string& name,
                  std::vector<uint64_t>& path_nodes);

/** Split GAF text into lines (drops the final empty piece). */
std::vector<std::string> splitLines(const std::string& text);

/** Does the alignment path share a node with the truth interval? */
bool placedCorrectly(const std::vector<uint64_t>& path_nodes,
                     const Truth& truth);

/** Accuracy of a reference GAF against truth.
 *  Checks one parseable line per read, in read order. */
struct Accuracy
{
    uint64_t reads = 0;
    uint64_t correct = 0;
    uint64_t mapped = 0;
    bool wellFormed = true;
    std::string problem;
};
Accuracy scoreGaf(const std::vector<std::string>& lines,
                  const TruthReads& input);

/** Highest percentile that keeps at least ten samples above it, capped
 *  at 0.99 (how tails are reported, with their sample count). */
double tailQuantile(size_t samples);

/** Sorted-copy quantile (linear interpolation), q in [0, 1]. */
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/** Peak resident set (VmHWM) of this process in MiB. */
double peakRssMiB();
/** Sum of steal ticks over all CPUs from /proc/stat. */
uint64_t stealTicks();

/** Flat JSON object writer (numbers, strings, nested raw objects). */
class JsonObject
{
  public:
    JsonObject& num(const std::string& key, double value);
    JsonObject& integer(const std::string& key, uint64_t value);
    JsonObject& str(const std::string& key, const std::string& value);
    JsonObject& raw(const std::string& key, const std::string& json);
    std::string dump() const;

  private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

/** Metric values by name; run.py adds the units from BENCHMARK.json. */
using Metrics = std::map<std::string, double>;

/** Everything a measuring run reports back to main(). */
struct RunResult
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    Metrics metrics;
    /** Reasons `correct` went false (printed to stderr). */
    std::vector<std::string> problems;
    /** Extra provenance fields (sample counts, thread counts, ...). */
    JsonObject provenance;

    void check(bool ok, const std::string& what);
    void set(const std::string& name, double value);
};

/** Options shared by the measuring modes. */
struct RunOptions
{
    std::string dir;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** Set-up repetitions per run; setup_s is their median. */
constexpr size_t kSetups = 5;

/** Seconds since an arbitrary epoch (steady clock). */
double nowSeconds();
/** CPU seconds this process has used (all threads). */
double cpuSeconds();

} // namespace e2e
