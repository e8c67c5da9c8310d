#include "common.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <ctime>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace e2e {

namespace {

std::vector<Workload>
makeWorkloads()
{
    std::vector<Workload> all;
    {
        // D-HPRC analog: paired-end, the index spills one core's L2, and
        // cluster + extend dominate read time.  The only workload that
        // exercises the batch scheduler and pairing/rescue.  The analog's
        // full 24000 reads per pass keep the scheduler's end-of-pass tail
        // and the serial pairing stage a small share of a pass.
        Workload w;
        w.name = "batch-hprc";
        w.analog = "D-HPRC";
        w.pangenome.seed = 1004;
        w.pangenome.backboneLength = 300000;
        w.pangenome.haplotypes = 16;
        w.readLength = 150;
        w.errorRate = 0.002;
        w.paired = true;
        w.fragmentLength = 450;
        w.reads = 24000;
        w.warmupReads = 6000;
        w.threads = 3;
        all.push_back(w);
    }
    {
        // B-yeast analog: small index (fits L2), cheap single-end reads,
        // so the request path (codec, socket, queue) is a large share.
        Workload w;
        w.name = "serve-yeast";
        w.analog = "B-yeast";
        w.pangenome.seed = 1002;
        w.pangenome.backboneLength = 50000;
        w.pangenome.haplotypes = 8;
        w.readLength = 100;
        w.errorRate = 0.003;
        w.paired = false;
        w.reads = 4096;
        // One pass takes only about 0.1 s; four keep setup_s well above
        // the host's scheduling noise.
        w.warmupPasses = 4;
        w.threads = 2;
        w.clients = 2;
        w.readsPerRequest = 16;
        all.push_back(w);
    }
    {
        // A-human analog: big index, map-bound requests, and periodic
        // hot swaps between two prebuilt containers beside the reads.
        Workload w;
        w.name = "serve-human-swap";
        w.analog = "A-human";
        w.pangenome.seed = 1001;
        w.pangenome.backboneLength = 400000;
        w.pangenome.haplotypes = 16;
        w.readLength = 150;
        w.errorRate = 0.002;
        w.paired = false;
        w.reads = 3072;
        w.threads = 2;
        w.clients = 2;
        w.readsPerRequest = 16;
        w.swapEverySeconds = 2.0;
        all.push_back(w);
    }
    return all;
}

const std::vector<Workload>&
workloads()
{
    static const std::vector<Workload> all = makeWorkloads();
    return all;
}

/** splitmix64: the sampler's own generator, independent of the repo's
 *  util::Rng so read sets stay fixed when that generator changes. */
class SplitMix
{
  public:
    explicit SplitMix(uint64_t seed) : state_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    /** Uniform in [0, bound). */
    uint64_t uniform(uint64_t bound) { return next() % bound; }
    double real() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  private:
    uint64_t state_;
};

char
complement(char base)
{
    switch (base) {
    case 'A': return 'T';
    case 'C': return 'G';
    case 'G': return 'C';
    case 'T': return 'A';
    default: return 'N';
    }
}

std::string
reverseComplement(const std::string& seq)
{
    std::string out(seq.rbegin(), seq.rend());
    for (char& c : out) {
        c = complement(c);
    }
    return out;
}

void
applyErrors(std::string& seq, double rate, SplitMix& rng)
{
    static const char kBases[4] = { 'A', 'C', 'G', 'T' };
    for (char& c : seq) {
        if (rng.real() < rate) {
            char other = c;
            while (other == c) {
                other = kBases[rng.uniform(4)];
            }
            c = other;
        }
    }
}

/** Node ids a haplotype interval [begin, end) covers, via the walk's
 *  prefix sums of node lengths. */
std::vector<uint64_t>
projectInterval(const mg::sim::GeneratedPangenome& pangenome,
                const std::vector<uint64_t>& starts, uint32_t haplotype,
                uint64_t begin, uint64_t end)
{
    const auto& walk = pangenome.walks[haplotype];
    // starts[i] = haplotype offset where walk step i begins.
    size_t step = static_cast<size_t>(
        std::upper_bound(starts.begin(), starts.end(), begin) -
        starts.begin() - 1);
    std::vector<uint64_t> nodes;
    for (; step < walk.size() && starts[step] < end; ++step) {
        nodes.push_back(walk[step].id());
    }
    return nodes;
}

} // namespace

const Workload&
workload(const std::string& name)
{
    for (const Workload& w : workloads()) {
        if (w.name == name) {
            return w;
        }
    }
    throw std::runtime_error("unknown workload: " + name);
}

TruthReads
sampleReads(const mg::sim::GeneratedPangenome& pangenome,
            const Workload& workload, uint64_t seed, size_t count)
{
    const size_t haps = pangenome.sequences.size();
    std::vector<std::vector<uint64_t>> starts(haps);
    for (size_t h = 0; h < haps; ++h) {
        uint64_t offset = 0;
        for (const auto& handle : pangenome.walks[h]) {
            starts[h].push_back(offset);
            offset += pangenome.graph.length(handle.id());
        }
        if (offset != pangenome.sequences[h].size()) {
            throw std::runtime_error("walk and haplotype lengths differ");
        }
    }

    SplitMix rng(seed * 0x2545f4914f6cdd1dull + 0x9e37);
    const size_t len = workload.readLength;
    TruthReads set;
    set.reads.pairedEnd = workload.paired;
    auto sample = [&](uint32_t hap, uint64_t begin, bool reverse,
                      const std::string& name) {
        const std::string& seq = pangenome.sequences[hap];
        std::string piece = seq.substr(begin, len);
        if (reverse) {
            piece = reverseComplement(piece);
        }
        applyErrors(piece, workload.errorRate, rng);
        mg::map::Read read;
        read.name = name;
        read.sequence = std::move(piece);
        Truth truth;
        truth.haplotype = hap;
        truth.offset = begin;
        truth.reverse = reverse;
        truth.nodes = projectInterval(pangenome, starts[hap], hap, begin,
                                      begin + len);
        set.reads.reads.push_back(std::move(read));
        set.truth.push_back(std::move(truth));
    };

    if (!workload.paired) {
        for (size_t i = 0; i < count; ++i) {
            const auto hap = static_cast<uint32_t>(rng.uniform(haps));
            const uint64_t begin =
                rng.uniform(pangenome.sequences[hap].size() - len + 1);
            const bool reverse = rng.uniform(2) == 1;
            sample(hap, begin, reverse, "read" + std::to_string(i));
        }
        return set;
    }
    for (size_t p = 0; p < count / 2; ++p) {
        const auto hap = static_cast<uint32_t>(rng.uniform(haps));
        const size_t hap_len = pangenome.sequences[hap].size();
        const size_t jitter = workload.fragmentLength / 4;
        size_t fragment = workload.fragmentLength - jitter +
                          rng.uniform(2 * jitter + 1);
        fragment = std::min(std::max(fragment, len), hap_len);
        const uint64_t begin = rng.uniform(hap_len - fragment + 1);
        const size_t first = set.reads.reads.size();
        sample(hap, begin, false, "pair" + std::to_string(p) + "/1");
        sample(hap, begin + fragment - len, true,
               "pair" + std::to_string(p) + "/2");
        set.reads.reads[first].mate = first + 1;
        set.reads.reads[first + 1].mate = first;
    }
    return set;
}

void
saveTruthReads(const std::string& path, const TruthReads& set)
{
    std::ostringstream out;
    out << "#paired\t" << (set.reads.pairedEnd ? 1 : 0) << '\n';
    for (size_t i = 0; i < set.reads.size(); ++i) {
        const mg::map::Read& read = set.reads.reads[i];
        const Truth& truth = set.truth[i];
        out << read.name << '\t' << read.sequence << '\t'
            << (read.paired() ? static_cast<long long>(read.mate) : -1)
            << '\t' << truth.haplotype << '\t' << truth.offset << '\t'
            << (truth.reverse ? '-' : '+') << '\t';
        for (size_t n = 0; n < truth.nodes.size(); ++n) {
            out << (n ? "," : "") << truth.nodes[n];
        }
        out << '\n';
    }
    publishFile(path, out.str());
}

void
publishFile(const std::string& path, std::string_view bytes)
{
    const std::string tmp = path + ".tmp." + std::to_string(::getpid());
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        throw std::runtime_error("cannot create " + tmp);
    }
    size_t done = 0;
    while (done < bytes.size()) {
        const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
        if (n <= 0) {
            ::close(fd);
            throw std::runtime_error("cannot write " + tmp);
        }
        done += static_cast<size_t>(n);
    }
    if (::fsync(fd) != 0 || ::close(fd) != 0) {
        throw std::runtime_error("cannot sync " + tmp);
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        throw std::runtime_error("cannot publish " + path);
    }
}

std::string
readText(const std::string& path)
{
    std::ifstream file(path, std::ios::binary);
    if (!file) {
        throw std::runtime_error("cannot read " + path);
    }
    std::ostringstream text;
    text << file.rdbuf();
    return text.str();
}

TruthReads
loadTruthReads(const std::string& path)
{
    std::ifstream file(path);
    if (!file) {
        throw std::runtime_error("cannot read " + path);
    }
    TruthReads set;
    std::string line;
    while (std::getline(file, line)) {
        if (line.rfind("#paired\t", 0) == 0) {
            set.reads.pairedEnd = line.substr(8) == "1";
            continue;
        }
        std::istringstream fields(line);
        mg::map::Read read;
        Truth truth;
        long long mate = -1;
        char strand = '+';
        std::string nodes;
        if (!(fields >> read.name >> read.sequence >> mate >>
              truth.haplotype >> truth.offset >> strand >> nodes)) {
            throw std::runtime_error("malformed read record in " + path);
        }
        read.mate = mate < 0 ? SIZE_MAX : static_cast<size_t>(mate);
        truth.reverse = strand == '-';
        std::istringstream ids(nodes);
        std::string id;
        while (std::getline(ids, id, ',')) {
            truth.nodes.push_back(std::stoull(id));
        }
        set.reads.reads.push_back(std::move(read));
        set.truth.push_back(std::move(truth));
    }
    return set;
}

bool
parseGafLine(const std::string& line, std::string& name,
             std::vector<uint64_t>& path_nodes)
{
    std::vector<std::string> cols;
    size_t begin = 0;
    while (true) {
        const size_t tab = line.find('\t', begin);
        cols.push_back(line.substr(begin, tab - begin));
        if (tab == std::string::npos) {
            break;
        }
        begin = tab + 1;
    }
    if (cols.size() < 12 || cols[0].empty()) {
        return false;
    }
    for (size_t c : { 1, 2, 3, 6, 7, 8, 9, 10, 11 }) {
        if (cols[c].empty() ||
            cols[c].find_first_not_of("0123456789") != std::string::npos) {
            return false;
        }
    }
    name = cols[0];
    path_nodes.clear();
    const std::string& path = cols[5];
    if (path == "*") {
        return true;
    }
    size_t i = 0;
    while (i < path.size()) {
        if (path[i] != '>' && path[i] != '<') {
            return false;
        }
        size_t j = i + 1;
        while (j < path.size() && path[j] >= '0' && path[j] <= '9') {
            ++j;
        }
        if (j == i + 1) {
            return false;
        }
        path_nodes.push_back(std::stoull(path.substr(i + 1, j - i - 1)));
        i = j;
    }
    return !path_nodes.empty();
}

std::vector<std::string>
splitLines(const std::string& text)
{
    std::vector<std::string> lines;
    size_t begin = 0;
    while (begin < text.size()) {
        size_t nl = text.find('\n', begin);
        if (nl == std::string::npos) {
            nl = text.size();
        }
        lines.push_back(text.substr(begin, nl - begin));
        begin = nl + 1;
    }
    return lines;
}

bool
placedCorrectly(const std::vector<uint64_t>& path_nodes, const Truth& truth)
{
    for (uint64_t node : path_nodes) {
        if (std::find(truth.nodes.begin(), truth.nodes.end(), node) !=
            truth.nodes.end()) {
            return true;
        }
    }
    return false;
}

Accuracy
scoreGaf(const std::vector<std::string>& lines, const TruthReads& input)
{
    Accuracy accuracy;
    accuracy.reads = input.reads.size();
    if (lines.size() != input.reads.size()) {
        accuracy.wellFormed = false;
        accuracy.problem = "GAF has " + std::to_string(lines.size()) +
                           " lines for " +
                           std::to_string(input.reads.size()) + " reads";
        return accuracy;
    }
    std::string name;
    std::vector<uint64_t> nodes;
    for (size_t i = 0; i < lines.size(); ++i) {
        if (!parseGafLine(lines[i], name, nodes) ||
            name != input.reads.reads[i].name) {
            accuracy.wellFormed = false;
            accuracy.problem = "GAF line " + std::to_string(i + 1) +
                               " does not parse or names the wrong read";
            return accuracy;
        }
        accuracy.mapped += nodes.empty() ? 0 : 1;
        accuracy.correct += placedCorrectly(nodes, input.truth[i]) ? 1 : 0;
    }
    return accuracy;
}

double
tailQuantile(size_t samples)
{
    if (samples < 20) {
        return 0.5;
    }
    return std::min(0.99, 1.0 - 10.0 / static_cast<double>(samples));
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

namespace {

/** A "Key:   value kB" field of /proc/self/status, in kB. */
double
statusKb(const char* key)
{
    std::ifstream status("/proc/self/status");
    std::string line;
    const std::string prefix = std::string(key) + ":";
    while (std::getline(status, line)) {
        if (line.rfind(prefix, 0) == 0) {
            return std::stod(line.substr(prefix.size()));
        }
    }
    return 0.0;
}

std::string
jsonEscape(const std::string& text)
{
    std::string out;
    for (char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

double
peakRssMiB()
{
    return statusKb("VmHWM") / 1024.0;
}

uint64_t
stealTicks()
{
    std::ifstream stat("/proc/stat");
    std::string line;
    while (std::getline(stat, line)) {
        if (line.rfind("cpu ", 0) == 0) {
            std::istringstream fields(line.substr(4));
            uint64_t v[8] = {};
            for (uint64_t& x : v) {
                fields >> x;
            }
            return v[7]; // user nice system idle iowait irq softirq steal
        }
    }
    return 0;
}

JsonObject&
JsonObject::num(const std::string& key, double value)
{
    char buf[64];
    if (!std::isfinite(value)) {
        value = 0.0;
    }
    std::snprintf(buf, sizeof buf, "%.17g", value);
    fields_.emplace_back(key, buf);
    return *this;
}

JsonObject&
JsonObject::integer(const std::string& key, uint64_t value)
{
    fields_.emplace_back(key, std::to_string(value));
    return *this;
}

JsonObject&
JsonObject::str(const std::string& key, const std::string& value)
{
    fields_.emplace_back(key, "\"" + jsonEscape(value) + "\"");
    return *this;
}

JsonObject&
JsonObject::raw(const std::string& key, const std::string& json)
{
    fields_.emplace_back(key, json);
    return *this;
}

std::string
JsonObject::dump() const
{
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
        out += (i ? ", \"" : "\"") + jsonEscape(fields_[i].first) +
               "\": " + fields_[i].second;
    }
    return out + "}";
}

void
RunResult::check(bool ok, const std::string& what)
{
    if (!ok) {
        correct = false;
        if (std::find(problems.begin(), problems.end(), what) ==
            problems.end()) {
            problems.push_back(what);
        }
    }
}

void
RunResult::set(const std::string& name, double value)
{
    metrics[name] = value;
}

double
cpuSeconds()
{
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace e2e
