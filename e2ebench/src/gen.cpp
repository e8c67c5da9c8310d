/**
 * @file
 * Input generation, run in its own process so the measuring process's
 * peak RSS is the mapper's and not the generator's.  Writes, under
 * <dir>/<workload>/:
 *
 *   graph.mgz3             the analog pangenome as an MGZ v3 container
 *   graph-b.mgz3           a second copy to hot-swap to (swap workloads)
 *   reads-<seed>.tsv       the seeded read set with its ground truth
 *
 * Containers are built once per directory and never rewritten: each is
 * published by writing a temp file, fsyncing it and renaming it into
 * place, because a daemon may have the old inode mapped and an in-place
 * rewrite of a mapped file faults the reader (SIGBUS).
 */
#include "gen.h"

#include <sys/stat.h>

#include "index/distance.h"
#include "index/minimizer.h"
#include "io/mgz.h"

namespace e2e {

namespace {

bool
exists(const std::string& path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

} // namespace

std::string
workloadDir(const std::string& dir, const Workload& workload)
{
    return dir + "/" + workload.name;
}

std::string
containerPath(const std::string& dir, const Workload& workload, int copy)
{
    return workloadDir(dir, workload) +
           (copy == 0 ? "/graph.mgz3" : "/graph-b.mgz3");
}

std::string
readsPath(const std::string& dir, const Workload& workload, uint64_t seed)
{
    return workloadDir(dir, workload) + "/reads-" + std::to_string(seed) +
           ".tsv";
}

std::string
gafPath(const std::string& dir, const Workload& workload, uint64_t seed)
{
    return workloadDir(dir, workload) + "/mapped-" + std::to_string(seed) +
           ".gaf";
}

std::string
spansPath(const std::string& dir, const Workload& workload, uint64_t seed)
{
    return workloadDir(dir, workload) + "/spans-" + std::to_string(seed) +
           ".json";
}

void
generate(const std::string& dir, const Workload& workload, uint64_t seed,
         size_t reads)
{
    ::mkdir(dir.c_str(), 0755);
    ::mkdir(workloadDir(dir, workload).c_str(), 0755);
    const int copies = workload.swapEverySeconds > 0.0 ? 2 : 1;
    const std::string reads_path = readsPath(dir, workload, seed);
    bool containers_ready = true;
    for (int copy = 0; copy < copies; ++copy) {
        containers_ready &= exists(containerPath(dir, workload, copy));
    }
    if (containers_ready && exists(reads_path)) {
        return;
    }

    const mg::sim::GeneratedPangenome pangenome =
        mg::sim::generatePangenome(workload.pangenome);
    if (!containers_ready) {
        mg::index::MinimizerParams mparams;
        mparams.buildThreads = 3;
        const mg::index::MinimizerIndex minimizers(pangenome.graph, mparams);
        const mg::index::DistanceIndex distance(pangenome.graph);
        const std::vector<uint8_t> bytes = mg::io::encodeMgz3(
            pangenome.graph, pangenome.gbwt, minimizers, distance);
        for (int copy = 0; copy < copies; ++copy) {
            if (!exists(containerPath(dir, workload, copy))) {
                publishFile(containerPath(dir, workload, copy),
                            std::string_view(
                                reinterpret_cast<const char*>(bytes.data()),
                                bytes.size()));
            }
        }
    }
    saveTruthReads(reads_path,
                   sampleReads(pangenome, workload, seed,
                               reads == 0 ? workload.reads : reads));
}

} // namespace e2e
