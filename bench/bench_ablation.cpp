/**
 * @file
 * Ablation studies of the design choices DESIGN.md calls out.  Not a
 * paper table — these quantify why the system is built the way it is:
 *
 *  A1. Haplotype-consistent extension (the GBWT constraint) vs walking
 *      every graph edge: states explored, time, output volume.
 *  A2. CachedGBWT on vs off: decode volume and critical-path time.
 *  A3. Exact-distance cluster refinement on vs off: cluster quality
 *      (count, spurious merges) and clustering time.
 *  A4. Scheduler policies head-to-head, including the static baseline.
 *  A5. Next-line prefetcher in the cache model.
 *  A6. Minimizer (k, w) parameterization: index size vs seed yield.
 */
#include <cstdio>

#include "common.h"
#include "util/str.h"
#include "util/timer.h"

namespace {

double
timeProxy(const mg::bench::World& world, const mg::io::SeedCapture& capture,
          mg::giraffe::ProxyParams params)
{
    mg::giraffe::ProxyRunner proxy(world.graph(), world.gbwt(),
                                   world.distance, params);
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
        best = std::min(best, proxy.run(capture).wallSeconds);
    }
    return best;
}

} // namespace

int
main(int argc, char** argv)
{
    mg::util::Flags flags = mg::bench::benchFlags("bench_ablation", "0.3");
    if (!flags.parse(argc - 1, argv + 1)) {
        return 0;
    }
    mg::bench::banner("Ablation studies",
                      "Design-choice ablations on C-HPRC (host "
                      "measurements, best of 3)");

    auto world = mg::bench::buildWorld("C-HPRC", flags.real("scale"));
    mg::giraffe::ParentEmulator parent = world->parent();
    mg::io::SeedCapture capture =
        parent.capturePreprocessing(world->set.reads);

    // --- A1: haplotype-consistent extension. -------------------------
    {
        mg::giraffe::ProxyParams consistent;
        mg::giraffe::ProxyParams unconstrained;
        unconstrained.mapper.extend.haplotypeConsistent = false;

        mg::giraffe::ProxyRunner on(world->graph(), world->gbwt(),
                                    world->distance, consistent);
        mg::giraffe::ProxyRunner off(world->graph(), world->gbwt(),
                                     world->distance, unconstrained);
        auto out_on = on.run(capture);
        auto out_off = off.run(capture);
        uint64_t ext_on = 0;
        uint64_t ext_off = 0;
        for (size_t i = 0; i < out_on.extensions.size(); ++i) {
            ext_on += out_on.extensions[i].extensions.size();
            ext_off += out_off.extensions[i].extensions.size();
        }
        std::printf("A1 haplotype-consistent extension\n");
        std::printf("   %-22s %12s %14s %12s\n", "", "time (s)",
                    "GBWT lookups", "extensions");
        std::printf("   %-22s %12.3f %14llu %12llu\n", "GBWT-guided",
                    timeProxy(*world, capture, consistent),
                    static_cast<unsigned long long>(
                        out_on.tally.cache().lookups),
                    static_cast<unsigned long long>(ext_on));
        std::printf("   %-22s %12.3f %14llu %12llu\n", "all graph edges",
                    timeProxy(*world, capture, unconstrained),
                    static_cast<unsigned long long>(
                        out_off.tally.cache().lookups),
                    static_cast<unsigned long long>(ext_off));
        std::printf("   (unconstrained walks can spell recombinant paths "
                    "no haplotype supports)\n\n");
    }

    // --- A2: CachedGBWT on vs off. ------------------------------------
    {
        mg::giraffe::ProxyParams cached;
        mg::giraffe::ProxyParams uncached;
        uncached.mapper.gbwtCacheCapacity = 0;
        mg::giraffe::ProxyRunner off(world->graph(), world->gbwt(),
                                     world->distance, uncached);
        auto out_off = off.run(capture);
        mg::giraffe::ProxyRunner on(world->graph(), world->gbwt(),
                                    world->distance, cached);
        auto out_on = on.run(capture);
        std::printf("A2 CachedGBWT\n");
        std::printf("   %-22s %12s %14s\n", "", "time (s)", "decodes");
        std::printf("   %-22s %12.3f %14llu\n", "cache (capacity 256)",
                    timeProxy(*world, capture, cached),
                    static_cast<unsigned long long>(
                        out_on.tally.cache().decodes));
        std::printf("   %-22s %12.3f %14llu\n", "no cache",
                    timeProxy(*world, capture, uncached),
                    static_cast<unsigned long long>(
                        out_off.tally.cache().decodes));
        std::printf("\n");
    }

    // --- A3: exact-distance cluster refinement. ------------------------
    {
        mg::util::WallTimer timer;
        size_t refined_clusters = 0;
        size_t sweep_clusters = 0;
        mg::map::ClusterParams with;
        mg::map::ClusterParams without;
        without.exactRefinement = false;

        timer.reset();
        for (const auto& entry : capture.entries) {
            refined_clusters +=
                mg::map::clusterSeeds(world->graph(), world->distance,
                                      entry.seeds, with).size();
        }
        double refined_seconds = timer.seconds();
        timer.reset();
        for (const auto& entry : capture.entries) {
            sweep_clusters +=
                mg::map::clusterSeeds(world->graph(), world->distance,
                                      entry.seeds, without).size();
        }
        double sweep_seconds = timer.seconds();
        std::printf("A3 exact-distance cluster refinement\n");
        std::printf("   %-22s %12s %12s\n", "", "time (s)", "clusters");
        std::printf("   %-22s %12.3f %12zu\n", "with refinement",
                    refined_seconds, refined_clusters);
        std::printf("   %-22s %12.3f %12zu\n", "sweep only",
                    sweep_seconds, sweep_clusters);
        std::printf("   (refinement splits coordinate-coincident but "
                    "unreachable seed groups)\n\n");
    }

    // --- A4: scheduler policies head-to-head (4 threads, host). --------
    {
        std::printf("A4 scheduler policies (host, 4 threads, batch 64)\n");
        std::printf("   %-22s %12s\n", "", "time (s)");
        for (auto kind : {mg::sched::SchedulerKind::OmpDynamic,
                          mg::sched::SchedulerKind::VgBatch,
                          mg::sched::SchedulerKind::WorkStealing,
                          mg::sched::SchedulerKind::Static}) {
            mg::giraffe::ProxyParams params;
            params.scheduler = kind;
            params.numThreads = 4;
            params.batchSize = 64;
            std::printf("   %-22s %12.3f\n",
                        mg::sched::schedulerName(kind),
                        timeProxy(*world, capture, params));
        }
        std::printf("\n");
    }

    // --- A5: next-line prefetcher in the cache model. -------------------
    {
        mg::machine::MachineConfig base =
            mg::machine::machineByName("local-intel");
        mg::machine::MachineConfig with_pf = base;
        with_pf.nextLinePrefetcher = true;
        mg::machine::TraceCounter tracer({base, with_pf});
        mg::giraffe::ProxyRunner proxy(world->graph(), world->gbwt(),
                                       world->distance,
                                       mg::giraffe::ProxyParams());
        proxy.run(capture, nullptr, &tracer);
        const auto& plain = tracer.counters(0);
        const auto& pf = tracer.counters(1);
        std::printf("A5 next-line prefetcher (local-intel cache model)\n");
        std::printf("   %-22s %12s %12s %12s\n", "", "L1 misses",
                    "LLC misses", "prefetches");
        std::printf("   %-22s %12llu %12llu %12llu\n", "demand only",
                    static_cast<unsigned long long>(plain.l1Misses),
                    static_cast<unsigned long long>(plain.llcMisses),
                    static_cast<unsigned long long>(plain.prefetches));
        std::printf("   %-22s %12llu %12llu %12llu\n", "with prefetcher",
                    static_cast<unsigned long long>(pf.l1Misses),
                    static_cast<unsigned long long>(pf.llcMisses),
                    static_cast<unsigned long long>(pf.prefetches));
        std::printf("\n");
    }

    // --- A6: minimizer parameterization. -------------------------------
    {
        std::printf("A6 minimizer (k, w) parameterization\n");
        std::printf("   %4s %4s %12s %12s %14s\n", "k", "w", "index keys",
                    "entries", "seeds/read");
        for (auto [k, w] : {std::pair<int, int>{11, 6},
                            {15, 8},
                            {19, 11},
                            {25, 14}}) {
            mg::index::MinimizerParams params;
            params.k = k;
            params.w = w;
            mg::index::MinimizerIndex index(world->graph(), params);
            uint64_t seeds = 0;
            size_t probe = std::min<size_t>(200, world->set.reads.size());
            for (size_t i = 0; i < probe; ++i) {
                seeds += mg::map::findSeeds(index,
                                            world->set.reads.reads[i])
                             .size();
            }
            std::printf("   %4d %4d %12zu %12zu %14.1f\n", k, w,
                        index.numKeys(), index.numEntries(),
                        static_cast<double>(seeds) /
                            static_cast<double>(probe));
        }
    }
    return 0;
}
