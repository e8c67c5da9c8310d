#include "tune/autotuner.h"

#include <algorithm>

#include "machine/tracer.h"
#include "util/common.h"

namespace mg::tune {

std::string
TuneConfig::str() const
{
    return std::string(sched::schedulerName(scheduler)) + "/" +
           std::to_string(batchSize) + "/" + std::to_string(cacheCapacity);
}

TuneConfig
defaultConfig()
{
    // Giraffe defaults: OpenMP scheduling, batch 512, capacity 256.
    return TuneConfig{sched::SchedulerKind::OmpDynamic, 512,
                      gbwt::CachedGbwt::kDefaultInitialCapacity};
}

SweepSpace
paperSweepSpace()
{
    SweepSpace space;
    space.schedulers = {sched::SchedulerKind::OmpDynamic,
                        sched::SchedulerKind::WorkStealing};
    space.batchSizes = {128, 256, 512, 1024, 2048};
    space.capacities = {256, 512, 1024, 2048, 4096};
    return space;
}

machine::SchedulerCost
schedulerCost(sched::SchedulerKind kind)
{
    machine::SchedulerCost cost;
    switch (kind) {
      case sched::SchedulerKind::OmpDynamic:
        // Centralized dynamic queue: a shared-counter CAS per batch plus
        // fork/join barrier costs; the shared counter ping-pongs between
        // all participating cores.
        cost.dispatchMicros = 1.1;
        cost.threadSetupMicros = 6.0;
        cost.contentionMicrosPerThread = 0.030;
        cost.serialDispatch = false;
        cost.imbalanceFactor = 0.5;
        break;
      case sched::SchedulerKind::VgBatch:
        // Main-thread dispatcher: batch creation and queueing serialize;
        // workers contend on the queue lock.
        cost.dispatchMicros = 1.6;
        cost.threadSetupMicros = 12.0;
        cost.contentionMicrosPerThread = 0.015;
        cost.serialDispatch = true;
        cost.imbalanceFactor = 0.5;
        break;
      case sched::SchedulerKind::WorkStealing:
        // Mostly thread-local cursors: one relaxed fetch_add per batch,
        // contention only while stealing; threads are spawned per run.
        cost.dispatchMicros = 0.35;
        cost.threadSetupMicros = 18.0;
        cost.contentionMicrosPerThread = 0.006;
        cost.serialDispatch = false;
        cost.imbalanceFactor = 0.08; // stealing drains the tail
        break;
      case sched::SchedulerKind::Static:
        // No dispatch machinery at all, but nothing absorbs skew: the
        // tail is a whole block, not a batch.
        cost.dispatchMicros = 0.0;
        cost.threadSetupMicros = 18.0;
        cost.contentionMicrosPerThread = 0.0;
        cost.serialDispatch = false;
        cost.imbalanceFactor = 4.0;
        break;
    }
    return cost;
}

Autotuner::Autotuner(const graph::VariationGraph& graph,
                     const gbwt::Gbwt& gbwt,
                     const index::DistanceIndex& distance,
                     const io::SeedCapture& capture,
                     map::MapperParams mapper_params)
    : graph_(graph), gbwt_(gbwt), distance_(distance), capture_(capture),
      mapperParams_(mapper_params)
{}

CapacityProfile
Autotuner::measureCapacity(size_t capacity) const
{
    CapacityProfile profile;
    profile.capacity = capacity;
    profile.numReads = capture_.entries.size();

    giraffe::ProxyParams params;
    params.mapper = mapperParams_;
    params.mapper.gbwtCacheCapacity = capacity;
    params.numThreads = 1;
    giraffe::ProxyRunner runner(graph_, gbwt_, distance_, params);

    // Clean runs first: the wall clock anchors the model's absolute
    // scale; best-of-3 suppresses host scheduling noise.
    giraffe::ProxyOutputs clean = runner.run(capture_);
    profile.hostSeconds = clean.wallSeconds;
    for (int rep = 1; rep < 3; ++rep) {
        profile.hostSeconds =
            std::min(profile.hostSeconds, runner.run(capture_).wallSeconds);
    }

    // Traced run second: per-machine cache counters and instruction work.
    machine::TraceCounter tracer(machine::paperMachines());
    giraffe::ProxyOutputs outputs = runner.run(capture_, nullptr, &tracer);
    profile.tracedSeconds = outputs.wallSeconds;
    profile.work = tracer.work();
    for (size_t m = 0; m < tracer.numMachines(); ++m) {
        profile.perMachine[tracer.hierarchy(m).config().name] =
            tracer.counters(m);
    }
    profile.cacheStats = outputs.tally.cache();
    // Standalone measurement: the profile anchors itself.
    profile.anchorHostSeconds = profile.hostSeconds;
    profile.anchorModelSeconds =
        machine::modelCost(machine::machineByName("local-intel"),
                           profile.work,
                           profile.perMachine.at("local-intel")).seconds;
    return profile;
}

std::vector<CapacityProfile>
Autotuner::measureCapacities(const std::vector<size_t>& capacities) const
{
    std::vector<CapacityProfile> profiles;
    for (size_t capacity : capacities) {
        bool measured = false;
        for (const CapacityProfile& existing : profiles) {
            if (existing.capacity == capacity) {
                profiles.push_back(existing);
                measured = true;
                break;
            }
        }
        if (!measured) {
            profiles.push_back(measureCapacity(capacity));
        }
    }
    // Share one calibration anchor across the sweep: prefer the default
    // capacity's profile, else the first.
    const CapacityProfile* anchor = &profiles.front();
    for (const CapacityProfile& profile : profiles) {
        if (profile.capacity == gbwt::CachedGbwt::kDefaultInitialCapacity) {
            anchor = &profile;
            break;
        }
    }
    double anchor_host = anchor->anchorHostSeconds;
    double anchor_model = anchor->anchorModelSeconds;
    for (CapacityProfile& profile : profiles) {
        profile.anchorHostSeconds = anchor_host;
        profile.anchorModelSeconds = anchor_model;
    }
    return profiles;
}

machine::CostProfile
Autotuner::calibratedCost(const machine::MachineConfig& machine,
                          const CapacityProfile& profile)
{
    auto it = profile.perMachine.find(machine.name);
    MG_CHECK(it != profile.perMachine.end(),
             "profile lacks counters for machine ", machine.name);
    machine::CostProfile cost =
        machine::modelCost(machine, profile.work, it->second);

    // Calibrate absolute time against the sweep's anchor measurement:
    // local-intel at the default capacity is the reference twin; all
    // machine and capacity differences flow through the deterministic
    // modelled cycle ratios, keeping host timing noise out.
    if (profile.anchorModelSeconds > 0.0 &&
        profile.anchorHostSeconds > 0.0) {
        cost.seconds = profile.anchorHostSeconds *
                       (cost.seconds / profile.anchorModelSeconds);
    }
    return cost;
}

double
Autotuner::modelMakespan(const machine::MachineConfig& machine,
                         const CapacityProfile& profile,
                         const TuneConfig& config, size_t threads)
{
    auto it = profile.perMachine.find(machine.name);
    MG_CHECK(it != profile.perMachine.end(),
             "profile lacks counters for machine ", machine.name);
    machine::CostProfile cost = calibratedCost(machine, profile);

    machine::WorkloadShape shape;
    shape.numReads = profile.numReads;
    shape.batchSize = config.batchSize;
    shape.dramBytes = static_cast<double>(it->second.llcMisses) * 64.0;

    return machine::predictedTime(machine, cost, shape,
                                  schedulerCost(config.scheduler), threads);
}

std::vector<ConfigResult>
Autotuner::sweep(const machine::MachineConfig& machine,
                 const SweepSpace& space,
                 const std::vector<CapacityProfile>& profiles) const
{
    auto profile_for = [&](size_t capacity) -> const CapacityProfile& {
        for (const CapacityProfile& profile : profiles) {
            if (profile.capacity == capacity) {
                return profile;
            }
        }
        throw util::Error("no measured profile for capacity " +
                          std::to_string(capacity));
    };

    std::vector<ConfigResult> results;
    results.reserve(space.size());
    for (sched::SchedulerKind scheduler : space.schedulers) {
        for (size_t batch : space.batchSizes) {
            for (size_t capacity : space.capacities) {
                TuneConfig config{scheduler, batch, capacity};
                ConfigResult result;
                result.config = config;
                result.makespanSeconds =
                    modelMakespan(machine, profile_for(capacity), config,
                                  machine.threadContexts());
                results.push_back(result);
            }
        }
    }
    return results;
}

const ConfigResult&
Autotuner::best(const std::vector<ConfigResult>& sweep)
{
    MG_CHECK(!sweep.empty(), "empty sweep");
    const ConfigResult* best = &sweep.front();
    for (const ConfigResult& result : sweep) {
        if (result.makespanSeconds < best->makespanSeconds) {
            best = &result;
        }
    }
    return *best;
}

const ConfigResult&
Autotuner::find(const std::vector<ConfigResult>& sweep,
                const TuneConfig& config)
{
    for (const ConfigResult& result : sweep) {
        if (result.config.scheduler == config.scheduler &&
            result.config.batchSize == config.batchSize &&
            result.config.cacheCapacity == config.cacheCapacity) {
            return result;
        }
    }
    throw util::Error("configuration not in sweep: " + config.str());
}

stats::AnovaResult
Autotuner::anova(const std::vector<ConfigResult>& sweep)
{
    MG_CHECK(sweep.size() >= 8, "sweep too small for ANOVA");

    auto level_of = [](std::vector<size_t>& levels, size_t value,
                       std::vector<size_t>& catalog) {
        for (size_t i = 0; i < catalog.size(); ++i) {
            if (catalog[i] == value) {
                levels.push_back(i);
                return;
            }
        }
        levels.push_back(catalog.size());
        catalog.push_back(value);
    };

    stats::Factor scheduler{"scheduler", {}, 0};
    stats::Factor batches{"batch_size", {}, 0};
    stats::Factor capacity{"cache_capacity", {}, 0};
    std::vector<size_t> sched_catalog;
    std::vector<size_t> batch_catalog;
    std::vector<size_t> capacity_catalog;
    std::vector<double> response;
    for (const ConfigResult& result : sweep) {
        level_of(scheduler.levels,
                 static_cast<size_t>(result.config.scheduler),
                 sched_catalog);
        level_of(batches.levels, result.config.batchSize, batch_catalog);
        level_of(capacity.levels, result.config.cacheCapacity,
                 capacity_catalog);
        response.push_back(result.makespanSeconds);
    }
    scheduler.numLevels = sched_catalog.size();
    batches.numLevels = batch_catalog.size();
    capacity.numLevels = capacity_catalog.size();
    return stats::anova({scheduler, batches, capacity}, response);
}

} // namespace mg::tune
