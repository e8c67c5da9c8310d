#include "serve/index_manager.h"

#include "fault/fault.h"
#include "util/common.h"
#include "util/status.h"
#include "util/timer.h"

namespace mg::serve {

IndexManager::IndexManager(io::IndexedPangenome&& pangenome,
                           giraffe::SessionParams session,
                           std::string source)
    : sessionParams_(session),
      current_(bind({ 1, std::move(source), std::move(pangenome), nullptr }))
{}

std::shared_ptr<IndexManager::Generation>
IndexManager::bind(Generation&& gen) const
{
    auto bound = std::make_shared<Generation>(std::move(gen));
    const io::IndexedPangenome& pangenome = bound->pangenome;
    bound->session = std::make_unique<giraffe::MapSession>(
        pangenome.graph, pangenome.gbwt, pangenome.minimizers,
        pangenome.distance, sessionParams_);
    return bound;
}

IndexManager::Handle
IndexManager::pin() const
{
    std::lock_guard<std::mutex> lock(pinMutex_);
    return current_;
}

uint64_t
IndexManager::generation() const
{
    std::lock_guard<std::mutex> lock(pinMutex_);
    return current_->number;
}

void
IndexManager::publish(Handle next)
{
    std::lock_guard<std::mutex> lock(pinMutex_);
    Retired retired;
    retired.number = current_->number;
    retired.generation = current_;
    retired.mapping = current_->pangenome.mapping;
    retired_.push_back(std::move(retired));
    ++retiredCount_;
    current_ = std::move(next);
}

SwapOutcome
IndexManager::swap(const std::string& path, obs::Hub* hub)
{
    std::lock_guard<std::mutex> swap_lock(swapMutex_);
    SwapOutcome outcome;
    Handle serving = pin();
    outcome.generation = serving->number;

    util::WallTimer timer;
    try {
        // -- load: read and deep-validate the image before binding it.
        // This is the open/validate split: a corrupt replacement is
        // rejected from its bytes alone, with the serving index never
        // touched.  (The re-validation during load below is therefore
        // belt and braces, not the rejection path.)
        fault::inject("serve.swap.load");
        util::Status valid = io::validatePangenomeFile(path, true);
        if (!valid.ok()) {
            outcome.reason = valid.toString();
            return outcome;
        }
        io::IndexedPangenome loaded = io::loadPangenome(path);

        // -- validate: the image is structurally sound; now check it is
        // compatible with the serving contract.
        fault::inject("serve.swap.validate");
        if (loaded.graph.numNodes() == 0) {
            outcome.reason = "replacement pangenome has no nodes";
            return outcome;
        }
        const index::MinimizerParams& now =
            serving->pangenome.minimizers.params();
        const index::MinimizerParams& next = loaded.minimizers.params();
        if (next.k != now.k || next.w != now.w) {
            outcome.reason = util::cat(
                "replacement minimizer parameters (k=", next.k,
                ",w=", next.w, ") do not match serving (k=", now.k,
                ",w=", now.w, ")");
            return outcome;
        }

        std::shared_ptr<Generation> bound =
            bind({ serving->number + 1, path, std::move(loaded), nullptr });
        // Warm every worker slot *before* publish so the first post-swap
        // request pays no lazy-init cost inside the new generation.
        bound->session->warmup(hub);

        // -- publish: flip the handle under the pin mutex.  A fault
        // here fires with the old generation still published and
        // serving, so a Throw rolls back cleanly, a Stall keeps the old
        // generation answering admissions, and a Crash models dying
        // mid-swap with the old image still the durable truth.
        fault::inject("serve.swap.publish");
        outcome.loadSeconds = timer.seconds();
        outcome.generation = bound->number;
        publish(std::move(bound));
    } catch (const util::Error& err) {
        outcome.accepted = false;
        outcome.generation = serving->number;
        outcome.reason = err.what();
        return outcome;
    }
    outcome.accepted = true;

    // -- retire: the old handle now lives only in pinned requests; a
    // fault here must not un-publish (the flip already happened).
    try {
        fault::inject("serve.swap.retire");
    } catch (const util::Error&) {
        // Retirement bookkeeping is passive; nothing to undo.
    }
    return outcome;
}

uint64_t
IndexManager::retiredTotal() const
{
    std::lock_guard<std::mutex> lock(pinMutex_);
    return retiredCount_;
}

size_t
IndexManager::retiredAlive() const
{
    std::lock_guard<std::mutex> lock(pinMutex_);
    size_t alive = 0;
    for (const Retired& retired : retired_) {
        if (!retired.generation.expired()) {
            ++alive;
        }
    }
    return alive;
}

size_t
IndexManager::retiredMappingsAlive() const
{
    std::lock_guard<std::mutex> lock(pinMutex_);
    size_t alive = 0;
    for (const Retired& retired : retired_) {
        if (!retired.mapping.expired()) {
            ++alive;
        }
    }
    return alive;
}

} // namespace mg::serve
