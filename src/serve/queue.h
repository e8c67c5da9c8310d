/**
 * @file
 * Bounded admission queue with per-tenant QoS — the backpressure heart of
 * the mgd daemon.  Admission control happens at tryPush time and is
 * *explicit*: a full queue or a saturated tenant is answered with a
 * structured verdict carrying a RETRY_AFTER hint, never by blocking the
 * acceptor or silently dropping the request.
 *
 * Dequeue is weighted-fair via stride scheduling: each tenant holds a
 * `pass` value advanced by `kStrideScale / weight` per dequeue, and pop()
 * serves the eligible tenant with the smallest pass — so over any window,
 * tenants drain in proportion to their weights regardless of arrival
 * order.  A tenant at its in-flight cap is ineligible until complete()
 * runs, which is how one slow tenant is prevented from occupying every
 * worker.
 *
 * Concurrency: one mutex + two condvars (mutator-friendly, TSan-clean by
 * construction).  The queue sits off the mapping hot path — push/pop
 * happen once per *request* (a batch of reads), not per read.
 */
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/common.h"

namespace mg::serve {

/** One tenant's QoS contract. */
struct TenantConfig
{
    std::string name;
    /** Fair-share weight; a weight-3 tenant drains 3x a weight-1 one. */
    uint32_t weight = 1;
    /** Concurrent requests being mapped for this tenant (0 = unlimited). */
    size_t maxInFlight = 0;
    /** Queued requests this tenant may hold (0 = global cap only). */
    size_t maxQueued = 0;
};

/** Admission-control outcome of one tryPush. */
enum class Admission : uint8_t
{
    Admitted = 0,
    /** Global queue capacity reached: system-wide backpressure. */
    QueueFull,
    /** This tenant's own queued cap reached: per-tenant backpressure. */
    TenantSaturated,
    /** The queue is closed (daemon draining). */
    Closed,
};

/** One tenant's instantaneous load (live introspection snapshot). */
struct TenantLoad
{
    size_t queued = 0;
    size_t inFlight = 0;
};

/** Verdict of one admission attempt. */
struct AdmissionVerdict
{
    Admission outcome = Admission::Admitted;
    /** Backoff floor for rejected requests (RETRY_AFTER), milliseconds. */
    uint32_t retryAfterMillis = 0;
    /** Queue depth observed at decision time (gauge fodder). */
    size_t depth = 0;

    bool admitted() const { return outcome == Admission::Admitted; }
};

/**
 * Bounded multi-tenant queue.  T is the request payload (the daemon
 * queues a Job struct; the unit tests queue integers).
 */
template <typename T>
class AdmissionQueue
{
  public:
    /** Stride numerator; large enough that weight ratios stay exact. */
    static constexpr uint64_t kStrideScale = 1 << 20;

    AdmissionQueue(size_t capacity, std::vector<TenantConfig> tenants,
                   uint32_t retry_base_millis = 25)
        : capacity_(capacity), retryBaseMillis_(retry_base_millis)
    {
        MG_CHECK(capacity_ > 0, "admission queue capacity must be positive");
        MG_CHECK(!tenants.empty(), "admission queue needs >= 1 tenant");
        tenants_.reserve(tenants.size());
        for (TenantConfig& config : tenants) {
            MG_CHECK(config.weight > 0, "tenant '", config.name,
                     "' must have a positive weight");
            Tenant tenant;
            tenant.config = std::move(config);
            tenant.stride = kStrideScale / tenant.config.weight;
            tenants_.push_back(std::move(tenant));
        }
    }

    size_t tenantCount() const { return tenants_.size(); }

    const TenantConfig&
    tenant(size_t index) const
    {
        return tenants_[index].config;
    }

    /** Index of a tenant by name; SIZE_MAX when unknown. */
    size_t
    tenantIndex(const std::string& name) const
    {
        for (size_t i = 0; i < tenants_.size(); ++i) {
            if (tenants_[i].config.name == name) {
                return i;
            }
        }
        return SIZE_MAX;
    }

    /**
     * Admit or reject one request.  Never blocks: the verdict is the
     * backpressure signal.  retryAfterMillis scales with how far over
     * capacity demand is, so a persistently full queue pushes clients
     * further out instead of letting them hammer the socket.  `item` is
     * moved from only on admission; a rejected item is left to the
     * caller to answer.
     */
    AdmissionVerdict
    tryPush(size_t tenant_index, T&& item)
    {
        MG_ASSERT(tenant_index < tenants_.size());
        std::lock_guard<std::mutex> lock(mutex_);
        AdmissionVerdict verdict;
        verdict.depth = totalQueued_;
        if (closed_) {
            verdict.outcome = Admission::Closed;
            verdict.retryAfterMillis = retryAfter();
            return verdict;
        }
        if (totalQueued_ >= capacity_) {
            verdict.outcome = Admission::QueueFull;
            verdict.retryAfterMillis = retryAfter();
            return verdict;
        }
        Tenant& tenant = tenants_[tenant_index];
        if (tenant.config.maxQueued != 0 &&
            tenant.items.size() >= tenant.config.maxQueued) {
            verdict.outcome = Admission::TenantSaturated;
            verdict.retryAfterMillis = retryAfter();
            return verdict;
        }
        if (tenant.items.empty()) {
            // A tenant re-entering after idling must not cash in the pass
            // it "saved" while absent — that would let it monopolize the
            // next several dequeues (classic stride re-entry fix).
            if (tenant.pass < basePass_) {
                tenant.pass = basePass_;
            }
        }
        tenant.items.push_back(std::move(item));
        ++totalQueued_;
        verdict.depth = totalQueued_;
        if (totalQueued_ > peakDepth_) {
            peakDepth_ = totalQueued_;
        }
        readable_.notify_one();
        return verdict;
    }

    /**
     * Dequeue the next request by weighted fair order.  Blocks while the
     * queue is open but has nothing eligible; returns false once the
     * queue is closed *and* empty (worker shutdown signal).
     */
    bool
    pop(T& out, size_t& tenant_index)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            size_t winner = SIZE_MAX;
            for (size_t i = 0; i < tenants_.size(); ++i) {
                Tenant& tenant = tenants_[i];
                if (tenant.items.empty()) {
                    continue;
                }
                if (tenant.config.maxInFlight != 0 &&
                    tenant.inFlight >= tenant.config.maxInFlight) {
                    continue;
                }
                if (winner == SIZE_MAX ||
                    tenant.pass < tenants_[winner].pass) {
                    winner = i;
                }
            }
            if (winner != SIZE_MAX) {
                Tenant& tenant = tenants_[winner];
                out = std::move(tenant.items.front());
                tenant.items.pop_front();
                --totalQueued_;
                ++tenant.inFlight;
                basePass_ = tenant.pass;
                tenant.pass += tenant.stride;
                tenant_index = winner;
                return true;
            }
            if (closed_ && totalQueued_ == 0) {
                return false;
            }
            readable_.wait(lock);
        }
    }

    /**
     * Remove every *still-queued* item matching `predicate`, handing the
     * (tenant index, item) pairs to the caller so the shed requests can
     * be answered outside the lock (SLO-aware shedding: a queued request
     * whose client deadline can no longer be met is cheaper to refuse
     * now than to map and throw away).  Items already popped — in flight
     * on a worker — are untouched; no in-flight accounting is involved.
     */
    template <typename Predicate>
    void
    shedIf(Predicate&& predicate,
           std::vector<std::pair<size_t, T>>& shed)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (size_t i = 0; i < tenants_.size(); ++i) {
            std::deque<T>& items = tenants_[i].items;
            for (auto it = items.begin(); it != items.end();) {
                if (predicate(*it)) {
                    shed.emplace_back(i, std::move(*it));
                    it = items.erase(it);
                    --totalQueued_;
                } else {
                    ++it;
                }
            }
        }
    }

    /** A popped request finished (or was shed); frees an in-flight slot. */
    void
    complete(size_t tenant_index)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        MG_ASSERT(tenant_index < tenants_.size());
        MG_ASSERT(tenants_[tenant_index].inFlight > 0);
        --tenants_[tenant_index].inFlight;
        // A freed in-flight slot can make a capped tenant eligible again.
        readable_.notify_all();
    }

    /** Stop admitting; wakes poppers so they can drain and exit. */
    void
    close()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        closed_ = true;
        readable_.notify_all();
    }

    bool
    closed() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return closed_;
    }

    size_t
    depth() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return totalQueued_;
    }

    /** Highest depth ever observed (capacity-invariant checks). */
    size_t
    peakDepth() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return peakDepth_;
    }

    size_t
    inFlight() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        size_t total = 0;
        for (const Tenant& tenant : tenants_) {
            total += tenant.inFlight;
        }
        return total;
    }

    /** Per-tenant load snapshot, index-aligned with tenant(); one lock
     *  acquisition so the queued/in-flight pairs are mutually
     *  consistent (ControlOp::Stats introspection). */
    std::vector<TenantLoad>
    tenantLoads() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<TenantLoad> loads;
        loads.reserve(tenants_.size());
        for (const Tenant& tenant : tenants_) {
            TenantLoad load;
            load.queued = tenant.items.size();
            load.inFlight = tenant.inFlight;
            loads.push_back(load);
        }
        return loads;
    }

    size_t capacity() const { return capacity_; }

  private:
    struct Tenant
    {
        // Move-only: std::deque declares a copy constructor even for
        // move-only T (it only fails at instantiation), so without the
        // explicit delete vector relocation would pick the copy path
        // and hard-error once T carries a unique_ptr (the Job's trace).
        Tenant() = default;
        Tenant(const Tenant&) = delete;
        Tenant& operator=(const Tenant&) = delete;
        Tenant(Tenant&&) = default;
        Tenant& operator=(Tenant&&) = default;

        TenantConfig config;
        std::deque<T> items;
        size_t inFlight = 0;
        uint64_t pass = 0;
        uint64_t stride = kStrideScale;
    };

    /** Backoff hint under the lock: base + base * load. */
    uint32_t
    retryAfter() const
    {
        uint64_t scaled =
            retryBaseMillis_ +
            (static_cast<uint64_t>(retryBaseMillis_) * totalQueued_) /
                capacity_;
        return static_cast<uint32_t>(scaled);
    }

    const size_t capacity_;
    const uint32_t retryBaseMillis_;
    mutable std::mutex mutex_;
    std::condition_variable readable_;
    std::vector<Tenant> tenants_;
    size_t totalQueued_ = 0;
    size_t peakDepth_ = 0;
    uint64_t basePass_ = 0;
    bool closed_ = false;
};

} // namespace mg::serve
