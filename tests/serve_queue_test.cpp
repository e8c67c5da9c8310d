/**
 * mg::serve::AdmissionQueue tests: the capacity invariant under
 * concurrent producers, explicit RETRY_AFTER verdicts that grow with
 * load, weighted-fair dequeue ratios within tolerance, per-tenant
 * in-flight caps, the stride re-entry fix, and close/drain semantics.
 * Built to run clean under TSan (the tsan preset includes the serve
 * label).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "serve/queue.h"

namespace mg::serve {
namespace {

std::vector<TenantConfig>
twoTenants(uint32_t gold_weight = 3, uint32_t free_weight = 1)
{
    TenantConfig gold;
    gold.name = "gold";
    gold.weight = gold_weight;
    TenantConfig free_tier;
    free_tier.name = "free";
    free_tier.weight = free_weight;
    return { gold, free_tier };
}

TEST(AdmissionQueueTest, TenantLookup)
{
    AdmissionQueue<int> queue(4, twoTenants());
    EXPECT_EQ(queue.tenantCount(), 2u);
    EXPECT_EQ(queue.tenantIndex("gold"), 0u);
    EXPECT_EQ(queue.tenantIndex("free"), 1u);
    EXPECT_EQ(queue.tenantIndex("absent"), SIZE_MAX);
    EXPECT_EQ(queue.tenant(0).weight, 3u);
}

TEST(AdmissionQueueTest, RejectsBeyondCapacityWithGrowingRetryAfter)
{
    AdmissionQueue<int> queue(2, twoTenants(), /*retry_base_millis=*/20);
    EXPECT_TRUE(queue.tryPush(0, 1).admitted());
    EXPECT_TRUE(queue.tryPush(0, 2).admitted());

    AdmissionVerdict verdict = queue.tryPush(0, 3);
    EXPECT_EQ(verdict.outcome, Admission::QueueFull);
    EXPECT_GE(verdict.retryAfterMillis, 20u);
    // Full queue: the hint includes the load term (base + base * 2/2).
    EXPECT_GE(verdict.retryAfterMillis, 40u);
    EXPECT_EQ(queue.depth(), 2u);
}

TEST(AdmissionQueueTest, PerTenantQueuedCapIsIndependent)
{
    std::vector<TenantConfig> tenants = twoTenants();
    tenants[1].maxQueued = 1;
    AdmissionQueue<int> queue(8, tenants);
    EXPECT_TRUE(queue.tryPush(1, 1).admitted());
    AdmissionVerdict verdict = queue.tryPush(1, 2);
    EXPECT_EQ(verdict.outcome, Admission::TenantSaturated);
    // The other tenant is unaffected by its neighbor's saturation.
    EXPECT_TRUE(queue.tryPush(0, 3).admitted());
}

TEST(AdmissionQueueTest, ClosedQueueShedsNewAndDrainsOld)
{
    AdmissionQueue<int> queue(4, twoTenants());
    ASSERT_TRUE(queue.tryPush(0, 10).admitted());
    ASSERT_TRUE(queue.tryPush(1, 20).admitted());
    queue.close();

    EXPECT_EQ(queue.tryPush(0, 30).outcome, Admission::Closed);

    int item = 0;
    size_t tenant = SIZE_MAX;
    EXPECT_TRUE(queue.pop(item, tenant));
    queue.complete(tenant);
    EXPECT_TRUE(queue.pop(item, tenant));
    queue.complete(tenant);
    EXPECT_FALSE(queue.pop(item, tenant)); // closed and empty: stop
}

TEST(AdmissionQueueTest, InFlightCapMakesTenantIneligible)
{
    std::vector<TenantConfig> tenants = twoTenants();
    tenants[0].maxInFlight = 1;
    AdmissionQueue<int> queue(8, tenants);
    ASSERT_TRUE(queue.tryPush(0, 1).admitted());
    ASSERT_TRUE(queue.tryPush(0, 2).admitted());
    ASSERT_TRUE(queue.tryPush(1, 3).admitted());

    int item = 0;
    size_t tenant = SIZE_MAX;
    ASSERT_TRUE(queue.pop(item, tenant));
    EXPECT_EQ(tenant, 0u); // gold has the lowest pass first

    // Gold is now at its in-flight cap: the next pop must serve free
    // even though gold still has the queue's lowest pass.
    ASSERT_TRUE(queue.pop(item, tenant));
    EXPECT_EQ(tenant, 1u);
    EXPECT_EQ(item, 3);

    // Completing gold's request frees the slot; its queued item drains.
    queue.complete(0);
    ASSERT_TRUE(queue.pop(item, tenant));
    EXPECT_EQ(tenant, 0u);
    EXPECT_EQ(item, 2);
}

TEST(AdmissionQueueTest, WeightedFairDequeueMatchesWeights)
{
    // Saturate both tenants, then drain: over any window the dequeue
    // counts must track the 3:1 weights.
    AdmissionQueue<int> queue(400, twoTenants(3, 1));
    for (int i = 0; i < 200; ++i) {
        ASSERT_TRUE(queue.tryPush(0, int{i}).admitted());
        ASSERT_TRUE(queue.tryPush(1, int{i}).admitted());
    }
    size_t first_hundred[2] = { 0, 0 };
    for (int i = 0; i < 100; ++i) {
        int item = 0;
        size_t tenant = SIZE_MAX;
        ASSERT_TRUE(queue.pop(item, tenant));
        queue.complete(tenant);
        ++first_hundred[tenant];
    }
    // Exact stride behavior over 100 dequeues at weights 3:1 is 75/25;
    // allow a window's worth of rounding slack.
    EXPECT_NEAR(static_cast<double>(first_hundred[0]), 75.0, 2.0);
    EXPECT_NEAR(static_cast<double>(first_hundred[1]), 25.0, 2.0);
}

TEST(AdmissionQueueTest, ReenteringIdleTenantCannotCashSavedCredit)
{
    // Free idles while gold drains 90 requests; when free wakes up it
    // must share from *now* on, not monopolize the next 90 dequeues to
    // "catch up" — the classic stride re-entry problem.
    AdmissionQueue<int> queue(400, twoTenants(1, 1));
    for (int i = 0; i < 90; ++i) {
        ASSERT_TRUE(queue.tryPush(0, int{i}).admitted());
    }
    for (int i = 0; i < 90; ++i) {
        int item = 0;
        size_t tenant = SIZE_MAX;
        ASSERT_TRUE(queue.pop(item, tenant));
        queue.complete(tenant);
        ASSERT_EQ(tenant, 0u);
    }
    for (int i = 0; i < 40; ++i) {
        ASSERT_TRUE(queue.tryPush(0, int{i}).admitted());
        ASSERT_TRUE(queue.tryPush(1, int{i}).admitted());
    }
    size_t drained[2] = { 0, 0 };
    for (int i = 0; i < 40; ++i) {
        int item = 0;
        size_t tenant = SIZE_MAX;
        ASSERT_TRUE(queue.pop(item, tenant));
        queue.complete(tenant);
        ++drained[tenant];
    }
    EXPECT_NEAR(static_cast<double>(drained[0]), 20.0, 2.0);
    EXPECT_NEAR(static_cast<double>(drained[1]), 20.0, 2.0);
}

// ------------------------------------------------------------ concurrency

/**
 * The capacity invariant under fire: producers racing consumers, every
 * admission decision explicit.  admitted - popped can never exceed
 * capacity, peakDepth() proves the bound held at every instant, and
 * admitted + rejected == attempts (no silent drops).
 */
TEST(AdmissionQueueConcurrencyTest, CapacityInvariantAndNoSilentDrops)
{
    constexpr size_t kCapacity = 16;
    constexpr size_t kProducers = 4;
    constexpr size_t kConsumers = 2;
    constexpr size_t kPerProducer = 2000;

    AdmissionQueue<int> queue(kCapacity, twoTenants());
    std::atomic<uint64_t> admitted{0};
    std::atomic<uint64_t> rejected{0};
    std::atomic<uint64_t> popped{0};

    std::vector<std::thread> producers;
    for (size_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (size_t i = 0; i < kPerProducer; ++i) {
                AdmissionVerdict verdict =
                    queue.tryPush(p % 2, static_cast<int>(i));
                if (verdict.admitted()) {
                    admitted.fetch_add(1);
                } else {
                    ASSERT_GT(verdict.retryAfterMillis, 0u);
                    rejected.fetch_add(1);
                    std::this_thread::yield();
                }
            }
        });
    }
    std::vector<std::thread> consumers;
    for (size_t c = 0; c < kConsumers; ++c) {
        consumers.emplace_back([&] {
            int item = 0;
            size_t tenant = SIZE_MAX;
            while (queue.pop(item, tenant)) {
                popped.fetch_add(1);
                queue.complete(tenant);
            }
        });
    }
    for (std::thread& thread : producers) {
        thread.join();
    }
    queue.close();
    for (std::thread& thread : consumers) {
        thread.join();
    }

    EXPECT_EQ(admitted.load() + rejected.load(), kProducers * kPerProducer);
    EXPECT_EQ(popped.load(), admitted.load()); // closed queue drains fully
    EXPECT_LE(queue.peakDepth(), kCapacity);
    EXPECT_EQ(queue.depth(), 0u);
    EXPECT_EQ(queue.inFlight(), 0u);
}

/**
 * Weighted fairness holds under concurrent producers too.  Stride
 * ratios are defined for *backlogged* tenants (an empty tenant forfeits
 * its turns by design), so each tenant gets a maxQueued cap of half the
 * capacity and two spinning producers that keep it topped up: every pop
 * frees a slot only the same tenant can reclaim, the backlog composition
 * cannot drift, and the dequeue stream must track the 3:1 weights —
 * unlike arrival order, which the racing producers keep at 1:1.
 */
TEST(AdmissionQueueConcurrencyTest, WeightedFairUnderRacingProducers)
{
    std::vector<TenantConfig> tenants = twoTenants(3, 1);
    tenants[0].maxQueued = 32;
    tenants[1].maxQueued = 32;
    AdmissionQueue<int> queue(64, tenants);

    std::atomic<bool> stop{false};
    std::vector<std::thread> producers;
    for (size_t t = 0; t < 4; ++t) {
        producers.emplace_back([&, t] {
            while (!stop.load()) {
                if (!queue.tryPush(t % 2, 1).admitted()) {
                    std::this_thread::yield();
                }
            }
        });
    }

    // Burst-drain from a known-full queue: full means exactly 32/32 (the
    // caps), and 32 pops from that start split 24/8 by stride no matter
    // how the producers race to refill mid-burst — each side starts with
    // more than its share of the burst, so neither can go empty.
    size_t drained[2] = { 0, 0 };
    size_t total = 0;
    for (int round = 0; round < 10; ++round) {
        while (queue.depth() < 64) {
            std::this_thread::yield();
        }
        for (int i = 0; i < 32; ++i) {
            int item = 0;
            size_t tenant = SIZE_MAX;
            ASSERT_TRUE(queue.pop(item, tenant));
            queue.complete(tenant);
            ++drained[tenant];
            ++total;
        }
    }
    stop.store(true);
    for (std::thread& thread : producers) {
        thread.join();
    }
    queue.close();

    const double gold_share =
        static_cast<double>(drained[0]) / static_cast<double>(total);
    // Weight 3 of 4 => 0.75 exactly per burst, modulo stride remainders
    // carried across bursts.
    EXPECT_NEAR(gold_share, 0.75, 0.03);
}

} // namespace
} // namespace mg::serve
