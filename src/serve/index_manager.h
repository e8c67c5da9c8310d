/**
 * @file
 * Epoch-based (RCU-style) hot swap of the serving pangenome — the part
 * of mgd that lets an operator publish a rebuilt index without dropping
 * the socket or a single in-flight request.
 *
 * Lifetime model: every loaded index set lives inside one refcounted
 * Generation (the IndexedPangenome, whose mapping keepalive pins the
 * mmap'd arenas, plus the MapSession that serves it).  The daemon pins
 * the current generation at admission with pin(); the returned Handle
 * is a plain shared_ptr, so a request that is still mapping when a swap
 * publishes keeps its whole index set alive until its response is
 * written.  When the last pinned request of a retired generation
 * completes, the shared_ptr chain unwinds: MapSession, arenas, and —
 * through the MappedFile keepalive — the mmap itself are released, with
 * no quiescence barrier and no reader-side synchronization beyond one
 * mutex-protected shared_ptr copy.
 *
 * Swap protocol (swap(), serialized on its own mutex):
 *
 *   load      read + deep-validate the replacement container off the
 *             serving path (structure, section CRCs) — a corrupt or
 *             truncated image is rejected here, before any state changes
 *   validate  bind it, then check it is compatible with what is being
 *             served (non-empty graph, same minimizer (k,w) contract)
 *   publish   warm the new generation's MapSession, then swap the
 *             current handle under the pin mutex — a pin copies the
 *             handle under the same mutex, so it sees either the old or
 *             the new generation, both complete, and admissions keep
 *             being served by the old one until the flip
 *   retire    the old handle moves to the retired list as weak_ptrs;
 *             expiry of those weak_ptrs is the *proof* that the last
 *             pinned request finished and the old arenas were unmapped
 *
 * Every step carries an mg::fault site (serve.swap.load / .validate /
 * .publish / .retire) so the chaos matrix can fail, stall, or kill the
 * process at each boundary; any rejection leaves the old generation
 * serving untouched (validated rollback).
 */
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "giraffe/session.h"
#include "io/mgz.h"
#include "obs/hub.h"

namespace mg::serve {

/** Result of one swap() attempt. */
struct SwapOutcome
{
    /** The replacement was published. */
    bool accepted = false;
    /** Generation now serving (the new one on success, the unchanged
     *  old one on rejection). */
    uint64_t generation = 0;
    /** Rejection reason (validation/compatibility failure), empty on
     *  success. */
    std::string reason;
    /** Wall seconds from open to publish (success only). */
    double loadSeconds = 0.0;
};

class IndexManager
{
  public:
    /**
     * One published index set.  Immutable after construction except for
     * the MapSession's per-worker scratch (safe for distinct workers,
     * like any MapSession).
     */
    struct Generation
    {
        uint64_t number = 0;
        /** Container path the pangenome was mapped from. */
        std::string source;
        io::IndexedPangenome pangenome;
        std::unique_ptr<giraffe::MapSession> session;
    };

    /** A pinned generation; holding one keeps its arenas mapped. */
    using Handle = std::shared_ptr<const Generation>;

    /** First generation owning a pangenome loaded from `source`. */
    IndexManager(io::IndexedPangenome&& pangenome,
                 giraffe::SessionParams session, std::string source);

    IndexManager(const IndexManager&) = delete;
    IndexManager& operator=(const IndexManager&) = delete;

    /** Pin the current generation: always a complete,
     *  fully-constructed one. */
    Handle pin() const;

    /** Number of the currently published generation (1-based). */
    uint64_t generation() const;

    /**
     * Load, validate, and publish the container at `path` as the next
     * generation; on any failure the old generation keeps serving and
     * the outcome carries the rejection reason.  Serialized: concurrent
     * calls run one at a time.  `hub` (nullable) wires the new
     * MapSession's worker metrics during warmup.
     */
    SwapOutcome swap(const std::string& path, obs::Hub* hub = nullptr);

    /** Generations ever retired by a successful swap. */
    uint64_t retiredTotal() const;

    /**
     * Retired generations still pinned by at least one in-flight
     * request.  0 means every superseded index set has been fully
     * released — for mapped generations, that the munmap has happened
     * (the MappedFile keepalive dies with the last handle).
     */
    size_t retiredAlive() const;

    /** Retired *mappings* still alive (subset of retiredAlive). */
    size_t retiredMappingsAlive() const;

  private:
    struct Retired
    {
        uint64_t number = 0;
        std::weak_ptr<const Generation> generation;
        std::weak_ptr<mem::MappedFile> mapping;
    };

    /** The one way a Generation becomes servable, for the first one and
     *  for every swap: build its MapSession over its pangenome. */
    std::shared_ptr<Generation> bind(Generation&& gen) const;
    /** Flip the current handle to `next`, retiring the old one. */
    void publish(Handle next);

    giraffe::SessionParams sessionParams_;
    /** Serializes swap() end to end. */
    mutable std::mutex swapMutex_;
    /** Guards current_ and retired_ (held only for pointer copies). */
    mutable std::mutex pinMutex_;
    Handle current_;
    std::vector<Retired> retired_;
    uint64_t retiredCount_ = 0;
};

} // namespace mg::serve
