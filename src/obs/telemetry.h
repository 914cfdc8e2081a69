/**
 * @file
 * Fleet telemetry plane: a collective harvest that gathers every rank's
 * metrics snapshot, Fig.-12 StepBreakdown, and recent trace spans to
 * rank 0 over the existing collectives, with per-rank clock alignment so
 * the root can emit ONE merged Chrome/Perfetto timeline for the whole
 * fleet and judge cross-rank skew from the breakdowns.
 *
 * Protocol (every rank, in lockstep):
 *   1. Barrier() — flushes in-flight steps so snapshots are comparable.
 *   2. Sample NowNs() immediately after the barrier releases: all ranks
 *      are within one barrier-exit of each other, so the root can treat
 *      `root_clock − rank_clock` as rank r's clock offset. (In the
 *      threaded backend all ranks share one clock and offsets are ~0;
 *      the protocol is what a multi-process backend needs.)
 *   3. Serialize {clock, metrics Export(), FromSpans breakdown, last-N
 *      own-rank spans} with common/serialize.h and AllToAllBytes it with
 *      only send[root] non-empty.
 *   4. Root deserializes all ranks, stores offsets, and can render
 *      MergedChromeJson() (offset-shifted timestamps — a uniform shift
 *      per rank preserves span nesting) or AnalyzeStragglers().
 *
 * Wire format is versioned (kTelemetryMagic/kTelemetryVersion); a
 * mismatched peer is a hard error, not a silent misparse.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "comm/process_group.h"
#include "obs/metrics.h"
#include "obs/step_breakdown.h"
#include "obs/straggler.h"

namespace neo::obs {

inline constexpr uint32_t kTelemetryMagic = 0x4e544c4dU;  // "NTLM"
inline constexpr uint32_t kTelemetryVersion = 2;

/** A Span whose name/cat survived serialization (owned strings). */
struct HarvestedSpan {
    std::string name;
    std::string cat;
    int64_t start_ns = 0;
    int64_t dur_ns = 0;
    int rank = -1;
    uint32_t tid = 0;
    uint16_t depth = 0;
};

/** Everything one rank contributes to a harvest. */
struct RankTelemetry {
    int rank = -1;
    /** NowNs() sampled right after the harvest barrier released. */
    int64_t clock_ns = 0;
    /** Root-computed `root_clock − rank_clock`; add to this rank's span
     *  timestamps to place them on the root's clock. 0 for the root. */
    int64_t clock_offset_ns = 0;
    RegistrySnapshot metrics;
    StepBreakdown breakdown;
    /** Most recent spans recorded by this rank's threads, plus (for the
     *  root's own entry) untagged shared-pool spans. */
    std::vector<HarvestedSpan> spans;
};

/** Harvest knobs. */
struct HarvestOptions {
    /** Most recent spans each rank contributes (by start time). */
    size_t max_spans = 4096;
    /** Step-span name fed to StepBreakdown::FromSpans. */
    const char* step_name = "train_step";
    /** Rank that receives the fleet view. */
    int root = 0;
};

/** The root's merged fleet view (empty on non-root ranks). */
struct FleetTelemetry {
    std::vector<RankTelemetry> ranks;  ///< indexed by rank id

    bool empty() const { return ranks.empty(); }

    /** Per-rank breakdowns in rank order (for skew analysis). */
    std::vector<StepBreakdown> Breakdowns() const;

    /**
     * One Chrome trace-event JSON covering every rank, timestamps
     * shifted onto the root's clock, pid = rank + 1 (pid 0 = the root's
     * shared pool), same schema Tracer::ToChromeJson emits — so
     * scripts/trace_to_perfetto.py --check validates it unchanged.
     */
    std::string MergedChromeJson() const;

    /** Write MergedChromeJson to `path`; false on I/O failure. */
    bool WriteMergedChromeJson(const std::string& path) const;

    /** Run the breakdown-skew detector over Breakdowns() and publish
     *  the straggler gauges (see obs::StragglerDetector). */
    StragglerVerdict AnalyzeStragglers() const;
};

/**
 * Collective telemetry harvest: every rank of `pg` must call it (BSP).
 * Returns the populated fleet view on `options.root`, an empty one on
 * every other rank. Throws comm::RankFailure if the group is poisoned
 * mid-harvest, like any other collective.
 */
FleetTelemetry HarvestTelemetry(comm::ProcessGroup& pg,
                                const HarvestOptions& options =
                                    HarvestOptions());

/** Serialize one rank's contribution (exposed for tests). */
std::vector<uint8_t> SerializeRankTelemetry(const RankTelemetry& t);

/** Parse a serialized contribution; fatal on magic/version mismatch. */
RankTelemetry DeserializeRankTelemetry(std::vector<uint8_t> bytes);

}  // namespace neo::obs
