/**
 * @file
 * Checkpointing for very large embedding models (Sec. 4.4; Check-N-Run
 * [9]). Writing terabytes every few minutes is infeasible, but between
 * checkpoints only the rows a batch touched actually changed — so after
 * one full baseline, each incremental checkpoint stores just the modified
 * rows (differential checkpointing). For Zipf-skewed access, deltas are
 * orders of magnitude smaller than the table.
 */
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "core/dlrm_config.h"
#include "ops/embedding_table.h"

namespace neo::core {

class DistributedDlrm;

/** Differential checkpointer for one embedding table. */
class DeltaCheckpointer
{
  public:
    /**
     * @param table The live table (not owned; must outlive this).
     */
    explicit DeltaCheckpointer(ops::EmbeddingTable* table);

    /**
     * Write a FULL baseline checkpoint and reset the delta reference.
     * @return Serialized bytes.
     */
    std::vector<uint8_t> WriteBaseline();

    /**
     * Write a delta: only rows that changed since the last Write*() call.
     * @return Serialized bytes (row ids + row payloads).
     */
    std::vector<uint8_t> WriteDelta();

    /** Rows the last WriteDelta() found modified. */
    uint64_t last_delta_rows() const { return last_delta_rows_; }

    /**
     * Restore a table from a baseline plus an ordered list of deltas.
     * Truncated, corrupt, mis-shaped, or out-of-order inputs are rejected
     * with std::runtime_error — restore never trusts checkpoint bytes.
     *
     * @param baseline Bytes from WriteBaseline().
     * @param deltas Bytes from successive WriteDelta() calls, in order.
     */
    static ops::EmbeddingTable Restore(
        const std::vector<uint8_t>& baseline,
        const std::vector<std::vector<uint8_t>>& deltas);

  private:
    ops::EmbeddingTable* table_;
    /** Copy of the table as of the last checkpoint (the delta reference). */
    ops::EmbeddingTable reference_;
    uint64_t last_delta_rows_ = 0;
    /** Sequence number stamped into the next delta (reset by baseline). */
    uint64_t delta_seq_ = 0;
};

/**
 * Checkpoint destination shared by all ranks of a job: one baseline plus
 * an ordered delta chain per rank. Stands in for the distributed blob
 * store a production Check-N-Run deployment writes to; thread-safe
 * because rank threads write their streams concurrently.
 *
 * Two backends: default-constructed stores hold everything in memory;
 * a store constructed with a directory spills every stream to disk
 * (`<dir>/rank_<r>/baseline.bin`, `delta_00000.bin`, ...) and reads it
 * back on demand, so published epochs survive the process — a fresh
 * store opened on the same directory sees the previous job's streams.
 * Files are written to a temp name and renamed, so readers (e.g. a
 * serving process loading a snapshot) never observe a half-written
 * stream.
 */
class CheckpointStore
{
  public:
    /** In-memory store. */
    CheckpointStore() = default;

    /** Disk-backed store rooted at `directory` (created if missing). */
    explicit CheckpointStore(std::string directory);

    /** Spill directory, empty for in-memory stores. */
    const std::string& directory() const { return dir_; }

    /** Replace `rank`'s baseline and discard its delta chain. */
    void PutBaseline(int rank, std::vector<uint8_t> bytes);

    /** Append one delta to `rank`'s chain. */
    void AppendDelta(int rank, std::vector<uint8_t> bytes);

    /** Latest baseline bytes for `rank` (throws if none). */
    std::vector<uint8_t> Baseline(int rank) const;

    /** Delta chain for `rank`, in append order. */
    std::vector<std::vector<uint8_t>> Deltas(int rank) const;

    /** Ranks with a stored baseline, ascending. */
    std::vector<int> Ranks() const;

    /** Total stored bytes across all ranks (for cost calibration). */
    uint64_t TotalBytes() const;

    /**
     * Monotonic write counter: bumped by every PutBaseline/AppendDelta.
     * A serving-side publisher lane polls this to notice "the trainer
     * published something new" without assembling the store — when the
     * generation moved and the streams are at a consistent epoch, it
     * cuts and warm-publishes a fresh snapshot (see
     * FleetRouter::PublishFromStore).
     */
    uint64_t Generation() const;

  private:
    struct Entry {
        std::vector<uint8_t> baseline;
        std::vector<std::vector<uint8_t>> deltas;
    };

    std::string RankDir(int rank) const;

    mutable std::mutex mutex_;
    std::map<int, Entry> entries_;
    std::string dir_;
    uint64_t generation_ = 0;
};

/**
 * The logical-model view of a checkpoint store: per-rank baseline +
 * delta streams assembled into full tables (validated magics, shapes,
 * row ranges, epoch continuity — restore never trusts checkpoint
 * bytes). Non-collective, so a single serving rank can assemble a
 * published checkpoint without a process group; both elastic restore
 * (DistributedCheckpointer::RestoreInto) and snapshot building
 * (serve::SnapshotFromStore) slice from this.
 */
struct AssembledCheckpoint {
    /** One fully-assembled logical table (baseline + deltas applied). */
    struct LogicalTable {
        ops::EmbeddingTable table;
        /** Sparse-optimizer row state, rows x sfpr. */
        std::vector<float> opt_state;
        size_t sfpr;
        LogicalTable(ops::EmbeddingTable t, size_t s)
            : table(std::move(t)), sfpr(s)
        {
            opt_state.assign(static_cast<size_t>(table.rows()) * s, 0.0f);
        }
    };

    /** Table index -> assembled table. */
    std::map<int, LogicalTable> tables;
    /** Replicated dense state: bottom MLP + top MLP + dense optimizer. */
    std::vector<uint8_t> dense_blob;
    /** Consistency epoch every stream ended at. */
    uint64_t epoch = 0;

    /**
     * Assemble the streams in `store` for a model shaped like `config`.
     * Throws on corrupt/truncated/out-of-order streams, or if streams
     * end at different epochs. Column-wise writer shards are rejected
     * (row assembly only, as in elastic restore).
     */
    static AssembledCheckpoint FromStore(const CheckpointStore& store,
                                         const DlrmConfig& config);
};

/**
 * Multi-table, per-rank differential checkpointer for a DistributedDlrm
 * partition (the generalization of DeltaCheckpointer the elastic-recovery
 * path needs). Each rank writes its own baseline/delta streams covering
 * its embedding shards *and* their sparse-optimizer row state; rank 0
 * additionally covers the replicated DP tables and the dense MLP + dense
 * optimizer state (identical on all ranks). Every Write*() agrees a
 * cross-rank consistency epoch via the collective layer, so a restore can
 * verify all streams describe the same step.
 */
class DistributedCheckpointer
{
  public:
    /**
     * @param trainer The partition to checkpoint (not owned).
     * @param store Destination for the serialized streams (not owned).
     */
    DistributedCheckpointer(DistributedDlrm& trainer, CheckpointStore& store);

    /** Write a full baseline for this rank (collective; all ranks call). */
    void WriteBaseline();

    /** Write a delta since the last Write*() (collective; all ranks). */
    void WriteDelta();

    /** Consistency epoch of the last completed Write*(). */
    uint64_t epoch() const { return epoch_; }

    /** Changed rows across all shards in the last WriteDelta(). */
    uint64_t last_delta_rows() const { return last_delta_rows_; }

    /**
     * Restore `target` from the streams in `store`, regardless of how the
     * writing job was sharded: the per-rank streams are assembled into
     * full logical tables (baseline + ordered deltas, with epoch
     * continuity checks), then sliced onto `target`'s shards — which is
     * what lets a 3-worker survivor job load a 4-worker job's checkpoint.
     * Collective on `target`'s process group (all its ranks must call);
     * finishes with an epoch-agreement AllReduce as a consistency check.
     */
    static void RestoreInto(const CheckpointStore& store,
                            DistributedDlrm& target);

  private:
    /** Per-shard reference copy for delta detection. */
    struct Reference {
        ops::EmbeddingTable table;
        /** Optimizer row state as of the last checkpoint (rows x
         *  StateFloatsPerRow). */
        std::vector<float> opt_state;
    };

    /** Agree the next epoch across ranks; throws on divergence. */
    void AgreeEpoch();

    DistributedDlrm& trainer_;
    CheckpointStore& store_;
    uint64_t epoch_ = 0;
    uint64_t last_delta_rows_ = 0;
    /** References for model-parallel shards, trainer shard order. */
    std::vector<Reference> shard_refs_;
    /** References for replicated DP tables (rank 0 only writes them). */
    std::vector<Reference> dp_refs_;
};

}  // namespace neo::core
