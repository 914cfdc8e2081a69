/**
 * @file
 * Exact sparse optimizers for embedding tables (Sec. 4.1.2).
 *
 * Large-batch synchronous training updates many embedding rows per step,
 * with duplicates inside a batch. The "exact" strategy sorts the sparse
 * update by row id, merges gradients of duplicate rows, and applies a
 * single optimizer step per unique row — making the update independent of
 * input order and free of read-modify-write races, which in turn gives
 * bitwise run-to-run reproducibility even for nonlinear optimizers
 * (AdaGrad, Adam).
 *
 * A "naive" per-occurrence application path is kept as an ablation: for
 * nonlinear optimizers it is order-dependent, demonstrating why exactness
 * matters.
 */
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ops/embedding_table.h"

namespace neo::ops {

/** Supported sparse optimizer algorithms. */
enum class SparseOptimizerKind {
    kSgd,
    kAdaGrad,
    /** AdaGrad with one shared moment per row (Sec. 4.1.4), saving ~50%. */
    kRowWiseAdaGrad,
    kAdam,
};

/** Name string for logging / bench output. */
const char* SparseOptimizerKindName(SparseOptimizerKind kind);

/** Hyper-parameters shared by all sparse optimizers. */
struct SparseOptimizerConfig {
    SparseOptimizerKind kind = SparseOptimizerKind::kRowWiseAdaGrad;
    float learning_rate = 0.01f;
    float eps = 1e-8f;
    float beta1 = 0.9f;   // Adam only
    float beta2 = 0.999f; // Adam only
};

/**
 * One sparse-update row: a row id plus a pointer to its D-wide gradient.
 * Pointers refer into caller-owned gradient storage.
 */
struct SparseGradRef {
    int64_t row;
    const float* grad;
};

/**
 * The exact update's canonical order, shared by every exact-update path
 * (SparseOptimizer::ApplyExact, cache::TieredEmbeddingBag). Build
 * validates a batch of occurrences, sorts them stably by row (LSD radix)
 * and cuts the sorted run into unique-row groups, and the groups into
 * chunks for parallel application. MergeGroup sums one group's
 * gradients in lexicographic order of their values, which no permutation
 * of the batch can change, so the merged gradient of every row is
 * invariant to occurrence order.
 */
class ExactUpdatePlan
{
  public:
    /** Duplicate occurrences of one row that share a gradient pointer. */
    struct GradRun {
        const float* grad;
        size_t count;
    };

    /**
     * Plan `grads` for a table of `rows` rows. Throws std::runtime_error
     * if any row lies outside [0, rows); writes nothing but the plan.
     * Chunks hold at most 64 groups and close early at 256 occurrences,
     * a cut that depends only on the batch, never on the thread count.
     */
    void Build(std::span<const SparseGradRef> grads, int64_t rows);

    size_t NumGroups() const { return group_starts_.size() - 1; }
    size_t NumChunks() const { return chunk_starts_.size() - 1; }
    /** Groups [ChunkBegin(c), ChunkBegin(c + 1)) form chunk c. */
    size_t ChunkBegin(size_t chunk) const { return chunk_starts_[chunk]; }
    /** Table row of group `group`. */
    int64_t GroupRow(size_t group) const
    {
        return sorted_[group_starts_[group]].row;
    }

    /**
     * merged[0..dim) = the canonical sum of group `group`'s gradients,
     * through the active kernel table. `runs` is caller-owned scratch.
     */
    void MergeGroup(size_t group, size_t dim, float* merged,
                    std::vector<GradRun>& runs) const;

  private:
    std::vector<SparseGradRef> sorted_;
    std::vector<SparseGradRef> radix_scratch_;
    /** Start of every group in sorted_, then sorted_.size(). */
    std::vector<size_t> group_starts_{0};
    /** First group of every chunk, then NumGroups(). */
    std::vector<size_t> chunk_starts_{0};
};

/** Optimizer state and update logic for a single embedding table. */
class SparseOptimizer
{
  public:
    /**
     * @param config Algorithm and hyper-parameters.
     * @param rows Table hash size (state is allocated accordingly).
     * @param dim Embedding dimension.
     */
    SparseOptimizer(const SparseOptimizerConfig& config, int64_t rows,
                    int64_t dim);

    /**
     * Exact fused update: sort + merge duplicate rows, then apply one
     * optimizer step per unique row. Deterministic and order-invariant.
     * A stable radix sort groups the occurrences by row; each group
     * merges its duplicates in lexicographic order of their gradient
     * values. Groups are applied in parallel over the shared pool, in
     * chunks cut by group and occurrence count — groups touch disjoint
     * table rows and disjoint optimizer state, so the result is
     * bit-identical to the serial path at any thread count. Throws, with
     * the table and the optimizer state untouched, if any row is out of
     * range.
     */
    void ApplyExact(EmbeddingTable& table,
                    std::span<const SparseGradRef> grads);

    /**
     * Naive update: apply one optimizer step per occurrence in the given
     * order. Order-dependent for nonlinear optimizers; kept for ablation.
     */
    void ApplyNaive(EmbeddingTable& table,
                    std::span<const SparseGradRef> grads);

    /** Bytes of optimizer state (the F1 capacity study tracks this). */
    size_t StateBytes() const;

    /**
     * Floats of optimizer state per row in the Export/ImportRowState
     * layout: 0 (SGD), dim (AdaGrad), 1 (row-wise AdaGrad), 2*dim + 1
     * (Adam: m, v, step). Identical across ranks for a given config, so
     * checkpoints and rollback snapshots can move row state between
     * differently-sharded optimizers of the same kind.
     */
    size_t StateFloatsPerRow() const;

    /** Copy row `row`'s state into out[0..StateFloatsPerRow()). */
    void ExportRowState(int64_t row, float* out) const;

    /** Restore row `row`'s state from ExportRowState's layout. */
    void ImportRowState(int64_t row, const float* in);

    const SparseOptimizerConfig& config() const { return config_; }

    /** Row-wise moment accessor (row-wise AdaGrad), for tests. */
    float RowMoment(int64_t row) const;

  private:
    /** Merge and apply the groups of planned chunk `chunk`. */
    void ApplyExactChunk(EmbeddingTable& table, size_t chunk);

    /**
     * Apply one merged-gradient step to a single row. `row_buf` is a
     * dim-sized scratch for the widened row (per-thread in parallel use).
     */
    void UpdateRow(EmbeddingTable& table, int64_t row,
                   const float* merged_grad, float* row_buf);

    SparseOptimizerConfig config_;
    int64_t rows_;
    int64_t dim_;

    /** AdaGrad: per-element accumulator (rows x dim). */
    std::vector<float> adagrad_state_;
    /** Row-wise AdaGrad: per-row accumulator (rows). */
    std::vector<float> rowwise_state_;
    /** Adam: first/second moments (rows x dim each) + per-row step. */
    std::vector<float> adam_m_;
    std::vector<float> adam_v_;
    std::vector<uint32_t> adam_step_;

    /** Scratch reused across calls to avoid per-step allocation churn. */
    ExactUpdatePlan plan_;
    std::vector<float> row_buf_;
};

}  // namespace neo::ops
