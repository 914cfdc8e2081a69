/**
 * @file
 * Synchronous hybrid-parallel DLRM trainer (Sec. 3 / Fig. 4).
 *
 * Each worker (one per simulated GPU) holds:
 *  - a full replica of the bottom/top MLPs (data parallelism; gradients
 *    are AllReduced every step),
 *  - the embedding-table shards a ShardingPlan assigned to it (model
 *    parallelism; inputs and pooled outputs move via AllToAll, partial
 *    pools of row-wise shards are reduced, data-parallel tables are
 *    replicated and synchronized with an exact global sparse update).
 *
 * The training step follows the paper's dependency graph (Fig. 9):
 * input AllToAll -> embedding lookup -> pooled AllToAll (optionally FP16
 * quantized) -> interaction -> top MLP -> loss -> backward -> gradient
 * AllToAll (optionally BF16) and MLP AllReduce -> fused exact embedding
 * update and dense update. All updates run after the last collective.
 */
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "comm/process_group.h"
#include "comm/quantized.h"
#include "core/dlrm_config.h"
#include "core/shard_router.h"
#include "data/dataset.h"
#include "obs/exposition.h"
#include "ops/mlp.h"
#include "sharding/planner.h"
#include "tensor/interaction.h"
#include "tensor/loss.h"

namespace neo::core {

class DistributedCheckpointer;

/** Trainer knobs beyond the model config. */
struct DistributedOptions {
    /** Wire precision of the forward pooled-embedding AllToAll. */
    Precision forward_alltoall = Precision::kFp32;
    /** Wire precision of the backward gradient AllToAll. */
    Precision backward_alltoall = Precision::kFp32;
    /** Use the exact (sorted/merged) sparse update; false = naive path. */
    bool exact_sparse_update = true;

    // ---- failure handling (TrainStepWithRecovery) ----

    /** Step retries after a transient RankFailure (0 = fail fast). */
    int max_step_retries = 0;
    /** Base of the exponential retry backoff (doubles per attempt). */
    std::chrono::milliseconds retry_backoff{10};
    /** Ceiling on the exponential backoff (keeps the doubling from
     *  overflowing for large retry counts). */
    std::chrono::milliseconds max_retry_backoff{2000};
    /** Deadline for the all-rank recovery rendezvous after a failure. */
    std::chrono::milliseconds recover_timeout{2000};

    // ---- telemetry ----

    /**
     * Period of the rank-0 live metrics exposition (Prometheus + JSON
     * snapshots under NEO_TELEMETRY_DIR). The writer only starts when a
     * telemetry directory is actually configured, so the default is
     * inert everywhere the env is unset; 0 disables outright.
     */
    std::chrono::milliseconds telemetry_period{1000};
};

/**
 * Backoff before retry `attempt` (1-based): retry_backoff doubled per
 * prior attempt, clamped to max_retry_backoff. Never overflows, for any
 * attempt count.
 */
std::chrono::milliseconds RetryBackoffDelay(const DistributedOptions& options,
                                            int attempt);

/** One failed training-step attempt, as observed by this rank. */
struct StepFailure {
    /** Rank the communicator blamed for the failure. */
    int failed_rank = -1;
    /** Originating cause, from RankFailure::cause(). */
    std::string cause;
    /** 1-based attempt number that failed. */
    int attempt = 0;
    /** Whether the fault was reported transient (retry-worthy). */
    bool transient = false;
};

/**
 * Structured outcome of a fault-tolerant training step: instead of
 * hanging (the old behaviour) or unwinding the whole worker, each rank
 * reports what happened — success (possibly after retries) or a bounded
 * failure naming the guilty rank.
 */
struct StepResult {
    bool ok = false;
    /** Global mean loss; valid when ok. */
    double loss = 0.0;
    /** Attempts made (1 = first try succeeded). */
    int attempts = 0;
    /** One record per failed attempt, in order. */
    std::vector<StepFailure> failures;
};

/** One worker's view of the distributed model. */
class DistributedDlrm
{
  public:
    /**
     * Construct this worker's partition. Must be called by every rank of
     * `pg` with identical config/plan/options.
     */
    DistributedDlrm(const DlrmConfig& config,
                    const sharding::ShardingPlan& plan,
                    comm::ProcessGroup& pg,
                    const DistributedOptions& options = {});

    /** Result of the input-distribution phase for one local batch. */
    struct PreparedInput {
        /** Local dense features and labels. */
        Matrix dense;
        std::vector<float> labels;
        /** Local sparse slice (kept for DP tables). */
        data::KeyedJagged local_sparse;
        /** Global-batch input per local shard (canonical shard order). */
        std::vector<data::KeyedJagged> shard_inputs;
        size_t local_batch = 0;
    };

    /**
     * Input-distribution phase: redistribute this worker's local slice of
     * the global batch to shard owners (collective; all ranks must call).
     * Split out from TrainStep so a driver can overlap it with the
     * previous step's compute, as in the paper's pipelining (Sec. 4.3).
     */
    PreparedInput PrepareInput(const data::Batch& local_batch);

    /**
     * Full training step on a prepared input. Returns global mean loss.
     *
     * Every collective of the step (loss AllReduce, gradient AllToAll,
     * DP-table AllToAlls, MLP-grad AllReduce) completes before the first
     * write to a table, an optimizer moment or an MLP. The last
     * collective is the step's commit point: a comm::RankFailure thrown
     * out of this call leaves the model in its pre-step state on every
     * rank.
     */
    double TrainStepPrepared(PreparedInput& prepared);

    /** Convenience: PrepareInput + TrainStepPrepared. */
    double TrainStep(const data::Batch& local_batch);

    /**
     * Fault-tolerant TrainStep: catches comm::RankFailure and returns a
     * structured per-rank report instead of unwinding. When the failure
     * is transient and `max_step_retries` allows, every rank backs off
     * exponentially, rendezvouses via ProcessGroup::Recover, and retries
     * the step from PrepareInput. A failed attempt never got past the
     * step's commit point (see TrainStepPrepared), so every retry starts
     * from the exact pre-step state: exactly-once semantics, losses
     * bit-identical to a fault-free run. A non-retryable failure leaves
     * that same clean pre-step state for elastic recovery (see
     * core/elastic.h).
     */
    StepResult TrainStepWithRecovery(const data::Batch& local_batch);

    /**
     * TrainStepWithRecovery for an already-prepared input: retries rerun
     * TrainStepPrepared on the same PreparedInput (which step execution
     * never mutates), skipping the input AllToAll — the retry shape the
     * pipelined driver needs, where the failed step's input was routed
     * one Push earlier. Same retry/rendezvous semantics as
     * TrainStepWithRecovery.
     */
    StepResult TrainStepPreparedWithRecovery(PreparedInput& prepared);

    /** Forward-only logits for this worker's local batch (collective). */
    void Predict(const data::Batch& local_batch, Matrix& logits);

    /** Accumulate local-batch NE (collective; merge across workers). */
    void Evaluate(const data::Batch& local_batch, NormalizedEntropy& ne);

    // ---- introspection for tests / verification ----

    /** One locally-owned shard (model-parallel). */
    struct LocalShard {
        sharding::Shard meta;
        ops::EmbeddingTable table;
        ops::SparseOptimizer optimizer;
        LocalShard(const sharding::Shard& m, ops::EmbeddingTable t,
                   ops::SparseOptimizer o)
            : meta(m), table(std::move(t)), optimizer(std::move(o)) {}
    };

    /** Replicated data-parallel table. */
    struct DpTable {
        int table = -1;
        ops::EmbeddingTable replica;
        ops::SparseOptimizer optimizer;
        DpTable(int idx, ops::EmbeddingTable t, ops::SparseOptimizer o)
            : table(idx), replica(std::move(t)), optimizer(std::move(o)) {}
    };

    /**
     * Serialize this worker's partition (its shards, DP replicas and MLP
     * replica). Each rank writes its own stream; together the streams
     * form a sharded checkpoint (Sec. 4.4).
     */
    void SaveLocal(BinaryWriter& writer) const;

    /** Restore a partition written by SaveLocal on the same rank of an
     *  identically-configured trainer. */
    void LoadLocal(BinaryReader& reader);

    size_t NumLocalShards() const { return shards_.size(); }
    const LocalShard& local_shard(size_t i) const { return shards_[i]; }
    size_t NumDpTables() const { return dp_tables_.size(); }
    const DpTable& dp_table(size_t i) const { return dp_tables_[i]; }
    ops::Mlp& bottom_mlp() { return *bottom_; }
    ops::Mlp& top_mlp() { return *top_; }
    comm::ProcessGroup& process_group() { return pg_; }
    const DlrmConfig& config() const { return config_; }
    const DistributedOptions& options() const { return options_; }

  private:
    friend class DistributedCheckpointer;

    // -- construction helpers --
    void BuildShards();

    /** Shared retry loop of the *WithRecovery entry points: runs
     *  `attempt` with backoff and the all-rank recovery rendezvous. No
     *  rollback is needed: a failed attempt never passed its commit
     *  point. */
    StepResult RunStepWithRecovery(const std::function<double()>& attempt);

    // -- step phases --
    /** Pooled lookup of every table for this rank's local batch. */
    void ForwardEmbeddings(const PreparedInput& prepared,
                           std::vector<Matrix>& pooled);
    /** Receive buffers of the step's sparse-gradient exchanges. They
     *  stay alive until the apply phases, which point into them. */
    struct GradExchange {
        /** Gradient AllToAll: per-source blocks for the local shards. */
        std::vector<std::vector<float>> shard_grads;
        /** DP-table AllToAlls: per-source lengths, indices, gradients. */
        std::vector<std::vector<uint32_t>> dp_lengths;
        std::vector<std::vector<int64_t>> dp_indices;
        std::vector<std::vector<float>> dp_grads;
    };
    void ExchangeShardGrads(const PreparedInput& prepared,
                            const std::vector<Matrix>& grad_pooled,
                            GradExchange& exchange);
    void ExchangeDpGrads(const PreparedInput& prepared,
                         const std::vector<Matrix>& grad_pooled,
                         GradExchange& exchange);
    void AllReduceMlpGrads();
    /** Sparse updates; run only after the commit point. */
    void ApplyShardGrads(const PreparedInput& prepared,
                         const GradExchange& exchange);
    void ApplyDpGrads(const PreparedInput& prepared,
                      const GradExchange& exchange);

    DlrmConfig config_;
    sharding::ShardingPlan plan_;
    comm::ProcessGroup& pg_;
    DistributedOptions options_;
    int rank_;
    int world_;
    /** Completed TrainStep count on this rank (flight-recorder step id). */
    uint64_t steps_done_ = 0;

    std::unique_ptr<ops::Mlp> bottom_;
    std::unique_ptr<ops::Mlp> top_;
    std::unique_ptr<DotInteraction> interaction_;
    ops::DenseOptimizer dense_opt_;
    std::vector<size_t> bottom_slots_;
    std::vector<size_t> top_slots_;

    /** Non-DP shards owned by this worker, canonical order. */
    std::vector<LocalShard> shards_;
    /** Replicated DP tables. */
    std::vector<DpTable> dp_tables_;
    /** Table index -> DP slot (or -1). */
    std::vector<int> dp_slot_of_table_;

    /** Forward routing tables derived from the plan (see ShardRouter);
     *  shared implementation with the serving engine. */
    std::optional<ShardRouter> router_;

    /** Scratch: flat MLP gradient buffer for the AllReduce. */
    std::vector<float> grad_buffer_;

    /** Rank-0 periodic metrics exposition (inert without a telemetry
     *  directory); stops itself on destruction. */
    obs::SnapshotWriter exposition_;
};

}  // namespace neo::core
