/**
 * @file
 * End-to-end per-iteration latency model implementing the paper's Eq. 1
 * dependency graph (Fig. 9):
 *
 *   T_fwd = max(BotMLP_fwd, InputA2A + EmbLookup + PooledA2A_fwd)
 *           + Interaction_fwd + TopMLP_fwd
 *   T_bwd = max(TopMLP_bwd + Interaction_bwd
 *                 + max(GradA2A_bwd + EmbUpdate, BotMLP_bwd),
 *               MLP AllReduce)
 *   T     = T_fwd + T_bwd (+ per-iteration overhead; HtoD is hidden by
 *           the input pipeline, Sec. 4.3)
 *
 * The model combines the GEMM/embedding rooflines, the collective
 * alpha-beta models, the load imbalance produced by the actual sharding
 * planner, and the precision options of the Fig. 13 optimization study.
 */
#pragma once

#include "sim/comm_model.h"
#include "sim/embedding_model.h"
#include "sim/gemm_model.h"
#include "sim/workloads.h"

namespace neo::sim {

/** Knobs for one training configuration. */
struct TrainingSetup {
    ClusterSpec cluster = ClusterSpec::Prototype();
    int num_gpus = 128;
    int64_t per_gpu_batch = 512;
    /** Embedding table storage precision (Fig. 13: FP32 -> FP16). */
    Precision emb_precision = Precision::kFp32;
    /** Pooled-embedding forward AllToAll wire precision. */
    Precision fwd_comm = Precision::kFp32;
    /** Gradient backward AllToAll wire precision. */
    Precision bwd_comm = Precision::kFp32;
    /**
     * MLP compute precision: TF32 by default (A100 tensor cores; V100
     * has no TF32 and the model falls back to its FP32 CUDA-core rate).
     */
    Precision mlp_precision = Precision::kTf32;
    /** Embedding load imbalance (max/mean across GPUs), from the planner. */
    double imbalance = 1.0;
    /**
     * Worst per-worker sum of row-wise-sharded embedding dims (from the
     * plan): each contributes a global-batch partial-pool exchange both
     * ways per iteration — the RW cost that grows linearly with trainers
     * (Sec. 4.2.2) and dominates model F1.
     */
    double rw_dim_sum = 0.0;
    /**
     * Fraction of embedding-row reads served from HBM when the model
     * spills to DDR/SSD behind the software cache (Sec. 4.1.3); misses
     * cross PCIe. 1.0 = fully HBM-resident.
     */
    double hbm_hit_rate = 1.0;
    /**
     * Per-batch stochastic load variation: with few tables per GPU there
     * is no averaging across tables, so the per-iteration straggler
     * exceeds the planner's static balance (A1's problem in Sec. 5.3.1).
     * Effective imbalance adds granularity_sigma / sqrt(tables per GPU).
     */
    double granularity_sigma = 0.45;
    /**
     * Fixed per-iteration overhead: CPU op dispatch, input pipeline resid,
     * synchronization (calibrated against the A1/A2 measurements).
     */
    double fixed_overhead = 8e-3;

    /**
     * Overlap batch i+1's input AllToAll with batch i's dense compute
     * (the inter-batch pipelining of Sec. 4.3): the input_a2a term only
     * contributes what the MLP + interaction window cannot hide; the
     * hidden part is reported as overlap_saved.
     */
    bool overlap_input_comm = false;
    /**
     * Per-iteration differential-checkpoint bytes written by this GPU
     * (0 = checkpointing not modeled). Calibrate the write bandwidth via
     * FaultModel::CalibrateCheckpoint.
     */
    double checkpoint_bytes = 0.0;

    int64_t GlobalBatch() const { return per_gpu_batch * num_gpus; }
};

/** Per-operator serialized latencies plus derived totals (Fig. 12). */
struct IterationBreakdown {
    // Serialized (stand-alone) per-op seconds.
    double htod = 0.0;
    double input_a2a = 0.0;
    double bot_mlp_fwd = 0.0;
    double emb_lookup = 0.0;
    double pooled_a2a_fwd = 0.0;
    double interaction_fwd = 0.0;
    double top_mlp_fwd = 0.0;
    double top_mlp_bwd = 0.0;
    double interaction_bwd = 0.0;
    double grad_a2a_bwd = 0.0;
    double emb_update = 0.0;
    double bot_mlp_bwd = 0.0;
    double allreduce = 0.0;
    double overhead = 0.0;
    /** Blocking differential-checkpoint write on the step path. */
    double checkpoint = 0.0;

    // Derived.
    double t_fwd = 0.0;
    double t_bwd = 0.0;
    double total = 0.0;
    /** Communication time left on the critical path after overlap. */
    double exposed_comm = 0.0;
    /** Time taken off the critical path by overlap: the hidden part of
     *  the input AllToAll. */
    double overlap_saved = 0.0;
    double qps = 0.0;

    /** Sum of all serialized op latencies (the "serialized" bars). */
    double SerializedSum() const;
};

/** Evaluates the Eq. 1 model for a workload on a training setup. */
class IterationModel
{
  public:
    IterationModel(const WorkloadModel& workload,
                   const TrainingSetup& setup);

    /** Full breakdown for the configured setup. */
    IterationBreakdown Estimate() const;

    /**
     * Install a reliability/cost model on the underlying comm model —
     * in particular checkpoint_write_Bps, which prices the blocking
     * checkpoint term.
     */
    void SetFaultModel(const FaultModel& faults)
    {
        comm_.SetFaultModel(faults);
    }

    const WorkloadModel& workload() const { return workload_; }
    const TrainingSetup& setup() const { return setup_; }

  private:
    /** Compose Eq. 1 from per-op latencies, optionally zeroing comm. */
    IterationBreakdown Compose(bool comm_free) const;

    WorkloadModel workload_;
    TrainingSetup setup_;
    GemmModel gemm_;
    MlpModel mlp_;
    EmbeddingModel emb_;
    CommModel comm_;
};

}  // namespace neo::sim
