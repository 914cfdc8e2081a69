#include "sim/iteration_model.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace neo::sim {

double
IterationBreakdown::SerializedSum() const
{
    return htod + input_a2a + bot_mlp_fwd + emb_lookup + pooled_a2a_fwd +
           interaction_fwd + top_mlp_fwd + top_mlp_bwd + interaction_bwd +
           grad_a2a_bwd + emb_update + bot_mlp_bwd + allreduce + overhead +
           checkpoint;
}

IterationModel::IterationModel(const WorkloadModel& workload,
                               const TrainingSetup& setup)
    : workload_(workload), setup_(setup),
      gemm_(setup.cluster.node.gpu), mlp_(setup.cluster.node.gpu),
      emb_(setup.cluster.node.gpu), comm_(setup.cluster)
{
    NEO_REQUIRE(setup_.num_gpus >= 1, "need at least one GPU");
    NEO_REQUIRE(setup_.per_gpu_batch >= 1, "need a positive batch");
}

IterationBreakdown
IterationModel::Compose(bool comm_free) const
{
    const double w = setup_.num_gpus;
    const double b_local = static_cast<double>(setup_.per_gpu_batch);
    const double b_global = b_local * w;
    const double tables = workload_.num_tables;
    const double pooling = workload_.avg_pooling;
    const double dim = workload_.dim_avg;

    IterationBreakdown bd;

    // Effective straggler factor: static planner imbalance plus the
    // per-batch variation that cannot average out when each GPU holds
    // only a handful of tables.
    const double tables_per_gpu = std::max(1.0, tables / w);
    const double imbalance =
        setup_.imbalance +
        setup_.granularity_sigma / std::sqrt(tables_per_gpu);

    // ---- embedding ops: each GPU pools the GLOBAL batch for its local
    // tables (weak scaling keeps this roughly constant), scaled by the
    // straggler factor because the whole step waits for the slowest GPU.
    const double rows_per_gpu =
        b_global * tables * pooling / w * imbalance;
    bd.emb_lookup =
        emb_.LookupSeconds(rows_per_gpu, dim, setup_.emb_precision).seconds;
    bd.emb_update =
        emb_.UpdateSeconds(rows_per_gpu, dim, setup_.emb_precision).seconds;

    // Hierarchical-memory spill: rows missing the HBM cache are fetched
    // over PCIe from DDR (Sec. 4.1.3; the F1 capacity study).
    if (setup_.hbm_hit_rate < 1.0) {
        const double miss_bytes =
            rows_per_gpu * dim *
            static_cast<double>(BytesPerElement(setup_.emb_precision)) *
            (1.0 - setup_.hbm_hit_rate);
        bd.emb_lookup += miss_bytes / setup_.cluster.node.pcie_bw;
        // Updates write the row back through the same path.
        bd.emb_update += 2.0 * miss_bytes / setup_.cluster.node.pcie_bw;
    }

    // ---- MLPs: scale the layer-shape roofline so total per-sample FLOPs
    // match Table 3's published MFLOPS/sample.
    std::vector<int64_t> widths(
        static_cast<size_t>(workload_.num_mlp_layers) + 1,
        static_cast<int64_t>(workload_.avg_mlp_size));
    const MlpEstimate layers = mlp_.EstimateLayers(
        static_cast<int64_t>(b_local), widths, setup_.mlp_precision);
    double layer_flops = 0.0;
    for (size_t l = 0; l + 1 < widths.size(); l++) {
        layer_flops += 2.0 * b_local * widths[l] * widths[l + 1];
    }
    const double target_flops = workload_.mflops_per_sample * 1e6 * b_local;
    const double scale = target_flops / layer_flops;
    // Bottom/top split: the bottom MLP is the narrow dense-feature tower,
    // the top MLP consumes the much wider interaction output.
    const double bot_share = 0.3;
    bd.bot_mlp_fwd = layers.forward_seconds * scale * bot_share;
    bd.top_mlp_fwd = layers.forward_seconds * scale * (1.0 - bot_share);
    bd.bot_mlp_bwd = layers.backward_seconds * scale * bot_share;
    bd.top_mlp_bwd = layers.backward_seconds * scale * (1.0 - bot_share);

    // Interaction: memory-bound concat + pairwise dots, small next to the
    // MLPs for the production models.
    bd.interaction_fwd = 0.05 * (bd.bot_mlp_fwd + bd.top_mlp_fwd);
    bd.interaction_bwd = 0.05 * (bd.bot_mlp_bwd + bd.top_mlp_bwd);

    // ---- communication ----
    if (!comm_free && setup_.num_gpus > 1) {
        // Input redistribution: lengths (4B) + indices (8B) for the local
        // batch of every table.
        const double input_bytes =
            b_local * tables * (pooling * 8.0 + 4.0);
        bd.input_a2a =
            comm_.AllToAll(input_bytes, setup_.num_gpus).seconds *
            imbalance;

        // Pooled embeddings: each GPU receives B_local x dim per table.
        const double fwd_elem =
            static_cast<double>(BytesPerElement(setup_.fwd_comm));
        const double bwd_elem =
            static_cast<double>(BytesPerElement(setup_.bwd_comm));
        const double fwd_bytes = b_local * tables * dim * fwd_elem;
        bd.pooled_a2a_fwd =
            comm_.AllToAll(fwd_bytes, setup_.num_gpus).seconds * imbalance;

        const double bwd_bytes = b_local * tables * dim * bwd_elem;
        bd.grad_a2a_bwd =
            comm_.AllToAll(bwd_bytes, setup_.num_gpus).seconds * imbalance;

        // Row-wise shards: the straggler worker exchanges GLOBAL-batch
        // partial pools (forward) and receives global-batch gradients
        // (backward) for every RW dim it owns — the linear-in-trainers
        // term of Sec. 4.2.2. Structured ReduceScatter traffic achieves
        // the full per-NIC rate (no AllToAll incast penalty).
        if (setup_.rw_dim_sum > 0.0) {
            const double nic = setup_.cluster.node.scaleout_achievable;
            const double rw_fwd =
                b_global * setup_.rw_dim_sum * fwd_elem / nic;
            const double rw_bwd =
                b_global * setup_.rw_dim_sum * bwd_elem / nic;
            bd.pooled_a2a_fwd += rw_fwd;
            bd.grad_a2a_bwd += rw_bwd;
        }

        // MLP gradient AllReduce (FP32).
        bd.allreduce =
            comm_.AllReduce(workload_.MlpParams() * 4.0, setup_.num_gpus)
                .seconds;
    }

    // ---- host-to-device input copy (hidden by double buffering) ----
    const double htod_bytes =
        b_local * (tables * (pooling * 8.0 + 4.0) + 1024.0);
    bd.htod = htod_bytes / setup_.cluster.node.pcie_bw;

    // ---- fixed overhead ----
    bd.overhead = setup_.fixed_overhead;

    // ---- checkpointing (Sec. 4.4 / Check-N-Run) ----
    if (setup_.checkpoint_bytes > 0.0) {
        bd.checkpoint = comm_.fault_model().CheckpointWriteSeconds(
            setup_.checkpoint_bytes);
    }

    // ---- Eq. 1 composition ----
    // Inter-batch pipelining (Sec. 4.3): batch i+1's input AllToAll runs
    // behind batch i's dense compute, so only the part that outlasts the
    // MLP + interaction window stays on the critical path.
    double input_exposed = bd.input_a2a;
    if (setup_.overlap_input_comm && bd.input_a2a > 0.0) {
        const double dense_window = bd.bot_mlp_fwd + bd.interaction_fwd +
                                    bd.top_mlp_fwd + bd.top_mlp_bwd +
                                    bd.interaction_bwd + bd.bot_mlp_bwd;
        input_exposed = std::max(0.0, bd.input_a2a - dense_window);
        bd.overlap_saved += bd.input_a2a - input_exposed;
    }
    const double fwd_emb_path =
        input_exposed + bd.emb_lookup + bd.pooled_a2a_fwd;
    bd.t_fwd = std::max(bd.bot_mlp_fwd, fwd_emb_path) +
               bd.interaction_fwd + bd.top_mlp_fwd;
    const double bwd_emb_path =
        std::max(bd.grad_a2a_bwd + bd.emb_update, bd.bot_mlp_bwd);
    bd.t_bwd = std::max(bd.top_mlp_bwd + bd.interaction_bwd + bwd_emb_path,
                        bd.allreduce);
    bd.total = bd.t_fwd + bd.t_bwd + bd.overhead + bd.checkpoint;
    bd.qps = b_global / bd.total;
    return bd;
}

IterationBreakdown
IterationModel::Estimate() const
{
    IterationBreakdown with_comm = Compose(/*comm_free=*/false);
    const IterationBreakdown no_comm = Compose(/*comm_free=*/true);
    with_comm.exposed_comm = with_comm.total - no_comm.total;
    return with_comm;
}

}  // namespace neo::sim
