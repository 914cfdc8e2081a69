/**
 * @file
 * Critical-path microbenchmark for async double-buffered checkpointing
 * (Sec. 4.4). Runs the same 2-rank training-with-checkpoints loop two
 * ways, with the same unpipelined TrainStep input schedule on both
 * sides —
 *
 *   sync:  blocking WriteDelta after every step
 *   async: AsyncCheckpointer (capture on the step thread, serialize and
 *          append on a dedicated lane)
 *
 * — and fails unless every per-step loss is bit-identical and the two
 * checkpoint stores are byte-identical (taking work off the critical
 * path must not change what is computed or persisted). The two sides
 * alternate per repetition (sync, async, sync, async, ...) so host drift
 * lands on both, and each side reports its median step time and range.
 * The async runs are traced; StepBreakdown::FromSpans attributes
 * flush-lane time that coincides with step windows as overlap_saved,
 * which is diffed against the sim::IterationModel's Eq.-1 prediction for
 * the same workload (async_checkpoint knob). Even on a single CI core the span timeline
 * shows the flush work scheduled off the step thread, so measured
 * overlap_saved stays > 0.
 *
 * Usage: micro_pipeline [--quick] [--out=PATH] [--trace-out=PATH]
 *   --quick      fewer steps / smaller model (smoke-test mode)
 *   --out        JSON output path (default BENCH_overlap.json in cwd)
 *   --trace-out  also write the async run's Chrome trace JSON
 */
#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "comm/threaded_process_group.h"
#include "core/async_checkpoint.h"
#include "core/checkpoint.h"
#include "core/distributed_trainer.h"
#include "core/dlrm_config.h"
#include "data/dataset.h"
#include "kernels/kernels.h"
#include "obs/step_breakdown.h"
#include "obs/trace.h"
#include "sharding/planner.h"
#include "sim/iteration_model.h"

namespace {

using namespace neo;

constexpr int kWorkers = 2;

data::DatasetConfig
MakeDataConfig(const core::DlrmConfig& model)
{
    data::DatasetConfig config;
    config.num_dense = model.num_dense;
    config.seed = 99;
    for (const auto& t : model.tables) {
        config.features.push_back({t.rows, t.pooling, 1.05});
    }
    return config;
}

data::Batch
Slice(const data::Batch& global, int rank, size_t local_batch)
{
    const size_t begin = rank * local_batch;
    data::Batch local;
    local.dense = Matrix(local_batch, global.dense.cols());
    for (size_t b = 0; b < local_batch; b++) {
        for (size_t c = 0; c < global.dense.cols(); c++) {
            local.dense(b, c) = global.dense(begin + b, c);
        }
    }
    local.sparse = global.sparse.SliceBatch(begin, begin + local_batch);
    local.labels.assign(global.labels.begin() + begin,
                        global.labels.begin() + begin + local_batch);
    return local;
}

struct RunResult {
    double seconds = 0.0;  ///< wall-clock of the whole training loop
    /** losses[rank][step] */
    std::vector<std::vector<double>> losses;
};

/**
 * Unpipelined steps with a delta write after each: blocking, or through
 * the async double-buffered lane.
 */
RunResult
RunSteps(const core::DlrmConfig& model, const sharding::ShardingPlan& plan,
         size_t local_batch, int steps, core::CheckpointStore& store,
         bool async)
{
    RunResult result;
    result.losses.assign(kWorkers, {});
    const auto start = std::chrono::steady_clock::now();
    comm::ThreadedWorld::Run(kWorkers, [&](int rank,
                                           comm::ProcessGroup& pg) {
        core::DistributedDlrm trainer(model, plan, pg);
        core::DistributedCheckpointer checkpointer(trainer, store);
        std::optional<core::AsyncCheckpointer> lane;
        if (async) {
            lane.emplace(checkpointer, rank);
            lane->WriteBaseline();
        } else {
            checkpointer.WriteBaseline();
        }
        data::SyntheticCtrDataset dataset(MakeDataConfig(model));
        for (int s = 0; s < steps; s++) {
            const data::Batch local = Slice(
                dataset.NextBatch(local_batch * kWorkers), rank,
                local_batch);
            result.losses[rank].push_back(trainer.TrainStep(local));
            if (async) {
                lane->WriteDelta();
            } else {
                checkpointer.WriteDelta();
            }
        }
        if (async) {
            lane->Flush();
        }
    });
    result.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return result;
}

/** Median and range of one side's per-repetition step times. */
struct StepTiming {
    double median = 0.0;
    double min = 0.0;
    double max = 0.0;
};

StepTiming
Summarize(std::vector<double> step_seconds)
{
    std::sort(step_seconds.begin(), step_seconds.end());
    const size_t n = step_seconds.size();
    StepTiming timing;
    timing.median = n % 2 == 1
        ? step_seconds[n / 2]
        : 0.5 * (step_seconds[n / 2 - 1] + step_seconds[n / 2]);
    timing.min = step_seconds.front();
    timing.max = step_seconds.back();
    return timing;
}

bool
StoresByteIdentical(const core::CheckpointStore& a,
                    const core::CheckpointStore& b)
{
    if (a.Ranks() != b.Ranks()) {
        return false;
    }
    for (const int rank : a.Ranks()) {
        if (a.Baseline(rank) != b.Baseline(rank) ||
            a.Deltas(rank) != b.Deltas(rank)) {
            return false;
        }
    }
    return true;
}

}  // namespace

int
main(int argc, char** argv)
{
    bool quick = false;
    std::string out_path = "BENCH_overlap.json";
    std::string trace_out;
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
            out_path = argv[i] + 6;
        } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
            trace_out = argv[i] + 12;
        } else {
            std::fprintf(stderr, "unknown flag %s\n", argv[i]);
            return 2;
        }
    }

    const int steps = quick ? 6 : 30;
    const int reps = quick ? 2 : 5;
    const size_t local_batch = quick ? 16 : 64;
    const core::DlrmConfig model = quick
        ? core::MakeSmallDlrmConfig(4, 200, 8)
        : core::MakeSmallDlrmConfig(8, 4000, 32);

    sharding::PlannerOptions planner_options;
    planner_options.topo.num_workers = kWorkers;
    planner_options.topo.workers_per_node = kWorkers;
    planner_options.global_batch = local_batch * kWorkers;
    planner_options.hbm_bytes_per_worker = 1e12;
    const sharding::ShardingPlan plan =
        sharding::ShardingPlanner(planner_options).Plan(model.tables);

    // ---- measured: sync (untraced) and async (traced), interleaved --
    // Alternating the two sides per repetition spreads host drift over
    // both instead of landing it on whichever side runs second. Every
    // repetition gets fresh stores; the tracer keeps only the last async
    // repetition's spans.
    std::vector<double> sync_steps;
    std::vector<double> async_steps;
    std::unique_ptr<core::CheckpointStore> sync_store;
    std::unique_ptr<core::CheckpointStore> async_store;
    std::vector<std::vector<double>> first_losses;
    bool bit_identical = true;
    bool stores_identical = true;
    for (int r = 0; r < reps; r++) {
        obs::Tracer::Get().SetEnabled(false);
        sync_store = std::make_unique<core::CheckpointStore>();
        const RunResult sync_run = RunSteps(model, plan, local_batch, steps,
                                            *sync_store, /*async=*/false);

        obs::Tracer::Get().Clear();
        obs::Tracer::Get().SetEnabled(true);
        async_store = std::make_unique<core::CheckpointStore>();
        const RunResult async_run = RunSteps(model, plan, local_batch, steps,
                                             *async_store, /*async=*/true);
        obs::Tracer::Get().SetEnabled(false);

        sync_steps.push_back(sync_run.seconds / steps);
        async_steps.push_back(async_run.seconds / steps);
        if (r == 0) {
            first_losses = sync_run.losses;
        }
        bit_identical &= sync_run.losses == first_losses &&
                         async_run.losses == first_losses;
        stores_identical &= StoresByteIdentical(*sync_store, *async_store);
    }

    // ---- correctness gates -------------------------------------------
    if (!bit_identical) {
        std::fprintf(stderr,
                     "FAIL: async checkpointing changed the training "
                     "result\n");
        return 1;
    }
    if (!stores_identical) {
        std::fprintf(stderr,
                     "FAIL: async checkpointing changed the store\n");
        return 1;
    }

    // ---- measured overlap from the span timeline ---------------------
    const std::vector<obs::Span> spans = obs::Tracer::Get().Collect();
    const obs::StepBreakdown measured = obs::StepBreakdown::FromSpans(
        spans, /*rank=*/0);
    if (measured.overlap_saved <= 0.0) {
        std::fprintf(stderr,
                     "FAIL: no background work coincided with any step "
                     "window — the flush ran on the critical path\n");
        return 1;
    }

    const StepTiming sync_timing = Summarize(sync_steps);
    const StepTiming async_timing = Summarize(async_steps);
    const double sync_step = sync_timing.median;
    const double async_step = async_timing.median;

    // ---- modeled: the same workload through Eq. 1 --------------------
    // The functional run executes on simulated CPU workers, so absolute
    // modeled times differ by construction; the comparison is the SHAPE:
    // which fraction of a step async checkpointing takes off the
    // critical path. Checkpoint write bandwidth is calibrated from this
    // very run so the modeled sync-write term matches the measurement.
    sim::WorkloadModel workload;
    workload.name = "micro_pipeline";
    workload.num_tables = static_cast<int>(model.tables.size());
    workload.num_params = model.TotalParams();
    workload.dim_min = model.tables[0].dim;
    workload.dim_max = model.tables[0].dim;
    workload.dim_avg = static_cast<double>(model.EmbeddingDim());
    workload.avg_pooling =
        static_cast<double>(model.tables[0].pooling);
    double flops = 0.0;
    const std::vector<size_t> bottom = model.BottomLayerSizes();
    for (size_t i = 0; i + 1 < bottom.size(); i++) {
        flops += 2.0 * static_cast<double>(bottom[i] * bottom[i + 1]);
    }
    const std::vector<size_t> top = model.TopLayerSizes();
    for (size_t i = 0; i + 1 < top.size(); i++) {
        flops += 2.0 * static_cast<double>(top[i] * top[i + 1]);
    }
    workload.mflops_per_sample = flops / 1e6;
    workload.num_mlp_layers =
        static_cast<int>(bottom.size() + top.size() - 2);
    workload.avg_mlp_size = static_cast<double>(model.EmbeddingDim());

    const double delta_bytes_per_step =
        static_cast<double>(sync_store->TotalBytes()) / (kWorkers * steps);
    sim::TrainingSetup setup;
    setup.cluster = sim::ClusterSpec::Prototype(1);
    setup.num_gpus = kWorkers;
    setup.per_gpu_batch = static_cast<int64_t>(local_batch);
    setup.imbalance = plan.balance.imbalance;
    setup.checkpoint_bytes = delta_bytes_per_step;

    sim::FaultModel faults;
    faults.checkpoint_write_Bps =
        delta_bytes_per_step * kWorkers / sync_step;

    sim::TrainingSetup sync_setup = setup;
    sim::IterationModel sync_model(workload, sync_setup);
    sync_model.SetFaultModel(faults);
    const sim::IterationBreakdown modeled_sync = sync_model.Estimate();

    sim::TrainingSetup async_setup = setup;
    async_setup.async_checkpoint = true;
    sim::IterationModel async_model(workload, async_setup);
    async_model.SetFaultModel(faults);
    const sim::IterationBreakdown modeled_async = async_model.Estimate();

    const double measured_saved_frac =
        measured.overlap_saved / async_step;
    const double modeled_saved_frac =
        modeled_async.total > 0.0
            ? modeled_async.overlap_saved / modeled_async.total
            : 0.0;

    // ---- report ------------------------------------------------------
    std::printf("== micro_pipeline: async checkpointing "
                "(%d steps, median of %d interleaved reps) ==\n\n",
                steps, reps);
    std::printf("sync  (blocking ckpt): %.3f ms/step [%.3f, %.3f]\n",
                sync_step * 1e3, sync_timing.min * 1e3,
                sync_timing.max * 1e3);
    std::printf("async (ckpt lane):     %.3f ms/step [%.3f, %.3f] "
                "(%+.2f%%)\n",
                async_step * 1e3, async_timing.min * 1e3,
                async_timing.max * 1e3,
                (async_step - sync_step) / sync_step * 100.0);
    std::printf("losses bit-identical: %s; stores byte-identical: %s\n",
                bit_identical ? "yes" : "NO",
                stores_identical ? "yes" : "NO");
    std::printf("measured overlap_saved: %.3f ms/step (%.1f%% of step)\n",
                measured.overlap_saved * 1e3,
                measured_saved_frac * 100.0);
    std::printf("modeled  overlap_saved: %.3f ms/step (%.1f%% of step, "
                "A100 prototype)\n\n",
                modeled_async.overlap_saved * 1e3,
                modeled_saved_frac * 100.0);
    std::printf("measured (CPU workers) vs. modeled (async ckpt):\n\n%s\n",
                obs::StepBreakdown::DiffTable(
                    measured,
                    obs::StepBreakdown::FromModel(modeled_async))
                    .c_str());

    if (!trace_out.empty()) {
        if (!obs::Tracer::Get().WriteChromeJson(trace_out)) {
            std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
            return 1;
        }
        std::printf("wrote %s\n", trace_out.c_str());
    }

    FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"micro_pipeline\",\n");
    std::fprintf(f, "  \"kernel_tier\": \"%s\",\n",
                 neo::kernels::TierName(neo::kernels::ActiveTier()));
    std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
    std::fprintf(f, "  \"steps\": %d,\n", steps);
    std::fprintf(f, "  \"reps\": %d,\n", reps);
    std::fprintf(f, "  \"workers\": %d,\n", kWorkers);
    std::fprintf(f, "  \"sync_step_seconds\": %.6f,\n", sync_step);
    std::fprintf(f, "  \"sync_step_seconds_min\": %.6f,\n",
                 sync_timing.min);
    std::fprintf(f, "  \"sync_step_seconds_max\": %.6f,\n",
                 sync_timing.max);
    std::fprintf(f, "  \"async_step_seconds\": %.6f,\n", async_step);
    std::fprintf(f, "  \"async_step_seconds_min\": %.6f,\n",
                 async_timing.min);
    std::fprintf(f, "  \"async_step_seconds_max\": %.6f,\n",
                 async_timing.max);
    std::fprintf(f, "  \"measured_overlap_saved_seconds\": %.6f,\n",
                 measured.overlap_saved);
    std::fprintf(f, "  \"measured_overlap_saved_fraction\": %.6f,\n",
                 measured_saved_frac);
    std::fprintf(f, "  \"modeled_sync_step_seconds\": %.6f,\n",
                 modeled_sync.total);
    std::fprintf(f, "  \"modeled_async_step_seconds\": %.6f,\n",
                 modeled_async.total);
    std::fprintf(f, "  \"modeled_overlap_saved_seconds\": %.6f,\n",
                 modeled_async.overlap_saved);
    std::fprintf(f, "  \"modeled_overlap_saved_fraction\": %.6f,\n",
                 modeled_saved_frac);
    std::fprintf(f, "  \"checkpoint_bytes_per_step\": %.0f,\n",
                 delta_bytes_per_step);
    std::fprintf(f, "  \"breakdown_coverage\": %.6f,\n",
                 measured.Coverage());
    std::fprintf(f, "  \"stores_byte_identical\": %s,\n",
                 stores_identical ? "true" : "false");
    std::fprintf(f, "  \"bit_identical\": %s\n",
                 bit_identical ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
