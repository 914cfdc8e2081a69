/**
 * @file
 * Tests for the inter-batch pipeline driver (Sec. 4.3) and the
 * differential checkpointing of Sec. 4.4 / Check-N-Run: the pipelined
 * collective schedule is numerically transparent, and deltas capture
 * exactly the touched rows at a fraction of a full checkpoint.
 */
#include <gtest/gtest.h>

#include <filesystem>

#include "comm/threaded_process_group.h"
#include "common/parallel_for.h"
#include "core/async_checkpoint.h"
#include "core/checkpoint.h"
#include "core/distributed_trainer.h"
#include "core/pipeline.h"
#include "data/dataset.h"
#include "obs/step_breakdown.h"
#include "obs/trace.h"
#include "sharding/planner.h"

namespace neo::core {
namespace {

data::DatasetConfig
MakeDataConfig(const DlrmConfig& model)
{
    data::DatasetConfig config;
    config.num_dense = model.num_dense;
    config.seed = 31;
    for (const auto& t : model.tables) {
        config.features.push_back({t.rows, t.pooling, 1.05});
    }
    return config;
}

sharding::ShardingPlan
PlanFor(const DlrmConfig& model, int workers)
{
    sharding::PlannerOptions options;
    options.topo.num_workers = workers;
    options.topo.workers_per_node = workers;
    options.global_batch = 64;
    options.hbm_bytes_per_worker = 1e12;
    sharding::ShardingPlanner planner(options);
    return planner.Plan(model.tables);
}

data::Batch
Slice(const data::Batch& global, int rank, size_t local_batch)
{
    data::Batch local;
    const size_t begin = rank * local_batch;
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

// ------------------------------------------------------------- Pipeline

/** Per-step losses as seen by rank 0, unpipelined or pipelined. */
std::vector<double>
RunLosses(const DlrmConfig& model, const sharding::ShardingPlan& plan,
          int workers, size_t local_batch, int steps, bool pipelined)
{
    std::vector<double> losses;
    comm::ThreadedWorld::Run(workers, [&](int rank, comm::ProcessGroup& pg) {
        DistributedDlrm trainer(model, plan, pg);
        data::SyntheticCtrDataset dataset(MakeDataConfig(model));
        PipelinedTrainer pipeline(trainer);
        std::vector<double> local_losses;
        for (int s = 0; s < steps; s++) {
            const data::Batch local =
                Slice(dataset.NextBatch(local_batch * workers), rank,
                      local_batch);
            if (!pipelined) {
                local_losses.push_back(trainer.TrainStep(local));
            } else if (auto loss = pipeline.Push(local)) {
                local_losses.push_back(*loss);
            }
        }
        if (auto loss = pipeline.Flush()) {
            local_losses.push_back(*loss);
        }
        EXPECT_EQ(pipeline.steps_completed(),
                  pipelined ? static_cast<uint64_t>(steps) : 0u);
        if (rank == 0) {
            losses = local_losses;
        }
    });
    return losses;
}

TEST(Pipeline, MatchesUnpipelinedBitwise)
{
    // Scheduling batch i+1's input AllToAll before batch i trains may
    // not change a single bit of the result.
    const DlrmConfig model = MakeSmallDlrmConfig(4, 150, 16);
    const int workers = 2;
    const size_t local_batch = 16;
    const int steps = 6;
    const sharding::ShardingPlan plan = PlanFor(model, workers);

    const std::vector<double> sequential =
        RunLosses(model, plan, workers, local_batch, steps, false);
    const std::vector<double> pipelined =
        RunLosses(model, plan, workers, local_batch, steps, true);
    ASSERT_EQ(sequential.size(), static_cast<size_t>(steps));
    ASSERT_EQ(pipelined.size(), sequential.size());
    for (size_t i = 0; i < sequential.size(); i++) {
        EXPECT_EQ(sequential[i], pipelined[i]) << "step " << i;
    }
}

TEST(PipelineOverlap, MatchesUnpipelinedBitwiseAcrossThreadCounts)
{
    // The input exchange of batch i+1 runs ahead of batch i's training;
    // that overlap may not change a single bit of the result at any
    // shared-pool width, including 1.
    const DlrmConfig model = MakeSmallDlrmConfig(4, 150, 16);
    const int workers = 2;
    const size_t local_batch = 16;
    const int steps = 5;
    const sharding::ShardingPlan plan = PlanFor(model, workers);

    const std::vector<double> sequential =
        RunLosses(model, plan, workers, local_batch, steps, false);
    ASSERT_EQ(sequential.size(), static_cast<size_t>(steps));

    for (const size_t threads : {size_t{1}, size_t{2}, size_t{7}}) {
        SetDefaultPoolThreads(threads);
        const std::vector<double> pipelined =
            RunLosses(model, plan, workers, local_batch, steps, true);
        ASSERT_EQ(pipelined.size(), sequential.size())
            << "threads=" << threads;
        for (size_t i = 0; i < sequential.size(); i++) {
            EXPECT_EQ(sequential[i], pipelined[i])
                << "step " << i << " threads=" << threads;
        }
    }
    SetDefaultPoolThreads(DefaultParallelism());
}

TEST(Pipeline, FlushOnEmptyPipelineIsNoop)
{
    const DlrmConfig model = MakeSmallDlrmConfig(2, 50, 16);
    const sharding::ShardingPlan plan = PlanFor(model, 1);
    comm::ThreadedWorld::Run(1, [&](int, comm::ProcessGroup& pg) {
        DistributedDlrm trainer(model, plan, pg);
        PipelinedTrainer pipeline(trainer);
        EXPECT_FALSE(pipeline.Flush().has_value());
        EXPECT_EQ(pipeline.steps_completed(), 0u);
    });
}

// ----------------------------------------------------------- Checkpoint

TEST(DeltaCheckpoint, BaselinePlusDeltasRestoreExactly)
{
    Rng rng(3);
    ops::EmbeddingTable table(200, 8);
    table.InitUniform(rng);
    DeltaCheckpointer checkpointer(&table);
    const auto baseline = checkpointer.WriteBaseline();

    // Mutate a few rows, snapshot, mutate more, snapshot again.
    std::vector<std::vector<uint8_t>> deltas;
    const float row_a[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    table.WriteRow(5, row_a);
    table.WriteRow(100, row_a);
    deltas.push_back(checkpointer.WriteDelta());
    EXPECT_EQ(checkpointer.last_delta_rows(), 2u);

    const float row_b[8] = {-1, -2, -3, -4, -5, -6, -7, -8};
    table.WriteRow(5, row_b);   // re-touched
    table.WriteRow(42, row_b);  // new
    deltas.push_back(checkpointer.WriteDelta());
    EXPECT_EQ(checkpointer.last_delta_rows(), 2u);

    const ops::EmbeddingTable restored =
        DeltaCheckpointer::Restore(baseline, deltas);
    EXPECT_TRUE(ops::EmbeddingTable::Identical(table, restored));
}

TEST(DeltaCheckpoint, NoChangesMeansEmptyDelta)
{
    Rng rng(5);
    ops::EmbeddingTable table(50, 4);
    table.InitUniform(rng);
    DeltaCheckpointer checkpointer(&table);
    checkpointer.WriteBaseline();
    const auto delta = checkpointer.WriteDelta();
    EXPECT_EQ(checkpointer.last_delta_rows(), 0u);
    const auto restored =
        DeltaCheckpointer::Restore(checkpointer.WriteBaseline(), {delta});
    EXPECT_TRUE(ops::EmbeddingTable::Identical(table, restored));
}

TEST(DeltaCheckpoint, DeltaMuchSmallerThanBaselineUnderSparseUpdates)
{
    // The Check-N-Run observation: one training interval touches only a
    // small, Zipf-skewed subset of rows.
    Rng rng(7);
    ops::EmbeddingTable table(20000, 16);
    table.InitUniform(rng);
    DeltaCheckpointer checkpointer(&table);
    const auto baseline = checkpointer.WriteBaseline();

    ZipfSampler sampler(20000, 1.1);
    std::vector<float> row(16);
    for (int i = 0; i < 500; i++) {
        const int64_t r = static_cast<int64_t>(sampler.Sample(rng));
        table.ReadRow(r, row.data());
        for (auto& x : row) {
            x += 0.01f;
        }
        table.WriteRow(r, row.data());
    }
    const auto delta = checkpointer.WriteDelta();
    EXPECT_LT(checkpointer.last_delta_rows(), 500u);  // duplicates merge
    EXPECT_LT(delta.size(), baseline.size() / 10);

    const auto restored =
        DeltaCheckpointer::Restore(baseline, {delta});
    EXPECT_TRUE(ops::EmbeddingTable::Identical(table, restored));
}

TEST(DeltaCheckpoint, RestoreRejectsCorruptDelta)
{
    Rng rng(9);
    ops::EmbeddingTable table(10, 4);
    table.InitUniform(rng);
    DeltaCheckpointer checkpointer(&table);
    const auto baseline = checkpointer.WriteBaseline();
    auto delta = checkpointer.WriteDelta();
    delta[0] ^= 0xFF;  // corrupt the magic
    EXPECT_THROW(DeltaCheckpointer::Restore(baseline, {delta}),
                 std::runtime_error);
}

// ----------------------------------------------------- Async checkpoint

/** Train `steps` steps, checkpointing each one into `store`. */
void
TrainWithCheckpoints(const DlrmConfig& model,
                     const sharding::ShardingPlan& plan, int workers,
                     size_t local_batch, int steps, CheckpointStore& store,
                     bool async)
{
    comm::ThreadedWorld::Run(workers, [&](int rank, comm::ProcessGroup& pg) {
        DistributedDlrm trainer(model, plan, pg);
        data::SyntheticCtrDataset dataset(MakeDataConfig(model));
        DistributedCheckpointer checkpointer(trainer, store);
        std::optional<AsyncCheckpointer> background;
        if (async) {
            background.emplace(checkpointer, rank);
            background->WriteBaseline();
        } else {
            checkpointer.WriteBaseline();
        }
        for (int s = 0; s < steps; s++) {
            data::Batch global = dataset.NextBatch(local_batch * workers);
            trainer.TrainStep(Slice(global, rank, local_batch));
            if (async) {
                background->WriteDelta();
            } else {
                checkpointer.WriteDelta();
            }
        }
        if (async) {
            background->Flush();
            EXPECT_EQ(background->flushed_generation(),
                      static_cast<uint64_t>(steps));
            EXPECT_EQ(background->in_flight(), 0u);
        }
    });
}

TEST(AsyncCheckpoint, StoreByteIdenticalToSyncCheckpointing)
{
    // Async checkpointing only moves WHERE serialization runs; every
    // baseline and every delta in the store must be byte-for-byte what
    // the synchronous writer produces.
    const DlrmConfig model = MakeSmallDlrmConfig(4, 150, 16);
    const int workers = 2;
    const size_t local_batch = 16;
    const int steps = 5;
    const sharding::ShardingPlan plan = PlanFor(model, workers);

    CheckpointStore sync_store;
    CheckpointStore async_store;
    TrainWithCheckpoints(model, plan, workers, local_batch, steps,
                         sync_store, /*async=*/false);
    TrainWithCheckpoints(model, plan, workers, local_batch, steps,
                         async_store, /*async=*/true);

    ASSERT_EQ(sync_store.Ranks(), async_store.Ranks());
    for (const int rank : sync_store.Ranks()) {
        EXPECT_EQ(sync_store.Baseline(rank), async_store.Baseline(rank))
            << "baseline, rank " << rank;
        const auto sync_deltas = sync_store.Deltas(rank);
        const auto async_deltas = async_store.Deltas(rank);
        ASSERT_EQ(sync_deltas.size(), async_deltas.size())
            << "rank " << rank;
        ASSERT_EQ(sync_deltas.size(), static_cast<size_t>(steps));
        for (size_t i = 0; i < sync_deltas.size(); i++) {
            EXPECT_EQ(sync_deltas[i], async_deltas[i])
                << "delta " << i << ", rank " << rank;
        }
    }
}

TEST(AsyncCheckpoint, OverlapSavedNonzeroAndBucketsCoverStep)
{
    // The span-level proof that the delta flush really left the critical
    // path: rank 0's checkpoint lane records checkpoint_flush spans that
    // coincide with its train_step spans (overlap_saved > 0), while the
    // exclusive-time buckets still sum to the step wall clock.
    const DlrmConfig model = MakeSmallDlrmConfig(4, 150, 16);
    const int workers = 2;
    const size_t local_batch = 16;
    const int steps = 6;
    const sharding::ShardingPlan plan = PlanFor(model, workers);

    // A loaded (or sanitizer-slowed) box can starve the lane entirely out
    // of every step window in one short run, so retry: the property under
    // test is that the flush *can* run off the critical path, not that
    // the OS schedules it concurrently on every attempt. Coverage must
    // hold on every attempt regardless.
    obs::Tracer& tracer = obs::Tracer::Get();
    obs::StepBreakdown breakdown;
    for (int attempt = 0; attempt < 5; attempt++) {
        CheckpointStore store;
        tracer.SetEnabled(true);
        tracer.Clear();
        TrainWithCheckpoints(model, plan, workers, local_batch, steps,
                             store, /*async=*/true);
        const std::vector<obs::Span> spans = tracer.Collect();
        tracer.SetEnabled(false);
        tracer.Clear();

        breakdown = obs::StepBreakdown::FromSpans(spans, 0);
        ASSERT_EQ(breakdown.steps, steps);
        // Exclusive-time attribution: buckets sum to the wall clock
        // exactly (up to float rounding), with overlap_saved reported on
        // top, not inside.
        EXPECT_NEAR(breakdown.Coverage(), 1.0, 1e-6);
        if (breakdown.overlap_saved > 0.0) {
            break;
        }
    }
    EXPECT_GT(breakdown.overlap_saved, 0.0);
}

TEST(AsyncCheckpoint, DiskStoreDrainsAndRestoresExactly)
{
    // Disk mode: the flusher lane writes through CheckpointStore's
    // atomic file path; after Flush a FRESH store on the directory (a
    // different process, in effect) restores the exact model state.
    const DlrmConfig model = MakeSmallDlrmConfig(3, 120, 16);
    const int workers = 2;
    const size_t local_batch = 8;
    const int steps = 4;
    const sharding::ShardingPlan plan = PlanFor(model, workers);

    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / "neo_async_ckpt";
    std::filesystem::remove_all(dir);

    Matrix trained_logits;
    {
        CheckpointStore store(dir.string());
        comm::ThreadedWorld::Run(
            workers, [&](int rank, comm::ProcessGroup& pg) {
                DistributedDlrm trainer(model, plan, pg);
                data::SyntheticCtrDataset dataset(MakeDataConfig(model));
                DistributedCheckpointer checkpointer(trainer, store);
                AsyncCheckpointer background(checkpointer, rank);
                background.WriteBaseline();
                for (int s = 0; s < steps; s++) {
                    data::Batch global =
                        dataset.NextBatch(local_batch * workers);
                    trainer.TrainStep(Slice(global, rank, local_batch));
                    background.WriteDelta();
                }
                background.Flush();
                data::SyntheticCtrDataset probe(MakeDataConfig(model));
                data::Batch global = probe.NextBatch(local_batch * workers);
                Matrix logits;
                trainer.Predict(Slice(global, rank, local_batch), logits);
                if (rank == 0) {
                    trained_logits = logits;
                }
            });
    }

    CheckpointStore reopened(dir.string());
    comm::ThreadedWorld::Run(workers, [&](int rank, comm::ProcessGroup& pg) {
        DistributedDlrm restored(model, plan, pg);
        DistributedCheckpointer::RestoreInto(reopened, restored);
        data::SyntheticCtrDataset probe(MakeDataConfig(model));
        data::Batch global = probe.NextBatch(local_batch * workers);
        Matrix logits;
        restored.Predict(Slice(global, rank, local_batch), logits);
        if (rank == 0) {
            EXPECT_EQ(Matrix::MaxAbsDiff(trained_logits, logits), 0.0f);
        }
    });
    std::filesystem::remove_all(dir);
}

TEST(AsyncCheckpoint, CaptureFailureReleasesSlotForLaterWrites)
{
    // The foreground half can fail (here: delta before baseline); the
    // in-flight slot must come back so the checkpointer stays usable.
    const DlrmConfig model = MakeSmallDlrmConfig(2, 50, 16);
    const sharding::ShardingPlan plan = PlanFor(model, 1);
    CheckpointStore store;
    comm::ThreadedWorld::Run(1, [&](int rank, comm::ProcessGroup& pg) {
        DistributedDlrm trainer(model, plan, pg);
        DistributedCheckpointer checkpointer(trainer, store);
        AsyncCheckpointer background(checkpointer, rank);
        EXPECT_THROW(background.WriteDelta(), std::runtime_error);
        EXPECT_EQ(background.in_flight(), 0u);
        background.WriteBaseline();
        data::SyntheticCtrDataset dataset(MakeDataConfig(model));
        data::Batch batch = dataset.NextBatch(8);
        trainer.TrainStep(batch);
        background.WriteDelta();
        background.Flush();
        EXPECT_EQ(background.flushed_generation(), 1u);
    });
    EXPECT_EQ(store.Deltas(0).size(), 1u);
}

}  // namespace
}  // namespace neo::core
