/**
 * @file
 * Layer replays: each hot layer runs alone at the workload's own shapes —
 * the tiered cache over the serving request stream, pooled lookup and
 * sparse update at the training batches, the MLP GEMMs at the local
 * batch, and one training step's collectives on a fresh world — giving
 * achieved GB/s, GFLOP/s and hit rates next to the in-step buckets.
 */
#include <algorithm>
#include <functional>

#include "bench.h"
#include "cache/memory_tier.h"
#include "cache/tiered_embedding_bag.h"
#include "comm/threaded_process_group.h"
#include "common/rng.h"
#include "ops/embedding_bag.h"
#include "ops/mlp.h"
#include "serve/engine.h"

namespace perfbench {

namespace {

using neo::Matrix;

/** Timed repetitions of each replay; medians are reported. */
constexpr int kRepeats = 9;

double
TimeSeconds(const std::function<void()>& fn)
{
    const auto t0 = Clock::now();
    fn();
    return SecondsSince(t0);
}

/**
 * Replay TieredEmbeddingBag::Forward with the engine's cache geometry over
 * the request pool, batch by batch in send order, on the largest shard
 * of the snapshot (the tiered one when any shard is). One pass warms the
 * cache as the serving warm-up does; the second is measured.
 */
void
CacheReplay(const TrainOutcome& train, Report& report)
{
    // Candidates: every model-parallel shard and every replicated table.
    struct Candidate {
        int table;
        int64_t row_begin;
        int64_t row_end;
        const neo::ops::EmbeddingTable* rows;
    };
    std::vector<Candidate> candidates;
    for (const auto& shard : train.snapshot->shards) {
        candidates.push_back({shard.meta.table, shard.meta.row_begin,
                              shard.meta.row_end, &shard.table});
    }
    for (const auto& dp : train.snapshot->dp_tables) {
        candidates.push_back({dp.table, 0, dp.replica.rows(), &dp.replica});
    }
    const Candidate largest = *std::max_element(
        candidates.begin(), candidates.end(),
        [](const Candidate& a, const Candidate& b) {
            return a.rows->ParameterBytes() < b.rows->ParameterBytes();
        });
    const neo::serve::EngineOptions engine;
    neo::cache::MemoryTier hbm(neo::cache::Tier::kHbm,
                               engine.hbm_capacity_bytes, engine.hbm_bandwidth);
    neo::cache::MemoryTier ddr(neo::cache::Tier::kDdr,
                               engine.ddr_capacity_bytes, engine.ddr_bandwidth);
    neo::cache::CachedRowStore rows(neo::cache::CachedEmbeddingStore(
        *largest.rows, engine.cache, &hbm, &ddr));
    neo::cache::TieredEmbeddingBag bag(&rows,
                                       neo::ops::SparseOptimizerConfig{});

    // The shard's slice of each request batch, rebased to shard rows.
    const neo::data::Batch& pool = train.request_pool;
    std::vector<std::vector<uint32_t>> lengths;
    std::vector<std::vector<int64_t>> indices;
    for (size_t begin = 0; begin < pool.size(); begin += kMaxBatch) {
        const size_t end = std::min(pool.size(), begin + kMaxBatch);
        const auto lens = pool.sparse.LengthsForTable(largest.table);
        const auto idx = pool.sparse.IndicesForTable(largest.table);
        size_t offset = 0;
        for (size_t b = 0; b < begin; b++) {
            offset += lens[b];
        }
        lengths.emplace_back();
        indices.emplace_back();
        for (size_t b = begin; b < end; b++) {
            uint32_t kept = 0;
            for (uint32_t k = 0; k < lens[b]; k++) {
                const int64_t row = idx[offset + k];
                if (row >= largest.row_begin && row < largest.row_end) {
                    indices.back().push_back(row - largest.row_begin);
                    kept++;
                }
            }
            lengths.back().push_back(kept);
            offset += lens[b];
        }
    }
    Matrix out;
    auto pass = [&] {
        for (size_t i = 0; i < lengths.size(); i++) {
            bag.Forward({lengths[i], indices[i]}, lengths[i].size(), out);
        }
    };
    pass();
    const auto before = rows.store().stats();
    const double seconds = TimeSeconds(pass);
    const auto after = rows.store().stats();
    const double hits = static_cast<double>(after.hits - before.hits);
    const double misses = static_cast<double>(after.misses - before.misses);
    report.Add("cache.hit_rate", "fraction",
               hits + misses > 0 ? hits / (hits + misses) : 0.0);
    report.Add("cache.lookup_us", "us",
               seconds * 1e6 / static_cast<double>(pool.size()));
    report.Add("cache.shard_mb", "MB",
               static_cast<double>(largest.rows->ParameterBytes()) / 1e6);
}

/** EmbeddingBagCollection::Forward / BackwardAndUpdate at the training
 *  global batch (one call covers every rank's shards). */
void
EmbeddingReplay(const Workload& w, const TrainOutcome& train, Report& report)
{
    neo::ops::EmbeddingBagCollection ebc(w.model.TableSpecs(),
                                         w.model.sparse_optimizer,
                                         w.model.seed);
    const size_t tables = w.model.tables.size();
    const size_t dim = w.model.EmbeddingDim();
    std::vector<Matrix> grads(tables);
    neo::Rng rng(7);
    for (auto& g : grads) {
        g = Matrix(kGlobalBatch, dim);
        g.InitUniform(rng, -1e-3f, 1e-3f);
    }
    std::vector<double> fwd_gbps;
    std::vector<double> rows_per_s;
    std::vector<Matrix> pooled;
    for (int rep = 0; rep < kRepeats; rep++) {
        const auto& batch = train.batches[rep % train.batches.size()];
        std::vector<neo::ops::TableInput> inputs;
        size_t unique_rows = 0;
        for (size_t t = 0; t < tables; t++) {
            inputs.push_back(batch.sparse.InputForTable(t));
            std::vector<int64_t> rows(inputs.back().indices.begin(),
                                      inputs.back().indices.end());
            std::sort(rows.begin(), rows.end());
            unique_rows += static_cast<size_t>(
                std::unique(rows.begin(), rows.end()) - rows.begin());
        }
        const double fwd = TimeSeconds(
            [&] { ebc.Forward(inputs, kGlobalBatch, pooled); });
        const double bytes = static_cast<double>(batch.sparse.TotalIndices()) *
                             static_cast<double>(dim * sizeof(float));
        fwd_gbps.push_back(bytes / fwd / 1e9);
        const double bwd = TimeSeconds([&] {
            ebc.BackwardAndUpdate(inputs, kGlobalBatch, grads);
        });
        rows_per_s.push_back(static_cast<double>(unique_rows) / bwd);
    }
    report.Add("ops.pool_GBps", "GB/s", Median(fwd_gbps));
    report.Add("ops.update_rows_per_s", "1/s", Median(rows_per_s));
}

/** Bottom + top MLP forward and backward at the local batch. */
void
MlpReplay(const Workload& w, Report& report)
{
    const size_t batch = kGlobalBatch / kRanks;
    neo::Rng rng(11);
    neo::ops::Mlp bottom({w.model.BottomLayerSizes(), true}, rng);
    neo::ops::Mlp top({w.model.TopLayerSizes(), false}, rng);
    double macs = 0.0;
    for (const auto& sizes :
         {w.model.BottomLayerSizes(), w.model.TopLayerSizes()}) {
        for (size_t l = 0; l + 1 < sizes.size(); l++) {
            macs += static_cast<double>(sizes[l] * sizes[l + 1]);
        }
    }
    // Forward is 2 flops per MAC; backward computes dX and dW, 4 more.
    const double flops = 6.0 * macs * static_cast<double>(batch);
    Matrix x_bottom(batch, bottom.InputDim());
    Matrix x_top(batch, top.InputDim());
    x_bottom.InitUniform(rng, -1.0f, 1.0f);
    x_top.InitUniform(rng, -1.0f, 1.0f);
    Matrix y_bottom;
    Matrix y_top;
    Matrix grad_bottom(batch, bottom.OutputDim());
    Matrix grad_top(batch, top.OutputDim());
    grad_bottom.InitUniform(rng, -1e-2f, 1e-2f);
    grad_top.InitUniform(rng, -1e-2f, 1e-2f);
    Matrix dx;
    std::vector<double> gflops;
    for (int rep = 0; rep < kRepeats; rep++) {
        const double seconds = TimeSeconds([&] {
            bottom.Forward(x_bottom, y_bottom);
            top.Forward(x_top, y_top);
            bottom.ZeroGrads();
            top.ZeroGrads();
            top.Backward(grad_top, dx);
            bottom.Backward(grad_bottom, dx);
        });
        gflops.push_back(flops / seconds / 1e9);
    }
    report.Add("kernels.gemm_gflops", "GFLOP/s", Median(gflops));
}

/** One training step's collectives replayed on a fresh world. */
void
CommReplay(const TrainOutcome& train, Report& report)
{
    using neo::comm::CollectiveOp;
    std::vector<double> a2a_s(kRanks, 0.0);
    std::vector<double> ar_s(kRanks, 0.0);
    std::vector<double> a2a_bytes(kRanks, 0.0);
    std::vector<double> ar_bytes(kRanks, 0.0);
    neo::comm::ThreadedWorld::Run(kRanks, [&](int rank,
                                              neo::comm::ProcessGroup& pg) {
        const auto& events = train.step_collectives[rank];
        std::vector<std::vector<uint8_t>> recv;
        for (int rep = 0; rep < kRepeats; rep++) {
            for (const auto& e : events) {
                if (e.op == CollectiveOp::kAllToAll) {
                    std::vector<std::vector<uint8_t>> send(
                        kRanks, std::vector<uint8_t>(e.bytes / kRanks));
                    a2a_s[rank] += TimeSeconds(
                        [&] { pg.AllToAllBytes(send, recv); });
                    a2a_bytes[rank] += static_cast<double>(e.bytes);
                } else if (e.op == CollectiveOp::kAllReduce) {
                    std::vector<float> data(e.bytes / sizeof(float), 1.0f);
                    ar_s[rank] += TimeSeconds(
                        [&] { pg.AllReduceSum(data.data(), data.size()); });
                    ar_bytes[rank] += static_cast<double>(e.bytes);
                }
            }
        }
    });
    report.Add("comm.a2a_GBps", "GB/s",
               a2a_s[0] > 0 ? a2a_bytes[0] / a2a_s[0] / 1e9 : 0.0);
    report.Add("comm.allreduce_GBps", "GB/s",
               ar_s[0] > 0 ? ar_bytes[0] / ar_s[0] / 1e9 : 0.0);
    // In-step bucket minus the replayed time: waiting for peers.
    report.Add("comm.a2a_wait_ms", "ms",
               report.Value("comm.alltoall_ms") - a2a_s[0] / kRepeats * 1e3);
    report.Add("comm.allreduce_wait_ms", "ms",
               report.Value("comm.allreduce_ms") - ar_s[0] / kRepeats * 1e3);
}

}  // namespace

void
RunReplays(const Workload& w, TrainOutcome& train, Report& report)
{
    CacheReplay(train, report);
    train.snapshot.reset();
    EmbeddingReplay(w, train, report);
    MlpReplay(w, report);
    CommReplay(train, report);
}

}  // namespace perfbench
