#include <stdexcept>

#include "bench.h"

namespace perfbench {

namespace {

using neo::sharding::TableConfig;

/** Fixed task seed: every run trains the same task and model; the
 *  command-line seed only picks the sampled inputs. */
constexpr uint64_t kTaskSeed = 20220618;
constexpr uint64_t kModelSeed = 1234;
/** Zipf exponent of index popularity in every sparse feature. */
constexpr double kZipfS = 1.05;

std::vector<TableConfig>
Tables(const std::vector<int64_t>& rows, int64_t dim, double pooling)
{
    std::vector<TableConfig> tables;
    for (size_t t = 0; t < rows.size(); t++) {
        TableConfig table;
        table.name = "t";
        table.name += std::to_string(t);
        table.rows = rows[t];
        table.dim = dim;
        table.pooling = pooling;
        tables.push_back(table);
    }
    return tables;
}

/**
 * Embedding-bound: 8 fp32 tables of 2^17..2^19 rows at d=64 (~570 MB,
 * several times a server L3), pooling ~20 with Zipf 1.05 popularity and
 * small MLPs.
 * The one table above the DDR threshold serves through the tiered cache.
 */
Workload
TrainSparse()
{
    Workload w;
    w.name = "train_sparse";
    w.model.num_dense = 13;
    w.model.bottom_mlp = {64, 64};
    w.model.top_mlp = {64, 32};
    w.pooling = 20.0;
    w.model.tables = Tables({1 << 19, 1 << 18, 1 << 18, 1 << 18, 1 << 18,
                             1 << 18, 1 << 18, 1 << 17},
                            64, w.pooling);
    w.ddr_threshold_bytes = 100u << 20;
    w.low_qps = 4000;
    w.high_qps = 20000;
    w.climb_first_qps = 30000;
    w.climb_last_qps = 90000;
    return w;
}

/**
 * MLP-bound: 4 L2-resident tables (2048 rows, pooling ~2), 256 dense
 * features and wide MLPs. Every shard is looked up directly when served.
 */
Workload
TrainDense()
{
    Workload w;
    w.name = "train_dense";
    w.model.num_dense = 256;
    w.model.bottom_mlp = {512, 256, 64};
    w.model.top_mlp = {512, 256};
    w.pooling = 2.0;
    w.model.tables = Tables({2048, 2048, 2048, 2048}, 64, w.pooling);
    w.ddr_threshold_bytes = 0;
    w.low_qps = 4000;
    w.high_qps = 14000;
    w.climb_first_qps = 21000;
    w.climb_last_qps = 80000;
    return w;
}

}  // namespace

double
SecondsSince(Clock::time_point since)
{
    return std::chrono::duration<double>(Clock::now() - since).count();
}

std::vector<std::string>
WorkloadNames()
{
    return {"train_sparse", "train_dense"};
}

Workload
MakeWorkload(const std::string& name)
{
    Workload w;
    if (name == "train_sparse") {
        w = TrainSparse();
    } else if (name == "train_dense") {
        w = TrainDense();
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    w.model.seed = kModelSeed;
    w.model.sparse_optimizer.kind =
        neo::ops::SparseOptimizerKind::kRowWiseAdaGrad;
    w.model.Validate();
    return w;
}

neo::data::DatasetConfig
DataConfig(const Workload& w, uint64_t stream_seed)
{
    neo::data::DatasetConfig config;
    config.num_dense = w.model.num_dense;
    config.seed = stream_seed;
    config.task_seed = kTaskSeed;
    for (const auto& t : w.model.tables) {
        config.features.push_back({t.rows, w.pooling, kZipfS});
    }
    return config;
}

neo::sharding::PlannerOptions
TrainingPlannerOptions()
{
    neo::sharding::PlannerOptions options;
    options.topo.num_workers = kRanks;
    options.topo.workers_per_node = kRanks;
    options.global_batch = static_cast<int64_t>(kGlobalBatch);
    options.hbm_bytes_per_worker = 1e12;
    // Column-wise shards keep a row-wise AdaGrad moment per column shard,
    // which departs from the single-process reference the warm-up checks.
    options.allow_column_wise = false;
    return options;
}

}  // namespace perfbench
