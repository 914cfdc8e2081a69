#include "core/distributed_trainer.h"

#include <algorithm>
#include <thread>

#include "common/logging.h"
#include "core/step_transaction.h"
#include "data/jagged.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/straggler.h"
#include "obs/trace.h"

namespace neo::core {

std::chrono::milliseconds
RetryBackoffDelay(const DistributedOptions& options, int attempt)
{
    int64_t delay = options.retry_backoff.count();
    if (delay <= 0) {
        return std::chrono::milliseconds(0);
    }
    // Double per prior attempt, but saturate at the ceiling instead of
    // shifting into overflow (the old `retry_backoff << (k - 1)` wrapped
    // for large attempt counts). A ceiling below the base acts as the
    // base.
    const int64_t cap =
        std::max<int64_t>(options.max_retry_backoff.count(), delay);
    for (int k = 1; k < attempt && delay < cap; k++) {
        delay = delay > cap / 2 ? cap : delay * 2;
    }
    return std::chrono::milliseconds(std::min(delay, cap));
}

DistributedDlrm::DistributedDlrm(const DlrmConfig& config,
                                 const sharding::ShardingPlan& plan,
                                 comm::ProcessGroup& pg,
                                 const DistributedOptions& options)
    : config_(config), plan_(plan), pg_(pg), options_(options),
      rank_(pg.Rank()), world_(pg.Size()),
      dense_opt_(config.dense_optimizer)
{
    config_.Validate();
    NEO_REQUIRE(plan_.feasible, "sharding plan is infeasible: ", plan_.note);

    // Replicated MLPs: identical seed => identical replicas on all ranks.
    Rng mlp_rng(config_.seed);
    bottom_ = std::make_unique<ops::Mlp>(
        ops::MlpConfig{config_.BottomLayerSizes(), /*final_relu=*/true},
        mlp_rng);
    top_ = std::make_unique<ops::Mlp>(
        ops::MlpConfig{config_.TopLayerSizes(), /*final_relu=*/false},
        mlp_rng);
    interaction_ = std::make_unique<DotInteraction>(config_.tables.size(),
                                                    config_.EmbeddingDim());
    bottom_slots_ = bottom_->RegisterParams(dense_opt_);
    top_slots_ = top_->RegisterParams(dense_opt_);

    BuildShards();
    router_.emplace(config_.tables, config_.EmbeddingDim(), plan_, pg_);
    NEO_CHECK(router_->NumLocalShards() == shards_.size(),
              "local shard bookkeeping mismatch");
    grad_buffer_.resize(bottom_->GradCount() + top_->GradCount());

    // Live exposition: rank 0 periodically renders the (process-wide)
    // registry for external scrapers. Start() is inert unless a
    // telemetry directory is configured, so this costs nothing in tests.
    if (rank_ == 0 && options_.telemetry_period.count() > 0) {
        obs::SnapshotWriter::Options writer;
        writer.period = options_.telemetry_period;
        writer.basename = "train_metrics";
        exposition_.Start(writer);
    }
}

void
DistributedDlrm::BuildShards()
{
    dp_slot_of_table_.assign(config_.tables.size(), -1);
    for (const auto& shard : plan_.shards) {
        const auto& table_cfg = config_.tables[shard.table];
        const uint64_t table_seed = ops::EmbeddingBagCollection::TableSeed(
            config_.seed, static_cast<size_t>(shard.table));

        if (shard.scheme == sharding::Scheme::kDataParallel) {
            // Every worker replicates DP tables.
            ops::EmbeddingTable replica(table_cfg.rows, table_cfg.dim,
                                        table_cfg.precision);
            replica.InitDeterministic(table_seed, 0, 0, table_cfg.dim);
            ops::SparseOptimizer opt(config_.sparse_optimizer,
                                     table_cfg.rows, table_cfg.dim);
            dp_slot_of_table_[shard.table] =
                static_cast<int>(dp_tables_.size());
            dp_tables_.emplace_back(shard.table, std::move(replica),
                                    std::move(opt));
            continue;
        }
        if (shard.worker != rank_) {
            continue;
        }
        const int64_t shard_rows = shard.NumRows();
        const int64_t shard_cols = shard.NumCols();
        ops::EmbeddingTable table(shard_rows, shard_cols,
                                  table_cfg.precision);
        table.InitDeterministic(table_seed, shard.row_begin, shard.col_begin,
                                table_cfg.dim);
        ops::SparseOptimizer opt(config_.sparse_optimizer, shard_rows,
                                 shard_cols);
        shards_.emplace_back(shard, std::move(table), std::move(opt));
    }
    std::stable_sort(shards_.begin(), shards_.end(),
                     [](const LocalShard& a, const LocalShard& b) {
                         return ShardLess(a.meta, b.meta);
                     });
}

DistributedDlrm::PreparedInput
DistributedDlrm::PrepareInput(const data::Batch& local_batch)
{
    // Bucketize/route time books as "data"; the nested lengths/indices
    // AllToAlls carve their own time into the alltoall bucket.
    NEO_TRACE_SPAN("prepare_input", "data");
    NEO_REQUIRE(local_batch.sparse.num_tables == config_.tables.size(),
                "batch has ", local_batch.sparse.num_tables,
                " sparse features but the model has ",
                config_.tables.size());
    NEO_REQUIRE(local_batch.dense.rows() == local_batch.size() &&
                    local_batch.sparse.batch == local_batch.size(),
                "batch component sizes disagree");
    NEO_REQUIRE(local_batch.dense.cols() == config_.num_dense,
                "batch dense width mismatch");
    PreparedInput prepared;
    prepared.dense = local_batch.dense;
    prepared.labels = local_batch.labels;
    prepared.local_sparse = local_batch.sparse;
    prepared.local_batch = local_batch.size();
    prepared.shard_inputs =
        router_->RouteInput(local_batch.sparse, prepared.local_batch);
    return prepared;
}

void
DistributedDlrm::ForwardEmbeddings(const PreparedInput& prepared,
                                   std::vector<Matrix>& pooled)
{
    // Model-parallel shards pool the global batch in one fused lookup,
    // the exchange hands every rank its samples' pooled rows, and the
    // replicated DP tables then pool the local batch straight into them.
    const size_t b_global = prepared.local_batch * world_;
    std::vector<Matrix> shard_pooled(shards_.size());
    std::vector<ops::PoolingJob> jobs;
    for (size_t i = 0; i < shards_.size(); i++) {
        const auto& input = prepared.shard_inputs[i];
        NEO_CHECK(input.batch == b_global, "shard input batch mismatch");
        shard_pooled[i] =
            Matrix(b_global, static_cast<size_t>(shards_[i].meta.NumCols()));
        jobs.push_back(
            {&shards_[i].table, input.InputForTable(0), &shard_pooled[i]});
    }
    ops::PoolBags(jobs);
    router_->ExchangePooled(shard_pooled, prepared.local_batch,
                            options_.forward_alltoall, pooled);

    jobs.clear();
    for (const auto& dp : dp_tables_) {
        const size_t t = static_cast<size_t>(dp.table);
        jobs.push_back(
            {&dp.replica, prepared.local_sparse.InputForTable(t), &pooled[t]});
    }
    ops::PoolBags(jobs);
}

double
DistributedDlrm::TrainStepPrepared(PreparedInput& prepared)
{
    const size_t b_local = prepared.local_batch;
    const size_t b_global = b_local * static_cast<size_t>(world_);

    // ---- model-parallel embedding forward + exchange, DP tables ----
    std::vector<Matrix> pooled;
    {
        NEO_TRACE_SPAN("emb_forward", "emb_fwd");
        ForwardEmbeddings(prepared, pooled);
    }

    // ---- dense forward ----
    Matrix logits;
    Matrix bottom_out;
    Matrix interacted(b_local, interaction_->OutputDim());
    double loss = 0.0;
    {
        NEO_TRACE_SPAN("dense_forward", "mlp_fwd");
        bottom_->Forward(prepared.dense, bottom_out);
        interaction_->Forward(bottom_out, pooled, interacted);
        top_->Forward(interacted, logits);

        // ---- loss (global mean via AllReduce of the local sum) ----
        float loss_sum = static_cast<float>(
            BceWithLogitsLoss(logits, prepared.labels) *
            static_cast<double>(b_local));
        pg_.AllReduceSum(&loss_sum, 1);
        loss = loss_sum / static_cast<double>(b_global);
    }

    // ---- backward ----
    std::vector<Matrix> grad_pooled(config_.tables.size());
    {
        NEO_TRACE_SPAN("dense_backward", "mlp_bwd");
        Matrix grad_logits(b_local, 1);
        BceWithLogitsGrad(logits, prepared.labels, grad_logits, b_global);

        top_->ZeroGrads();
        Matrix grad_interacted;
        top_->Backward(grad_logits, grad_interacted);

        Matrix grad_bottom_out(b_local, config_.EmbeddingDim());
        for (auto& g : grad_pooled) {
            g = Matrix(b_local, config_.EmbeddingDim());
        }
        interaction_->Backward(grad_interacted, grad_bottom_out,
                               grad_pooled);

        bottom_->ZeroGrads();
        Matrix grad_dense_unused;
        bottom_->Backward(grad_bottom_out, grad_dense_unused);
    }

    // ---- sparse updates (model-parallel, then replicated DP) ----
    {
        NEO_TRACE_SPAN("emb_backward_update", "emb_bwd");
        ExchangeGradsAndUpdate(prepared, grad_pooled);
        UpdateDpTables(prepared, grad_pooled);
    }

    // ---- data-parallel MLP sync + update ----
    {
        // Pack/unpack rides the allreduce bucket (it exists only to feed
        // the wire); the nested collective span refines the timing.
        NEO_TRACE_SPAN("allreduce_mlp_grads", "allreduce");
        AllReduceMlpGrads();
    }
    {
        NEO_TRACE_SPAN("dense_optimizer", "opt");
        if (txn_ != nullptr) {
            txn_->CaptureDense();
        }
        bottom_->ApplyOptimizer(dense_opt_, bottom_slots_);
        top_->ApplyOptimizer(dense_opt_, top_slots_);
    }
    return loss;
}

double
DistributedDlrm::TrainStep(const data::Batch& local_batch)
{
    NEO_TRACE_SPAN("train_step", "step");
    const int64_t t0 = obs::NowNs();
    PreparedInput prepared = PrepareInput(local_batch);
    const double loss = TrainStepPrepared(prepared);
    auto& metrics = obs::MetricsRegistry::Get();
    metrics.GetCounter("neo.core.steps").Add();
    const double step_seconds =
        static_cast<double>(obs::NowNs() - t0) * 1e-9;
    metrics.GetHistogram("neo.core.step_seconds").Observe(step_seconds);
    obs::StragglerDetector::Get().RecordStep(rank_, step_seconds);
    auto& recorder = obs::FlightRecorder::Get();
    recorder.RecordStep(rank_, steps_done_++, step_seconds, loss);
    recorder.RecordMetricsDelta(rank_);
    return loss;
}

StepResult
DistributedDlrm::TrainStepWithRecovery(const data::Batch& local_batch)
{
    return RunStepWithRecovery(
        [&] { return TrainStep(local_batch); });
}

StepResult
DistributedDlrm::TrainStepPreparedWithRecovery(PreparedInput& prepared)
{
    // TrainStepPrepared never mutates `prepared`, so a retry replays the
    // identical routed input — the collective schedule of the retry is
    // the same on every rank, just without the input AllToAll.
    return RunStepWithRecovery(
        [&] { return TrainStepPrepared(prepared); });
}

StepResult
DistributedDlrm::RunStepWithRecovery(const std::function<double()>& attempt)
{
    StepResult result;
    while (true) {
        result.attempts++;
        std::optional<StepTransaction> txn;
        if (options_.transactional_retry) {
            txn.emplace(*this);
        }
        try {
            result.loss = attempt();
            if (txn) {
                txn->Commit();
            }
            result.ok = true;
            return result;
        } catch (const comm::RankFailure& failure) {
            // Undo any partial mutation this attempt made — whether we
            // retry (exactly-once semantics: the retry must start from
            // the exact pre-step state) or give up (elastic recovery
            // wants clean pre-step state to hand to the survivors).
            if (txn) {
                txn->Rollback();
            }
            obs::MetricsRegistry::Get()
                .GetCounter("neo.core.step_retries")
                .Add();
            result.failures.push_back({failure.failed_rank(),
                                       failure.cause(), result.attempts,
                                       failure.transient()});
            if (!failure.transient() ||
                result.attempts > options_.max_step_retries) {
                return result;
            }
            // Exponential backoff, then an all-rank rendezvous to re-arm
            // the communicator. Every surviving rank runs this same
            // path (they all received the same RankFailure), so the
            // rendezvous either completes everywhere or times out
            // everywhere — no rank is left retrying alone.
            std::this_thread::sleep_for(
                RetryBackoffDelay(options_, result.attempts));
            if (!pg_.Recover(options_.recover_timeout)) {
                std::string cause =
                    "recovery rendezvous timed out; rank did not return";
                const std::string suspect =
                    obs::StragglerDetector::Get().DescribeStraggler();
                if (!suspect.empty()) {
                    cause += "; " + suspect;
                }
                result.failures.push_back({failure.failed_rank(), cause,
                                           result.attempts, false});
                return result;
            }
            Warn("rank ", rank_, ": step attempt ", result.attempts,
                 " lost to failure of rank ", failure.failed_rank(),
                 " (", failure.cause(), "); retrying");
        }
    }
}

void
DistributedDlrm::ExchangeGradsAndUpdate(const PreparedInput& prepared,
                                        const std::vector<Matrix>& grad_pooled)
{
    const size_t b_local = prepared.local_batch;
    const size_t b_global = b_local * static_cast<size_t>(world_);

    // Route each shard its slice of the pooled gradient: full width for
    // TW/RW (partials used every column), the column range for CW.
    std::vector<std::vector<float>> send(world_);
    for (int dst = 0; dst < world_; dst++) {
        for (size_t gi : router_->route(dst)) {
            const auto& shard = router_->global_shards()[gi];
            const Matrix& g = grad_pooled[shard.table];
            if (shard.scheme == sharding::Scheme::kColumnWise) {
                const size_t d = static_cast<size_t>(shard.NumCols());
                for (size_t b = 0; b < b_local; b++) {
                    const float* row = g.Row(b) + shard.col_begin;
                    send[dst].insert(send[dst].end(), row, row + d);
                }
            } else {
                send[dst].insert(send[dst].end(), g.data(),
                                 g.data() + g.size());
            }
        }
    }
    std::vector<std::vector<float>> recv;
    comm::QuantizedAllToAll(pg_, send, recv, options_.backward_alltoall);

    // recv[src] holds, in my local shard order, a (b_local x d) gradient
    // block per shard; global sample src * b_local + b is row b of
    // source src's block. Every occurrence of a sample's bag points at
    // that row in place.
    std::vector<ops::SparseGradRef> refs;
    std::vector<const float*> block(world_);
    std::vector<size_t> cursor(world_, 0);
    for (size_t i = 0; i < shards_.size(); i++) {
        auto& shard = shards_[i];
        const size_t d = static_cast<size_t>(shard.meta.NumCols());
        for (int src = 0; src < world_; src++) {
            block[src] = recv[src].data() + cursor[src];
            cursor[src] += b_local * d;
        }
        const auto& input = prepared.shard_inputs[i];
        const auto lens = input.LengthsForTable(0);
        const auto idx = input.IndicesForTable(0);
        refs.clear();
        refs.reserve(idx.size());
        size_t offset = 0;
        for (size_t b = 0; b < b_global; b++) {
            const float* g = block[b / b_local] + (b % b_local) * d;
            for (uint32_t k = 0; k < lens[b]; k++) {
                refs.push_back({idx[offset + k], g});
            }
            offset += lens[b];
        }
        if (txn_ != nullptr) {
            txn_->CaptureShardRows(i, refs);
        }
        if (options_.exact_sparse_update) {
            shard.optimizer.ApplyExact(shard.table, refs);
        } else {
            shard.optimizer.ApplyNaive(shard.table, refs);
        }
    }
}

void
DistributedDlrm::UpdateDpTables(const PreparedInput& prepared,
                                const std::vector<Matrix>& grad_pooled)
{
    if (dp_tables_.empty()) {
        return;
    }
    const size_t b_local = prepared.local_batch;

    // Replicas must apply identical updates, so every worker broadcasts
    // its local (lengths, indices, gradients) and all replicas apply the
    // assembled global update — the sparse analogue of the DP AllReduce.
    std::vector<uint32_t> len_payload;
    std::vector<int64_t> idx_payload;
    std::vector<float> grad_payload;
    for (const auto& dp : dp_tables_) {
        const auto input = prepared.local_sparse.InputForTable(
            static_cast<size_t>(dp.table));
        len_payload.insert(len_payload.end(), input.lengths.begin(),
                           input.lengths.end());
        idx_payload.insert(idx_payload.end(), input.indices.begin(),
                           input.indices.end());
        const Matrix& g = grad_pooled[dp.table];
        grad_payload.insert(grad_payload.end(), g.data(),
                            g.data() + g.size());
    }
    std::vector<std::vector<uint32_t>> send_len(world_, len_payload);
    std::vector<std::vector<int64_t>> send_idx(world_, idx_payload);
    std::vector<std::vector<float>> send_grad(world_, grad_payload);
    std::vector<std::vector<uint32_t>> recv_len;
    std::vector<std::vector<int64_t>> recv_idx;
    std::vector<std::vector<float>> recv_grad;
    pg_.AllToAllLengths(send_len, recv_len);
    pg_.AllToAllIndices(send_idx, recv_idx);
    pg_.AllToAllFloats(send_grad, recv_grad);

    const size_t d = config_.EmbeddingDim();
    std::vector<size_t> len_cursor(world_, 0);
    std::vector<size_t> idx_cursor(world_, 0);
    std::vector<size_t> grad_cursor(world_, 0);
    std::vector<ops::SparseGradRef> refs;
    for (size_t dpi = 0; dpi < dp_tables_.size(); dpi++) {
        auto& dp = dp_tables_[dpi];
        refs.clear();
        for (int src = 0; src < world_; src++) {
            const uint32_t* lens = recv_len[src].data() + len_cursor[src];
            const float* grads = recv_grad[src].data() + grad_cursor[src];
            size_t offset = idx_cursor[src];
            for (size_t b = 0; b < b_local; b++) {
                const float* g = grads + b * d;
                for (uint32_t k = 0; k < lens[b]; k++) {
                    refs.push_back({recv_idx[src][offset + k], g});
                }
                offset += lens[b];
            }
            len_cursor[src] += b_local;
            grad_cursor[src] += b_local * d;
            idx_cursor[src] = offset;
        }
        if (txn_ != nullptr) {
            txn_->CaptureDpRows(dpi, refs);
        }
        if (options_.exact_sparse_update) {
            dp.optimizer.ApplyExact(dp.replica, refs);
        } else {
            dp.optimizer.ApplyNaive(dp.replica, refs);
        }
    }
}

void
DistributedDlrm::SaveLocal(BinaryWriter& writer) const
{
    writer.Write<uint32_t>(0x4E454F43u);  // 'NEOC'
    writer.Write<int32_t>(rank_);
    writer.Write<uint64_t>(shards_.size());
    for (const auto& shard : shards_) {
        writer.Write<int32_t>(shard.meta.table);
        writer.Write<int64_t>(shard.meta.row_begin);
        writer.Write<int64_t>(shard.meta.col_begin);
        shard.table.Save(writer);
    }
    writer.Write<uint64_t>(dp_tables_.size());
    for (const auto& dp : dp_tables_) {
        writer.Write<int32_t>(dp.table);
        dp.replica.Save(writer);
    }
    bottom_->Save(writer);
    top_->Save(writer);
}

void
DistributedDlrm::LoadLocal(BinaryReader& reader)
{
    NEO_REQUIRE(reader.Read<uint32_t>() == 0x4E454F43u,
                "bad distributed checkpoint magic");
    NEO_REQUIRE(reader.Read<int32_t>() == rank_,
                "checkpoint written by a different rank");
    const uint64_t num_shards = reader.Read<uint64_t>();
    NEO_REQUIRE(num_shards == shards_.size(),
                "checkpoint shard count mismatch");
    for (auto& shard : shards_) {
        NEO_REQUIRE(reader.Read<int32_t>() == shard.meta.table,
                    "checkpoint shard table mismatch");
        NEO_REQUIRE(reader.Read<int64_t>() == shard.meta.row_begin &&
                        reader.Read<int64_t>() == shard.meta.col_begin,
                    "checkpoint shard geometry mismatch");
        ops::EmbeddingTable loaded = ops::EmbeddingTable::Load(reader);
        NEO_REQUIRE(loaded.rows() == shard.table.rows() &&
                        loaded.dim() == shard.table.dim(),
                    "checkpoint shard shape mismatch");
        shard.table = std::move(loaded);
    }
    const uint64_t num_dp = reader.Read<uint64_t>();
    NEO_REQUIRE(num_dp == dp_tables_.size(),
                "checkpoint DP table count mismatch");
    for (auto& dp : dp_tables_) {
        NEO_REQUIRE(reader.Read<int32_t>() == dp.table,
                    "checkpoint DP table mismatch");
        ops::EmbeddingTable loaded = ops::EmbeddingTable::Load(reader);
        dp.replica = std::move(loaded);
    }
    bottom_->Load(reader);
    top_->Load(reader);
}

void
DistributedDlrm::AllReduceMlpGrads()
{
    const size_t bottom_count = bottom_->GradCount();
    bottom_->PackGrads(grad_buffer_.data());
    top_->PackGrads(grad_buffer_.data() + bottom_count);
    pg_.AllReduceSum(grad_buffer_.data(), grad_buffer_.size());
    bottom_->UnpackGrads(grad_buffer_.data());
    top_->UnpackGrads(grad_buffer_.data() + bottom_count);
}

void
DistributedDlrm::Predict(const data::Batch& local_batch, Matrix& logits)
{
    PreparedInput prepared = PrepareInput(local_batch);
    const size_t b_local = prepared.local_batch;

    std::vector<Matrix> pooled;
    ForwardEmbeddings(prepared, pooled);

    Matrix bottom_out;
    bottom_->Forward(prepared.dense, bottom_out);
    Matrix interacted(b_local, interaction_->OutputDim());
    interaction_->Forward(bottom_out, pooled, interacted);
    top_->Forward(interacted, logits);
}

void
DistributedDlrm::Evaluate(const data::Batch& local_batch,
                          NormalizedEntropy& ne)
{
    Matrix logits;
    Predict(local_batch, logits);
    ne.AddLogits(logits, local_batch.labels);
}

}  // namespace neo::core
