#include "ops/embedding_bag.h"

#include <algorithm>

#include "common/logging.h"
#include "common/parallel_for.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace neo::ops {

namespace {

/**
 * Bags per pooling shard. Each shard pools a contiguous bag range of one
 * job, so shards write disjoint output rows and the partitioning (job x
 * fixed bag chunks) is independent of the thread count.
 */
constexpr size_t kPoolBagGrain = 64;

/** One (job, bag-range) unit of pooling work. */
struct PoolShard {
    size_t job;
    size_t bag_begin;
    size_t bag_end;
    size_t index_offset;  // offset of bag_begin's first index
};

}  // namespace

uint64_t
EmbeddingBagCollection::TableSeed(uint64_t base_seed, size_t table)
{
    SplitMix64 sm(base_seed + 0xABCD0000ull + table);
    return sm.Next();
}

EmbeddingBagCollection::EmbeddingBagCollection(
    const std::vector<TableSpec>& specs,
    const SparseOptimizerConfig& optimizer, uint64_t seed)
{
    tables_.reserve(specs.size());
    optimizers_.reserve(specs.size());
    for (size_t t = 0; t < specs.size(); t++) {
        const auto& spec = specs[t];
        tables_.emplace_back(spec.rows, spec.dim, spec.precision);
        tables_.back().InitDeterministic(TableSeed(seed, t), 0, 0, spec.dim);
        optimizers_.emplace_back(optimizer, spec.rows, spec.dim);
    }
}

void
PoolBags(std::span<const PoolingJob> jobs)
{
    // Serial pass: validate the inputs and carve the fused (job x bag)
    // iteration space into shards. Offsets into each job's indices are
    // prefix sums of its lengths, so they are computed here once and
    // each shard starts from a known position.
    std::vector<PoolShard> shards;
    for (size_t j = 0; j < jobs.size(); j++) {
        const PoolingJob& job = jobs[j];
        const size_t bags = job.input.lengths.size();
        NEO_CHECK(job.out->rows() == bags &&
                      job.out->cols() ==
                          static_cast<size_t>(job.table->dim()),
                  "pooled output shape mismatch");
        size_t offset = 0;
        for (size_t b = 0; b < bags; b++) {
            if (b % kPoolBagGrain == 0) {
                shards.push_back(
                    {j, b, std::min(b + kPoolBagGrain, bags), offset});
            }
            const uint32_t len = job.input.lengths[b];
            NEO_CHECK(offset + len <= job.input.indices.size(),
                      "indices shorter than lengths imply");
            offset += len;
        }
        NEO_CHECK(offset == job.input.indices.size(),
                  "indices longer than lengths imply");
    }
    // Fused parallel loop over all jobs (the CPU analogue of the single
    // batched CUDA kernel in Fig. 7). Shards write disjoint output rows
    // and only read table parameters, so any thread count produces the
    // serial result bit-for-bit. Each bag pools through the active SIMD
    // kernel tier's fused gather+accumulate.
    static obs::Counter& pool_calls =
        obs::MetricsRegistry::Get().GetCounter("neo.kernels.pool_calls");
    ParallelFor(0, shards.size(), 1, [&](size_t s0, size_t s1) {
        uint64_t bags = 0;
        for (size_t s = s0; s < s1; s++) {
            const PoolShard& shard = shards[s];
            const PoolingJob& job = jobs[shard.job];
            const int64_t* indices = job.input.indices.data();
            size_t offset = shard.index_offset;
            for (size_t b = shard.bag_begin; b < shard.bag_end; b++) {
                const uint32_t len = job.input.lengths[b];
                // The gathered rows are scattered over tables far larger
                // than the cache: fetch the next bag's rows while this
                // one pools.
                if (b + 1 < shard.bag_end) {
                    const int64_t* next = indices + offset + len;
                    for (uint32_t k = 0; k < job.input.lengths[b + 1]; k++) {
                        job.table->PrefetchRow(next[k]);
                    }
                }
                job.table->PoolRows(indices + offset, len, job.out->Row(b));
                offset += len;
            }
            bags += shard.bag_end - shard.bag_begin;
        }
        pool_calls.Add(bags);
    });
}

void
EmbeddingBagCollection::Forward(std::span<const TableInput> inputs,
                                size_t batch,
                                std::vector<Matrix>& outputs) const
{
    NEO_TRACE_SPAN("emb_bag_forward", "emb_fwd");
    NEO_REQUIRE(inputs.size() == tables_.size(),
                "one input per table required");
    outputs.resize(tables_.size());
    std::vector<PoolingJob> jobs;
    jobs.reserve(tables_.size());
    for (size_t t = 0; t < tables_.size(); t++) {
        const EmbeddingTable& table = tables_[t];
        NEO_REQUIRE(inputs[t].lengths.size() == batch,
                    "lengths size mismatch");
        Matrix& out = outputs[t];
        if (out.rows() != batch ||
            out.cols() != static_cast<size_t>(table.dim())) {
            out = Matrix(batch, static_cast<size_t>(table.dim()));
        } else {
            out.Zero();
        }
        jobs.push_back({&table, inputs[t], &out});
    }
    PoolBags(jobs);
}

void
EmbeddingBagCollection::CollectGrads(const TableInput& input, size_t batch,
                                     const Matrix& grad,
                                     std::vector<SparseGradRef>& refs) const
{
    NEO_REQUIRE(input.lengths.size() == batch, "lengths size mismatch");
    NEO_REQUIRE(grad.rows() == batch, "grad batch mismatch");
    refs.clear();
    refs.reserve(input.indices.size());
    size_t offset = 0;
    for (size_t b = 0; b < batch; b++) {
        const float* g = grad.Row(b);
        const uint32_t len = input.lengths[b];
        for (uint32_t i = 0; i < len; i++) {
            refs.push_back({input.indices[offset + i], g});
        }
        offset += len;
    }
    NEO_CHECK(offset == input.indices.size(), "indices/lengths mismatch");
}

void
EmbeddingBagCollection::BackwardAndUpdate(std::span<const TableInput> inputs,
                                          size_t batch,
                                          const std::vector<Matrix>& grads)
{
    NEO_TRACE_SPAN("emb_bag_backward_update", "emb_bwd");
    NEO_REQUIRE(inputs.size() == tables_.size() &&
                grads.size() == tables_.size(),
                "one input and grad per table required");
    std::vector<SparseGradRef> refs;
    for (size_t t = 0; t < tables_.size(); t++) {
        CollectGrads(inputs[t], batch, grads[t], refs);
        optimizers_[t].ApplyExact(tables_[t], refs);
    }
}

void
EmbeddingBagCollection::BackwardAndUpdateNaive(
    std::span<const TableInput> inputs, size_t batch,
    const std::vector<Matrix>& grads)
{
    NEO_REQUIRE(inputs.size() == tables_.size() &&
                grads.size() == tables_.size(),
                "one input and grad per table required");
    std::vector<SparseGradRef> refs;
    for (size_t t = 0; t < tables_.size(); t++) {
        CollectGrads(inputs[t], batch, grads[t], refs);
        optimizers_[t].ApplyNaive(tables_[t], refs);
    }
}

size_t
EmbeddingBagCollection::ParameterBytes() const
{
    size_t total = 0;
    for (const auto& t : tables_) {
        total += t.ParameterBytes();
    }
    return total;
}

size_t
EmbeddingBagCollection::OptimizerStateBytes() const
{
    size_t total = 0;
    for (const auto& o : optimizers_) {
        total += o.StateBytes();
    }
    return total;
}

void
EmbeddingBagCollection::Save(BinaryWriter& writer) const
{
    writer.Write<uint32_t>(0x45424143u);  // 'EBAC'
    writer.Write<uint64_t>(tables_.size());
    for (const auto& t : tables_) {
        t.Save(writer);
    }
}

void
EmbeddingBagCollection::Load(BinaryReader& reader)
{
    const uint32_t magic = reader.Read<uint32_t>();
    NEO_REQUIRE(magic == 0x45424143u, "bad collection magic");
    const uint64_t n = reader.Read<uint64_t>();
    NEO_REQUIRE(n == tables_.size(), "checkpoint table count mismatch");
    for (size_t t = 0; t < tables_.size(); t++) {
        EmbeddingTable loaded = EmbeddingTable::Load(reader);
        NEO_REQUIRE(loaded.rows() == tables_[t].rows() &&
                    loaded.dim() == tables_[t].dim(),
                    "checkpoint table shape mismatch");
        tables_[t] = std::move(loaded);
    }
}

}  // namespace neo::ops
