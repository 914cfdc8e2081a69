#include "ops/sparse_optimizer.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/parallel_for.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace neo::ops {

namespace {

/**
 * Most unique-row groups per ApplyExact chunk. Below one chunk the update
 * runs serially.
 */
constexpr size_t kExactGroupGrain = 64;

/**
 * Occurrences after which an ApplyExact chunk closes early, so a hot row
 * with thousands of duplicates does not serialise 63 other groups behind
 * it.
 */
constexpr size_t kExactOccurrenceGrain = 256;

/** Groups ahead of the current one whose table row is prefetched. */
constexpr size_t kExactPrefetchDistance = 2;

/** Radix digit width of the row sort: 2^11 counters per pass. */
constexpr int kRadixBits = 11;
constexpr size_t kRadixBuckets = size_t{1} << kRadixBits;

/** Duplicate occurrences of one row that share a gradient pointer. */
struct GradRun {
    const float* grad;
    size_t count;
};

/**
 * Stable LSD radix sort of `in` by row id into `out`, one pass per 11-bit
 * digit of `max_row` (no pass at all when every row is 0). Every row must
 * lie in [0, max_row]. `scratch` is the second ping-pong buffer.
 */
void
RadixSortByRow(std::span<const SparseGradRef> in, uint64_t max_row,
               std::vector<SparseGradRef>& out,
               std::vector<SparseGradRef>& scratch)
{
    size_t passes = 0;
    while (passes * kRadixBits < 64 && (max_row >> (passes * kRadixBits))) {
        passes++;
    }
    out.assign(in.begin(), in.end());
    // One read pass fills every digit's histogram.
    std::vector<uint32_t> counts(passes * kRadixBuckets, 0);
    for (const SparseGradRef& ref : in) {
        const uint64_t key = static_cast<uint64_t>(ref.row);
        for (size_t p = 0; p < passes; p++) {
            counts[p * kRadixBuckets +
                   ((key >> (p * kRadixBits)) & (kRadixBuckets - 1))]++;
        }
    }
    scratch.resize(in.size());
    for (size_t p = 0; p < passes; p++) {
        uint32_t* bucket = counts.data() + p * kRadixBuckets;
        uint32_t offset = 0;
        for (size_t b = 0; b < kRadixBuckets; b++) {
            const uint32_t c = bucket[b];
            bucket[b] = offset;
            offset += c;
        }
        const unsigned shift = static_cast<unsigned>(p * kRadixBits);
        for (const SparseGradRef& ref : out) {
            const uint64_t key = static_cast<uint64_t>(ref.row);
            scratch[bucket[(key >> shift) & (kRadixBuckets - 1)]++] = ref;
        }
        out.swap(scratch);
    }
}

}  // namespace

const char*
SparseOptimizerKindName(SparseOptimizerKind kind)
{
    switch (kind) {
      case SparseOptimizerKind::kSgd: return "sgd";
      case SparseOptimizerKind::kAdaGrad: return "adagrad";
      case SparseOptimizerKind::kRowWiseAdaGrad: return "rowwise_adagrad";
      case SparseOptimizerKind::kAdam: return "adam";
    }
    return "unknown";
}

SparseOptimizer::SparseOptimizer(const SparseOptimizerConfig& config,
                                 int64_t rows, int64_t dim)
    : config_(config), rows_(rows), dim_(dim)
{
    NEO_REQUIRE(rows_ > 0 && dim_ > 0, "bad optimizer shape");
    const size_t n = static_cast<size_t>(rows_) * dim_;
    switch (config_.kind) {
      case SparseOptimizerKind::kSgd:
        break;
      case SparseOptimizerKind::kAdaGrad:
        adagrad_state_.assign(n, 0.0f);
        break;
      case SparseOptimizerKind::kRowWiseAdaGrad:
        rowwise_state_.assign(static_cast<size_t>(rows_), 0.0f);
        break;
      case SparseOptimizerKind::kAdam:
        adam_m_.assign(n, 0.0f);
        adam_v_.assign(n, 0.0f);
        adam_step_.assign(static_cast<size_t>(rows_), 0);
        break;
    }
    row_buf_.resize(static_cast<size_t>(dim_));
}

size_t
SparseOptimizer::StateBytes() const
{
    return adagrad_state_.size() * sizeof(float) +
           rowwise_state_.size() * sizeof(float) +
           adam_m_.size() * sizeof(float) + adam_v_.size() * sizeof(float) +
           adam_step_.size() * sizeof(uint32_t);
}

size_t
SparseOptimizer::StateFloatsPerRow() const
{
    const size_t d = static_cast<size_t>(dim_);
    switch (config_.kind) {
      case SparseOptimizerKind::kSgd: return 0;
      case SparseOptimizerKind::kAdaGrad: return d;
      case SparseOptimizerKind::kRowWiseAdaGrad: return 1;
      // m, v, and the per-row step count (stored as a float: exact for
      // any realistic step count, and it keeps the layout homogeneous).
      case SparseOptimizerKind::kAdam: return 2 * d + 1;
    }
    return 0;
}

void
SparseOptimizer::ExportRowState(int64_t row, float* out) const
{
    NEO_REQUIRE(row >= 0 && row < rows_, "row out of range");
    const size_t d = static_cast<size_t>(dim_);
    const size_t r = static_cast<size_t>(row);
    switch (config_.kind) {
      case SparseOptimizerKind::kSgd:
        break;
      case SparseOptimizerKind::kAdaGrad:
        std::copy_n(adagrad_state_.data() + r * d, d, out);
        break;
      case SparseOptimizerKind::kRowWiseAdaGrad:
        out[0] = rowwise_state_[r];
        break;
      case SparseOptimizerKind::kAdam:
        std::copy_n(adam_m_.data() + r * d, d, out);
        std::copy_n(adam_v_.data() + r * d, d, out + d);
        out[2 * d] = static_cast<float>(adam_step_[r]);
        break;
    }
}

void
SparseOptimizer::ImportRowState(int64_t row, const float* in)
{
    NEO_REQUIRE(row >= 0 && row < rows_, "row out of range");
    const size_t d = static_cast<size_t>(dim_);
    const size_t r = static_cast<size_t>(row);
    switch (config_.kind) {
      case SparseOptimizerKind::kSgd:
        break;
      case SparseOptimizerKind::kAdaGrad:
        std::copy_n(in, d, adagrad_state_.data() + r * d);
        break;
      case SparseOptimizerKind::kRowWiseAdaGrad:
        rowwise_state_[r] = in[0];
        break;
      case SparseOptimizerKind::kAdam:
        std::copy_n(in, d, adam_m_.data() + r * d);
        std::copy_n(in + d, d, adam_v_.data() + r * d);
        adam_step_[r] = static_cast<uint32_t>(in[2 * d]);
        break;
    }
}

float
SparseOptimizer::RowMoment(int64_t row) const
{
    NEO_REQUIRE(config_.kind == SparseOptimizerKind::kRowWiseAdaGrad,
                "RowMoment is row-wise AdaGrad state");
    NEO_REQUIRE(row >= 0 && row < rows_, "row out of range");
    return rowwise_state_[static_cast<size_t>(row)];
}

void
SparseOptimizer::UpdateRow(EmbeddingTable& table, int64_t row,
                           const float* g, float* row_buf)
{
    const float lr = config_.learning_rate;
    const float eps = config_.eps;
    const size_t d = static_cast<size_t>(dim_);
    table.ReadRow(row, row_buf);
    float* w = row_buf;

    const kernels::KernelTable& kt = kernels::Active();
    switch (config_.kind) {
      case SparseOptimizerKind::kSgd: {
        // w += (-lr) * g: IEEE sign flip and subtract-vs-add-negated are
        // exact, so this is bitwise the classic w[i] -= lr * g[i].
        kt.axpy_f32(-lr, g, w, d);
        break;
      }
      case SparseOptimizerKind::kAdaGrad: {
        float* state = adagrad_state_.data() + static_cast<size_t>(row) * d;
        kt.adagrad_update_f32(lr, eps, g, state, w, d);
        break;
      }
      case SparseOptimizerKind::kRowWiseAdaGrad: {
        // m' = m + (1/D) * sum_j g_j^2, one scalar per row (Sec. 4.1.4).
        // The sum runs the canonical width-16 strided reduction schedule.
        const float sq_sum = kt.sum_squares_f32(g, d);
        float& m = rowwise_state_[static_cast<size_t>(row)];
        m += sq_sum / static_cast<float>(d);
        const float scale = lr / (std::sqrt(m) + eps);
        kt.axpy_f32(-scale, g, w, d);
        break;
      }
      case SparseOptimizerKind::kAdam: {
        const float b1 = config_.beta1;
        const float b2 = config_.beta2;
        uint32_t& t = adam_step_[static_cast<size_t>(row)];
        t++;
        const float bc1 =
            1.0f - std::pow(b1, static_cast<float>(t));
        const float bc2 =
            1.0f - std::pow(b2, static_cast<float>(t));
        float* m = adam_m_.data() + static_cast<size_t>(row) * d;
        float* v = adam_v_.data() + static_cast<size_t>(row) * d;
        for (size_t i = 0; i < d; i++) {
            m[i] = b1 * m[i] + (1.0f - b1) * g[i];
            v[i] = b2 * v[i] + (1.0f - b2) * g[i] * g[i];
            const float m_hat = m[i] / bc1;
            const float v_hat = v[i] / bc2;
            w[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
        }
        break;
      }
    }
    table.WriteRow(row, row_buf);
}

void
SparseOptimizer::ApplyExact(EmbeddingTable& table,
                            std::span<const SparseGradRef> grads)
{
    // Sparse updates live in the paper's embedding-backward phase, so
    // they book as emb_bwd rather than the dense optimizer bucket.
    NEO_TRACE_SPAN("sparse_apply_exact", "emb_bwd");
    NEO_REQUIRE(table.rows() == rows_ && table.dim() == dim_,
                "optimizer/table shape mismatch");
    PlanExact(grads);

    // Apply the chunks in parallel: each group owns one table row and
    // its optimizer state, groups are disjoint, and each group's merge
    // order is canonical — bit-identical at any thread count.
    static obs::Counter& update_calls =
        obs::MetricsRegistry::Get().GetCounter(
            "neo.kernels.sparse_update_calls");
    update_calls.Add(group_starts_.size() - 1);
    ParallelFor(0, chunk_starts_.size() - 1, 1, [&](size_t c0, size_t c1) {
        for (size_t c = c0; c < c1; c++) {
            ApplyExactChunk(table, c);
        }
    });
}

void
SparseOptimizer::PlanExact(std::span<const SparseGradRef> grads)
{
    group_starts_.clear();
    chunk_starts_.assign(1, 0);

    // Validate every row before anything is written, so a bad batch
    // leaves the table and the optimizer state untouched.
    int64_t max_row = 0;
    for (const SparseGradRef& ref : grads) {
        NEO_REQUIRE(ref.row >= 0 && ref.row < rows_,
                    "gradient row ", ref.row, " out of range [0, ", rows_,
                    ")");
        max_row = std::max(max_row, ref.row);
    }

    // Stable sort of the occurrences by row id. Stability plus the
    // canonical per-group merge makes the final result invariant to the
    // original occurrence order.
    RadixSortByRow(grads, static_cast<uint64_t>(max_row), sorted_,
                   radix_scratch_);

    // One scan reads the unique-row groups off the sorted keys and cuts
    // them into chunks of at most kExactGroupGrain groups, closing a
    // chunk early once it holds kExactOccurrenceGrain occurrences. The
    // cut depends only on the batch, never on the thread count.
    size_t chunk_groups = 0;
    size_t chunk_occurrences = 0;
    for (size_t i = 0; i < sorted_.size();) {
        size_t j = i + 1;
        while (j < sorted_.size() && sorted_[j].row == sorted_[i].row) {
            j++;
        }
        if (chunk_groups == kExactGroupGrain ||
            chunk_occurrences >= kExactOccurrenceGrain) {
            chunk_starts_.push_back(group_starts_.size());
            chunk_groups = 0;
            chunk_occurrences = 0;
        }
        group_starts_.push_back(i);
        chunk_groups++;
        chunk_occurrences += j - i;
        i = j;
    }
    chunk_starts_.push_back(group_starts_.size());
    group_starts_.push_back(sorted_.size());
}

void
SparseOptimizer::ApplyExactChunk(EmbeddingTable& table, size_t chunk)
{
    const size_t d = static_cast<size_t>(dim_);
    const kernels::KernelTable& kt = kernels::Active();
    std::vector<float> merged(d);
    std::vector<float> row_buf(d);
    std::vector<GradRun> runs;
    const size_t end = chunk_starts_[chunk + 1];
    for (size_t g = chunk_starts_[chunk]; g < end; g++) {
        // The rows are scattered over a table far larger than the cache:
        // fetch a later group's row while this one merges.
        if (g + kExactPrefetchDistance < end) {
            table.PrefetchRow(
                sorted_[group_starts_[g + kExactPrefetchDistance]].row);
        }
        const size_t s = group_starts_[g];
        const size_t e = group_starts_[g + 1];
        // Floating-point sums depend on order, so the duplicates are
        // merged in lexicographic order of their gradient values, which
        // no permutation of the batch can change. Occurrences that share
        // a gradient pointer (one bag naming a row twice) sit next to each
        // other after the stable sort; they collapse into one (pointer,
        // count) run before the sort. Equal pointers hold equal values,
        // so the add sequence is the one a sort of the single occurrences
        // gives.
        runs.clear();
        for (size_t k = s; k < e;) {
            const float* grad = sorted_[k].grad;
            size_t count = 1;
            while (k + count < e && sorted_[k + count].grad == grad) {
                count++;
            }
            runs.push_back({grad, count});
            k += count;
        }
        if (runs.size() > 1) {
            std::sort(runs.begin(), runs.end(),
                      [d](const GradRun& a, const GradRun& b) {
                          return std::lexicographical_compare(
                              a.grad, a.grad + d, b.grad, b.grad + d);
                      });
        }
        std::fill(merged.begin(), merged.end(), 0.0f);
        for (const GradRun& run : runs) {
            for (size_t k = 0; k < run.count; k++) {
                kt.add_f32(run.grad, merged.data(), d);
            }
        }
        UpdateRow(table, sorted_[s].row, merged.data(), row_buf.data());
    }
}

void
SparseOptimizer::ApplyNaive(EmbeddingTable& table,
                            std::span<const SparseGradRef> grads)
{
    NEO_TRACE_SPAN("sparse_apply_naive", "emb_bwd");
    NEO_REQUIRE(table.rows() == rows_ && table.dim() == dim_,
                "optimizer/table shape mismatch");
    for (const auto& ref : grads) {
        NEO_CHECK(ref.row >= 0 && ref.row < rows_,
                  "gradient row out of range");
        UpdateRow(table, ref.row, ref.grad, row_buf_.data());
    }
}

}  // namespace neo::ops
