#include "obs/step_breakdown.h"

#include <algorithm>
#include <cstring>
#include <map>

#include "common/table_printer.h"

namespace neo::obs {

namespace {

/**
 * Bucket a span category resolves to, or nullptr for transparent
 * categories (gemm, par, step, unknown) that roll up to their ancestor.
 */
double*
BucketFor(BreakdownCategories& c, const char* cat)
{
    if (cat == nullptr) {
        return nullptr;
    }
    if (std::strcmp(cat, "data") == 0) {
        return &c.data;
    }
    if (std::strcmp(cat, "emb_fwd") == 0) {
        return &c.emb_fwd;
    }
    if (std::strcmp(cat, "emb_bwd") == 0) {
        return &c.emb_bwd;
    }
    if (std::strcmp(cat, "mlp_fwd") == 0) {
        return &c.mlp_fwd;
    }
    if (std::strcmp(cat, "mlp_bwd") == 0) {
        return &c.mlp_bwd;
    }
    if (std::strcmp(cat, "a2a") == 0) {
        return &c.alltoall;
    }
    if (std::strcmp(cat, "allreduce") == 0) {
        return &c.allreduce;
    }
    if (std::strcmp(cat, "comm") == 0 || std::strcmp(cat, "barrier") == 0) {
        return &c.comm_other;
    }
    if (std::strcmp(cat, "opt") == 0) {
        return &c.optimizer;
    }
    return nullptr;
}

}  // namespace

double
BreakdownCategories::Total() const
{
    return data + emb_fwd + emb_bwd + mlp_fwd + mlp_bwd + alltoall +
           allreduce + comm_other + optimizer + other;
}

StepBreakdown
StepBreakdown::FromSpans(const std::vector<Span>& spans, int rank,
                         const char* step_name)
{
    StepBreakdown out;
    double step_total_ns = 0.0;

    // Re-nest each of the rank's threads separately; spans never cross
    // threads, and the rank thread's step span bounds the wall clock.
    std::map<uint32_t, std::vector<Span>> by_tid;
    for (const Span& span : spans) {
        if (span.rank == rank) {
            by_tid[span.tid].push_back(span);
        }
    }

    // For the overlap_saved term: the step spans' time intervals, and
    // the root spans of threads that recorded no step span (background
    // lanes such as the async checkpoint flush).
    std::vector<std::pair<int64_t, int64_t>> step_intervals;
    std::vector<std::pair<int64_t, int64_t>> background_roots;

    for (auto& [tid, local] : by_tid) {
        (void)tid;
        // Parents sort before children: earlier start first, and at
        // equal start the shallower span first.
        std::sort(local.begin(), local.end(),
                  [](const Span& a, const Span& b) {
                      if (a.start_ns != b.start_ns) {
                          return a.start_ns < b.start_ns;
                      }
                      return a.depth < b.depth;
                  });

        const size_t n = local.size();
        std::vector<int> parent(n, -1);
        std::vector<int64_t> child_ns(n, 0);
        std::vector<char> in_step(n, 0);
        std::vector<size_t> stack;
        std::vector<std::pair<int64_t, int64_t>> tid_roots;
        bool tid_has_step = false;
        for (size_t i = 0; i < n; i++) {
            const Span& s = local[i];
            while (!stack.empty()) {
                const Span& top = local[stack.back()];
                if (top.depth >= s.depth ||
                    top.start_ns + top.dur_ns <= s.start_ns) {
                    stack.pop_back();
                } else {
                    break;
                }
            }
            if (!stack.empty()) {
                parent[i] = static_cast<int>(stack.back());
                child_ns[stack.back()] += s.dur_ns;
            } else {
                tid_roots.emplace_back(s.start_ns, s.start_ns + s.dur_ns);
            }
            const bool is_step = std::strcmp(s.name, step_name) == 0;
            in_step[i] =
                is_step || (parent[i] >= 0 && in_step[parent[i]] != 0);
            if (is_step) {
                tid_has_step = true;
                out.steps++;
                step_total_ns += static_cast<double>(s.dur_ns);
                step_intervals.emplace_back(s.start_ns,
                                            s.start_ns + s.dur_ns);
            }
            stack.push_back(i);
        }
        // A thread with no step span of its own is a background lane;
        // the part of its root spans that coincides with the step spans
        // is work the overlap took off the critical path.
        if (!tid_has_step) {
            background_roots.insert(background_roots.end(),
                                    tid_roots.begin(), tid_roots.end());
        }

        for (size_t i = 0; i < n; i++) {
            if (in_step[i] == 0) {
                continue;
            }
            const int64_t exclusive_ns =
                std::max<int64_t>(local[i].dur_ns - child_ns[i], 0);
            if (exclusive_ns == 0) {
                continue;
            }
            // Charge the nearest bucketed category on the ancestor chain;
            // a fully transparent chain is uninstrumented step time.
            double* bucket = nullptr;
            for (int j = static_cast<int>(i); j >= 0; j = parent[j]) {
                bucket = BucketFor(out.categories, local[j].cat);
                if (bucket != nullptr) {
                    break;
                }
            }
            if (bucket == nullptr) {
                bucket = &out.categories.other;
            }
            *bucket += static_cast<double>(exclusive_ns) * 1e-9;
        }
    }

    // overlap_saved: background-lane root time that coincides with the
    // (merged) step intervals. Roots within one lane are sequential, so
    // summing each root's intersection with the merged step windows
    // never double-counts lane time; concurrent lanes sum, because each
    // would have serialized onto the critical path separately.
    if (!background_roots.empty() && !step_intervals.empty()) {
        std::sort(step_intervals.begin(), step_intervals.end());
        std::vector<std::pair<int64_t, int64_t>> merged;
        for (const auto& interval : step_intervals) {
            if (!merged.empty() && interval.first <= merged.back().second) {
                merged.back().second =
                    std::max(merged.back().second, interval.second);
            } else {
                merged.push_back(interval);
            }
        }
        int64_t overlap_ns = 0;
        for (const auto& [begin, end] : background_roots) {
            for (const auto& [mb, me] : merged) {
                const int64_t lo = std::max(begin, mb);
                const int64_t hi = std::min(end, me);
                if (hi > lo) {
                    overlap_ns += hi - lo;
                }
            }
        }
        out.overlap_saved = static_cast<double>(overlap_ns) * 1e-9;
    }

    if (out.steps > 0) {
        const double inv = 1.0 / static_cast<double>(out.steps);
        out.overlap_saved *= inv;
        out.categories.data *= inv;
        out.categories.emb_fwd *= inv;
        out.categories.emb_bwd *= inv;
        out.categories.mlp_fwd *= inv;
        out.categories.mlp_bwd *= inv;
        out.categories.alltoall *= inv;
        out.categories.allreduce *= inv;
        out.categories.comm_other *= inv;
        out.categories.optimizer *= inv;
        out.categories.other *= inv;
        out.step_seconds = step_total_ns * 1e-9 * inv;
    }
    return out;
}

StepBreakdown
StepBreakdown::FromModel(const sim::IterationBreakdown& model)
{
    StepBreakdown out;
    out.categories.data = model.htod;
    out.categories.emb_fwd = model.emb_lookup;
    out.categories.emb_bwd = model.emb_update;
    out.categories.mlp_fwd =
        model.bot_mlp_fwd + model.interaction_fwd + model.top_mlp_fwd;
    out.categories.mlp_bwd =
        model.top_mlp_bwd + model.interaction_bwd + model.bot_mlp_bwd;
    out.categories.alltoall =
        model.input_a2a + model.pooled_a2a_fwd + model.grad_a2a_bwd;
    out.categories.allreduce = model.allreduce;
    // Checkpointing is not one of the Fig. 12 compute/comm buckets; the
    // model's (exposed) checkpoint cost lands in `other` alongside the
    // overhead term, mirroring how measured checkpoint spans (category
    // "recovery", transparent) attribute.
    out.categories.other = model.overhead + model.checkpoint;
    out.overlap_saved = model.overlap_saved;
    out.step_seconds = model.total;
    out.steps = 1;
    return out;
}

double
StepBreakdown::Coverage() const
{
    return step_seconds > 0.0 ? categories.Total() / step_seconds : 0.0;
}

std::vector<BreakdownRow>
StepBreakdown::Rows() const
{
    return {
        {"data", categories.data},
        {"emb_fwd", categories.emb_fwd},
        {"emb_bwd", categories.emb_bwd},
        {"mlp_fwd", categories.mlp_fwd},
        {"mlp_bwd", categories.mlp_bwd},
        {"alltoall", categories.alltoall},
        {"allreduce", categories.allreduce},
        {"comm_other", categories.comm_other},
        {"optimizer", categories.optimizer},
        {"other", categories.other},
    };
}

std::string
StepBreakdown::ToTable() const
{
    TablePrinter table({"category", "ms/step", "% of step"});
    for (const BreakdownRow& row : Rows()) {
        table.Row()
            .Cell(row.name)
            .CellF(row.seconds * 1e3, "%.3f")
            .CellF(step_seconds > 0.0 ? 100.0 * row.seconds / step_seconds
                                      : 0.0,
                   "%.1f");
    }
    table.Row()
        .Cell("total")
        .CellF(categories.Total() * 1e3, "%.3f")
        .CellF(Coverage() * 100.0, "%.1f");
    table.Row()
        .Cell("step wall-clock")
        .CellF(step_seconds * 1e3, "%.3f")
        .Cell("100.0");
    table.Row()
        .Cell("exposed comm")
        .CellF(categories.ExposedComm() * 1e3, "%.3f")
        .CellF(step_seconds > 0.0
                   ? 100.0 * categories.ExposedComm() / step_seconds
                   : 0.0,
               "%.1f");
    table.Row()
        .Cell("overlap saved")
        .CellF(overlap_saved * 1e3, "%.3f")
        .CellF(step_seconds > 0.0 ? 100.0 * overlap_saved / step_seconds
                                  : 0.0,
               "%.1f");
    return table.ToString();
}

std::string
StepBreakdown::DiffTable(const StepBreakdown& measured,
                         const StepBreakdown& modeled)
{
    TablePrinter table(
        {"category", "measured ms", "modeled ms", "diff ms", "meas/model"});
    const std::vector<BreakdownRow> lhs = measured.Rows();
    const std::vector<BreakdownRow> rhs = modeled.Rows();
    for (size_t i = 0; i < lhs.size(); i++) {
        const double m = lhs[i].seconds * 1e3;
        const double p = rhs[i].seconds * 1e3;
        table.Row().Cell(lhs[i].name).CellF(m, "%.3f").CellF(p, "%.3f").CellF(
            m - p, "%+.3f");
        if (p > 0.0) {
            table.CellF(m / p, "%.2f");
        } else {
            table.Cell("-");
        }
    }
    const double m_overlap = measured.overlap_saved * 1e3;
    const double p_overlap = modeled.overlap_saved * 1e3;
    table.Row()
        .Cell("overlap saved")
        .CellF(m_overlap, "%.3f")
        .CellF(p_overlap, "%.3f")
        .CellF(m_overlap - p_overlap, "%+.3f");
    if (p_overlap > 0.0) {
        table.CellF(m_overlap / p_overlap, "%.2f");
    } else {
        table.Cell("-");
    }
    const double m_total = measured.step_seconds * 1e3;
    const double p_total = modeled.step_seconds * 1e3;
    table.Row()
        .Cell("step total")
        .CellF(m_total, "%.3f")
        .CellF(p_total, "%.3f")
        .CellF(m_total - p_total, "%+.3f");
    if (p_total > 0.0) {
        table.CellF(m_total / p_total, "%.2f");
    } else {
        table.Cell("-");
    }
    return table.ToString();
}

}  // namespace neo::obs
