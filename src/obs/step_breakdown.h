/**
 * @file
 * Aggregates recorded trace spans into the paper's Fig. 12 iteration
 * breakdown categories and diffs the measured numbers against
 * sim::IterationModel predictions — the measured half of the PARAM-style
 * "replay and validate" loop the evaluation methodology is built on.
 *
 * Attribution uses exclusive time: spans are re-nested per thread via
 * their recorded depth, each span's exclusive duration (its own time
 * minus its children's) is charged to the bucket named by its category,
 * and "transparent" categories (gemm, par, step, and anything unknown)
 * roll up to the nearest bucketed ancestor — so the buckets of one rank
 * sum to exactly that rank's step wall-clock by construction, with the
 * uninstrumented remainder showing up as `other`.
 */
#pragma once

#include <string>
#include <vector>

#include "obs/trace.h"
#include "sim/iteration_model.h"

namespace neo::obs {

/** Per-step seconds in each Fig. 12 bucket. */
struct BreakdownCategories {
    double data = 0.0;       ///< input pipeline / batch wait ("data")
    double emb_fwd = 0.0;    ///< embedding lookup + pooling ("emb_fwd")
    double emb_bwd = 0.0;    ///< embedding gradient + update ("emb_bwd")
    double mlp_fwd = 0.0;    ///< dense forward incl. interaction ("mlp_fwd")
    double mlp_bwd = 0.0;    ///< dense backward ("mlp_bwd")
    double alltoall = 0.0;   ///< input/pooled/grad AllToAll ("a2a")
    double allreduce = 0.0;  ///< MLP gradient AllReduce ("allreduce")
    double comm_other = 0.0; ///< other collectives, barriers ("comm","barrier")
    double optimizer = 0.0;  ///< dense optimizer apply ("opt")
    double other = 0.0;      ///< uninstrumented remainder of the step

    double Total() const;

    /** Communication buckets only (the paper's "exposed comm"). */
    double ExposedComm() const { return alltoall + allreduce + comm_other; }
};

/** One (category name, seconds) table row; see StepBreakdown::Rows(). */
struct BreakdownRow {
    const char* name;
    double seconds;
};

/**
 * A per-step breakdown for one rank: measured (FromSpans) or predicted
 * (FromModel). All category values are per-step averages in seconds.
 */
class StepBreakdown
{
  public:
    BreakdownCategories categories;

    /** Average wall-clock of one step span (measured) / model total. */
    double step_seconds = 0.0;

    /** Number of step instances aggregated (1 for a model prediction). */
    int steps = 0;

    /**
     * Aggregate the spans recorded by `rank`'s threads: every span nested
     * (by time + depth) inside a span named `step_name` is charged to a
     * bucket by exclusive time. Spans of other ranks are ignored.
     */
    static StepBreakdown FromSpans(const std::vector<Span>& spans, int rank,
                                   const char* step_name = "train_step");

    /** Map a sim::IterationModel prediction onto the same buckets. */
    static StepBreakdown FromModel(const sim::IterationBreakdown& model);

    /** Fraction of step wall-clock covered by the buckets (~1 measured). */
    double Coverage() const;

    /** Category rows in display order (zero rows included). */
    std::vector<BreakdownRow> Rows() const;

    /** One-column table: category, ms/step, % of step. */
    std::string ToTable() const;

    /** Side-by-side measured-vs-modeled table with per-bucket diffs. */
    static std::string DiffTable(const StepBreakdown& measured,
                                 const StepBreakdown& modeled);
};

}  // namespace neo::obs
