/**
 * @file
 * Training phase: a kRanks-rank ThreadedWorld trains core::DistributedDlrm
 * on a planner-placed model. Set-up (planning, input generation, model
 * init, the DlrmReference check and warm-up) is repeated and its median
 * reported. The last set-up then cuts the serving snapshot and parks
 * the world; timed windows of steps, replaying pre-generated batches from
 * memory, run on request between serving pieces. A traced run ends with a
 * window of steps with the program's span tracer on.
 */
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>

#include "bench.h"
#include "comm/threaded_process_group.h"
#include "core/distributed_trainer.h"
#include "core/dlrm_reference.h"
#include "obs/step_breakdown.h"
#include "obs/trace.h"

namespace perfbench {

namespace {

using neo::Matrix;
using neo::core::DistributedDlrm;
using neo::data::Batch;

/** Each timed window is split into this many consecutive blocks;
 *  throughput is the median block rate over all windows, so one stalled
 *  stretch moves one block, not the result. */
constexpr size_t kBlocksPerWindow = 3;
/** Distinct global batches generated in set-up, replayed in order. */
constexpr size_t kBatchPool = 24;
/** Untimed steps before timing; the first kReferenceSteps of them are
 *  checked against core::DlrmReference. */
constexpr size_t kWarmupSteps = 6;
constexpr size_t kReferenceSteps = 3;
/** train.loss is the mean loss of timed steps [begin, end); timing always
 *  runs at least kLossWindowEnd steps. */
constexpr size_t kLossWindowBegin = 8;
constexpr size_t kLossWindowEnd = 40;
/** Set-ups per run; the median is reported. */
constexpr int kSetupRepeats = 3;
/** Share of the run's seconds spent on timed training steps (all
 *  windows together). */
constexpr double kTrainShare = 0.4;
/** Tolerance of the reference check (as tests/test_distributed.cpp). */
constexpr double kReferenceTolerance = 2e-3;

Batch
Slice(const Batch& global, size_t begin, size_t end)
{
    Batch local;
    local.dense = Matrix(end - begin, global.dense.cols());
    std::memcpy(local.dense.data(), global.dense.Row(begin),
                (end - begin) * global.dense.cols() * sizeof(float));
    local.sparse = global.sparse.SliceBatch(begin, end);
    local.labels.assign(global.labels.begin() + begin,
                        global.labels.begin() + end);
    return local;
}

double
Ms(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Per-rank samples of the timed windows. */
struct RankTimes {
    std::vector<double> prepare_ms;
    std::vector<double> train_step_ms;
    std::vector<double> step_ms;
    std::vector<double> losses;
    /** Global samples per second of each block. */
    std::vector<double> block_rates;
    uint64_t comm_bytes = 0;
    uint64_t comm_calls = 0;
};

/** Inputs of one set-up: plan, pre-sliced batches and request pool. */
struct Inputs {
    neo::sharding::ShardingPlan plan;
    std::vector<Batch> global;
    /** local[rank][i]: rank's slice of global batch i. */
    std::vector<std::vector<Batch>> local;
    Batch request_pool;
};

Inputs
MakeInputs(const Workload& w, uint64_t seed, std::vector<double>& plan_ms)
{
    Inputs in;
    const neo::sharding::ShardingPlanner planner(TrainingPlannerOptions());
    const auto t0 = Clock::now();
    in.plan = planner.Plan(w.model.tables);
    plan_ms.push_back(Ms(t0, Clock::now()));

    neo::data::SyntheticCtrDataset stream(DataConfig(w, seed));
    const size_t b_local = kGlobalBatch / kRanks;
    in.local.resize(kRanks);
    for (size_t i = 0; i < kBatchPool; i++) {
        in.global.push_back(stream.NextBatch(kGlobalBatch));
        for (int r = 0; r < kRanks; r++) {
            in.local[r].push_back(Slice(in.global.back(), r * b_local,
                                        (r + 1) * b_local));
        }
    }
    // The request pool is its own stream of the same task.
    neo::data::SyntheticCtrDataset requests(
        DataConfig(w, seed ^ 0x9e3779b97f4a7c15ull));
    in.request_pool = requests.NextBatch(kRequestPool);
    return in;
}

/** Time `steps` steps starting at batch index `first`, appending to
 *  `out` (kBlocksPerWindow block rates per call, none when there are
 *  fewer steps than blocks). */
void
TimedSteps(DistributedDlrm& trainer, neo::comm::ProcessGroup& pg,
           const std::vector<Batch>& local, size_t first, size_t steps,
           bool span, RankTimes& out)
{
    const neo::comm::CommStats before = pg.Stats();
    std::vector<double> step_end_s;
    const auto start = Clock::now();
    for (size_t i = 0; i < steps; i++) {
        const Batch& batch = local[(first + i) % local.size()];
        // The step span is the benchmark's own: StepBreakdown attributes
        // every program span nested inside it.
        std::optional<neo::obs::ScopedSpan> step;
        if (span) {
            step.emplace("train_step", "step");
        }
        const auto t0 = Clock::now();
        DistributedDlrm::PreparedInput prepared = trainer.PrepareInput(batch);
        const auto t1 = Clock::now();
        const double loss = trainer.TrainStepPrepared(prepared);
        const auto t2 = Clock::now();
        out.prepare_ms.push_back(Ms(t0, t1));
        out.train_step_ms.push_back(Ms(t1, t2));
        out.step_ms.push_back(Ms(t0, t2));
        out.losses.push_back(loss);
        step_end_s.push_back(SecondsSince(start));
    }
    const neo::comm::CommStats after = pg.Stats();
    out.comm_bytes += after.TotalBytes() - before.TotalBytes();
    out.comm_calls += after.calls - before.calls;
    for (size_t b = 0; b < kBlocksPerWindow && steps >= kBlocksPerWindow;
         b++) {
        const size_t begin = b * steps / kBlocksPerWindow;
        const size_t end = (b + 1) * steps / kBlocksPerWindow;
        const double begin_s = begin == 0 ? 0.0 : step_end_s[begin - 1];
        out.block_rates.push_back(
            static_cast<double>((end - begin) * kGlobalBatch) /
            (step_end_s[end - 1] - begin_s));
    }
}

float
Sigmoid(float logit)
{
    return 1.0f / (1.0f + std::exp(-logit));
}

void
CountSteps(const std::string& phase, const std::vector<double>& losses,
           Report& report)
{
    PhaseCount count;
    count.phase = phase;
    count.attempted = losses.size();
    for (double loss : losses) {
        (std::isfinite(loss) ? count.ok : count.not_ok)++;
    }
    report.Count(count);
}

}  // namespace

struct Training::Impl {
    Workload w;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    TrainOutcome out;

    std::vector<double> setup_s;
    std::vector<double> plan_ms;
    std::vector<RankTimes> timed = std::vector<RankTimes>(kRanks);
    std::vector<RankTimes> traced = std::vector<RankTimes>(kRanks);
    std::vector<neo::obs::StepBreakdown> breakdown =
        std::vector<neo::obs::StepBreakdown>(kRanks);
    std::vector<double> warm_losses;
    std::vector<double> loss_diffs;
    std::vector<double> logit_diffs;
    uint64_t repeat_mismatches = 0;
    uint64_t dropped_spans = 0;

    // Hand-off between the caller and the parked world.
    std::mutex mutex;
    std::condition_variable cv;
    /** The last set-up cut the snapshot (or the thread failed). */
    bool ready = false;
    int requested = 0;
    int completed = 0;
    /** No more windows; run the traced steps unless `aborted`. */
    bool finishing = false;
    bool aborted = false;
    /** The thread ended (after the world did). */
    bool done = false;
    std::exception_ptr error;
    std::thread thread;

    void Body();
    void RankMain(int rank, neo::comm::ProcessGroup& pg, Inputs& in,
                  bool last, Clock::time_point rep_start,
                  std::vector<float>& scores, Matrix& eval_logits,
                  std::vector<double>& rep_warm_losses);
    /** Wait under `lock` until `pred` holds or the thread failed. */
    template <typename Pred>
    void Await(std::unique_lock<std::mutex>& lock, Pred pred)
    {
        cv.wait(lock, [&] { return pred() || done; });
        if (error) {
            std::rethrow_exception(error);
        }
        NEO_REQUIRE(pred(), "training thread ended early");
    }
};

void
Training::Impl::RankMain(int rank, neo::comm::ProcessGroup& pg, Inputs& in,
                         bool last, Clock::time_point rep_start,
                         std::vector<float>& scores, Matrix& eval_logits,
                         std::vector<double>& rep_warm_losses)
{
    const size_t b_local = kGlobalBatch / kRanks;
    const size_t pool_local = kRequestPool / kRanks;
    DistributedDlrm trainer(w.model, in.plan, pg);
    const auto& local = in.local[rank];

    // Warm-up. The untrained forward and the first steps' losses are
    // checked against the single-process reference, which trains on the
    // same global batches.
    std::unique_ptr<neo::core::DlrmReference> reference;
    if (rank == 0) {
        reference = std::make_unique<neo::core::DlrmReference>(w.model);
    }
    Matrix logits;
    trainer.Predict(local[0], logits);
    for (size_t b = 0; b < b_local; b++) {
        eval_logits(rank * b_local + b, 0) = logits(b, 0);
    }
    pg.Barrier();
    if (rank == 0) {
        Matrix ref_logits;
        reference->Predict(in.global[0], ref_logits);
        logit_diffs.push_back(Matrix::MaxAbsDiff(eval_logits, ref_logits));
    }
    std::vector<double> warm_ms;
    auto warm_step = [&](size_t s) {
        const auto t0 = Clock::now();
        const double loss = trainer.TrainStep(local[s % local.size()]);
        warm_ms.push_back(Ms(t0, Clock::now()));
        if (rank == 0) {
            rep_warm_losses.push_back(loss);
        }
        return loss;
    };
    for (size_t s = 0; s < kReferenceSteps; s++) {
        const double loss = warm_step(s);
        if (rank == 0) {
            const double ref =
                reference->TrainStep(in.global[s % in.global.size()]);
            loss_diffs.push_back(std::fabs(loss - ref));
        }
    }
    reference.reset();
    for (size_t s = kReferenceSteps; s < kWarmupSteps; s++) {
        warm_step(s);
    }
    pg.Barrier();
    if (rank == 0) {
        setup_s.push_back(SecondsSince(rep_start));
    }
    if (!last) {
        return;
    }

    // Steps per window: the run's training seconds at the warm-up step
    // time, never fewer than the loss window needs.
    float steps_f = 0.0f;
    if (rank == 0) {
        const double step_ms =
            Median(std::vector<double>(warm_ms.end() - 3, warm_ms.end()));
        const double target =
            seconds * kTrainShare * 1e3 / std::max(step_ms, 1e-3) / kWindows;
        steps_f = static_cast<float>(std::max<double>(
            std::ceil(static_cast<double>(kLossWindowEnd) / kWindows),
            std::ceil(target)));
    }
    pg.Broadcast(&steps_f, 1, 0);
    const size_t steps = static_cast<size_t>(steps_f);
    size_t first = kWarmupSteps;

    // In-trainer reference scores of the request pool, then the serving
    // snapshot of the warmed-up model.
    Batch slice =
        Slice(in.request_pool, rank * pool_local, (rank + 1) * pool_local);
    trainer.Predict(slice, logits);
    for (size_t b = 0; b < pool_local; b++) {
        scores[rank * pool_local + b] = Sigmoid(logits(b, 0));
    }
    pg.Barrier();
    const auto cut_start = Clock::now();
    auto snapshot = neo::serve::SnapshotFromTrainer(trainer, in.plan, 1);
    if (rank == 0) {
        std::lock_guard<std::mutex> lock(mutex);
        out.cut_s = SecondsSince(cut_start);
        out.snapshot = std::move(snapshot);
        out.request_pool = in.request_pool;
        out.reference_scores = scores;
        ready = true;
        cv.notify_all();
    }

    // Timed windows, one per request.
    for (int window = 0;; window++) {
        {
            std::unique_lock<std::mutex> lock(mutex);
            cv.wait(lock, [&] { return requested > window || finishing; });
            if (requested <= window) {
                break;
            }
        }
        TimedSteps(trainer, pg, local, first, steps, false, timed[rank]);
        first += steps;
        pg.Barrier();
        if (rank == 0) {
            std::lock_guard<std::mutex> lock(mutex);
            completed = window + 1;
            cv.notify_all();
        }
    }
    bool traced_window = false;
    {
        std::lock_guard<std::mutex> lock(mutex);
        traced_window = trace && !aborted;
    }
    if (!traced_window) {
        return;
    }
    auto& tracer = neo::obs::Tracer::Get();
    pg.Barrier();
    if (rank == 0) {
        tracer.Clear();
        tracer.SetEnabled(true);
    }
    pg.Barrier();
    // One step's collectives, recorded for the comm replay.
    RankTimes recorded;
    pg.SetTrace(&out.step_collectives[rank]);
    TimedSteps(trainer, pg, local, first, 1, true, recorded);
    pg.SetTrace(nullptr);
    TimedSteps(trainer, pg, local, first + 1, steps, true, traced[rank]);
    pg.Barrier();
    if (rank == 0) {
        tracer.SetEnabled(false);
        const auto spans = tracer.Collect();
        dropped_spans = tracer.DroppedSpans();
        for (int r = 0; r < kRanks; r++) {
            breakdown[r] = neo::obs::StepBreakdown::FromSpans(spans, r);
        }
        tracer.Clear();
    }
    pg.Barrier();
}

void
Training::Impl::Body()
{
    try {
        out.step_collectives.resize(kRanks);
        for (int rep = 0; rep < kSetupRepeats; rep++) {
            const bool last = rep + 1 == kSetupRepeats;
            const auto rep_start = Clock::now();
            Inputs in = MakeInputs(w, seed, plan_ms);
            NEO_REQUIRE(in.plan.feasible, "infeasible plan: ", in.plan.note);
            std::vector<float> scores(kRequestPool);
            Matrix eval_logits(kGlobalBatch, 1);
            std::vector<double> rep_warm_losses;
            neo::comm::ThreadedWorld::Run(
                kRanks, [&](int rank, neo::comm::ProcessGroup& pg) {
                    RankMain(rank, pg, in, last, rep_start, scores,
                             eval_logits, rep_warm_losses);
                });
            // Every set-up trains the same model on the same batches, so
            // its warm-up losses must repeat bitwise.
            if (rep > 0 &&
                !std::equal(rep_warm_losses.begin(), rep_warm_losses.end(),
                            warm_losses.begin())) {
                repeat_mismatches++;
            }
            warm_losses.insert(warm_losses.end(), rep_warm_losses.begin(),
                               rep_warm_losses.end());
            if (last) {
                out.batches = std::move(in.global);
            }
        }
        out.setup_s = Median(setup_s);
    } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        error = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mutex);
    done = true;
    cv.notify_all();
}

Training::Training(const Workload& w, uint64_t seed, double seconds,
                   bool trace)
    : impl_(std::make_unique<Impl>())
{
    impl_->w = w;
    impl_->seed = seed;
    impl_->seconds = seconds;
    impl_->trace = trace;
    impl_->thread = std::thread([impl = impl_.get()] { impl->Body(); });
    try {
        std::unique_lock<std::mutex> lock(impl_->mutex);
        impl_->Await(lock, [&] { return impl_->ready; });
    } catch (...) {
        impl_->thread.join();  // the thread has ended: it set `done`
        throw;
    }
}

Training::~Training()
{
    if (impl_->thread.joinable()) {
        {
            std::lock_guard<std::mutex> lock(impl_->mutex);
            impl_->finishing = true;
            impl_->aborted = true;
            impl_->cv.notify_all();
        }
        impl_->thread.join();
    }
}

TrainOutcome&
Training::outcome()
{
    return impl_->out;
}

void
Training::RunWindow()
{
    std::unique_lock<std::mutex> lock(impl_->mutex);
    const int window = ++impl_->requested;
    impl_->cv.notify_all();
    impl_->Await(lock, [&] { return impl_->completed >= window; });
}

void
Training::Finish(Report& report)
{
    Impl& m = *impl_;
    {
        std::lock_guard<std::mutex> lock(m.mutex);
        m.finishing = true;
        m.cv.notify_all();
    }
    m.thread.join();
    if (m.error) {
        std::rethrow_exception(m.error);
    }

    // ---- checks ----
    CountSteps("train.warmup", m.warm_losses, report);
    {
        PhaseCount repeat;
        repeat.phase = "train.repeat";
        repeat.attempted = kSetupRepeats - 1;
        repeat.wrong = m.repeat_mismatches;
        repeat.ok = repeat.attempted - repeat.wrong;
        if (repeat.wrong > 0) {
            report.Fail("warm-up losses differ between identical set-ups");
        }
        report.Count(repeat);
    }
    CountSteps("train.timed", m.timed[0].losses, report);
    {
        PhaseCount ref;
        ref.phase = "train.reference";
        std::vector<double> diffs = m.loss_diffs;
        diffs.insert(diffs.end(), m.logit_diffs.begin(),
                     m.logit_diffs.end());
        ref.attempted = diffs.size();
        for (double d : diffs) {
            (d < kReferenceTolerance ? ref.ok : ref.wrong)++;
        }
        if (ref.wrong > 0) {
            report.Fail("training diverged from core::DlrmReference: max "
                        "loss diff " +
                        std::to_string(*std::max_element(
                            m.loss_diffs.begin(), m.loss_diffs.end())) +
                        ", max untrained logit diff " +
                        std::to_string(*std::max_element(
                            m.logit_diffs.begin(), m.logit_diffs.end())));
        }
        report.Count(ref);
    }
    for (int r = 0; r < kRanks; r++) {
        for (double loss : m.timed[r].losses) {
            if (!std::isfinite(loss)) {
                report.Fail("non-finite training loss on rank " +
                            std::to_string(r));
                break;
            }
        }
    }
    if (m.timed[0].losses != m.timed[1].losses) {
        report.Fail("ranks disagree on the global training loss");
    }
    if (m.out.snapshot == nullptr) {
        report.Fail("snapshot cut returned no snapshot");
    }

    // ---- end-to-end ----
    const RankTimes& t0 = m.timed[0];
    const size_t steps = t0.losses.size();
    report.Add("train.samples_per_s", "1/s", Median(t0.block_rates));
    std::string rates = "train block rates (samples/s, in order):";
    for (double rate : t0.block_rates) {
        rates += " " + std::to_string(static_cast<int>(rate));
    }
    report.Note(rates);
    report.Add("train.step_ms_p50", "ms", Pct(t0.step_ms, 50));
    double window = 0.0;
    for (size_t i = kLossWindowBegin; i < kLossWindowEnd; i++) {
        window += t0.losses[i];
    }
    report.Add("train.loss", "nats",
               window / static_cast<double>(kLossWindowEnd -
                                            kLossWindowBegin));

    // ---- per layer ----
    std::vector<double> prepare;
    std::vector<double> train_step;
    for (const auto& t : m.timed) {
        prepare.insert(prepare.end(), t.prepare_ms.begin(),
                       t.prepare_ms.end());
        train_step.insert(train_step.end(), t.train_step_ms.begin(),
                          t.train_step_ms.end());
    }
    report.Add("train.timed_steps", "count", static_cast<double>(steps));
    report.Add("train.step_ms_p99", "ms", Pct(t0.step_ms, 99));
    report.Add("core.prepare_ms", "ms", Pct(prepare, 50));
    report.Add("core.train_step_ms", "ms", Pct(train_step, 50));
    report.Add("comm.bytes_per_step", "B",
               static_cast<double>(t0.comm_bytes) /
                   static_cast<double>(steps));
    report.Add("comm.calls_per_step", "count",
               static_cast<double>(t0.comm_calls) /
                   static_cast<double>(steps));
    report.Add("sharding.plan_ms", "ms", Median(m.plan_ms));
    report.Add("serve.setup_cut_s", "s", m.out.cut_s);
    report.Add("train.setup_s", "s", m.out.setup_s);

    if (m.trace) {
        const RankTimes& tr = m.traced[0];
        // Both rates are medians of blocks of one window's length.
        report.Add("obs.trace_overhead_frac", "fraction",
                   Median(t0.block_rates) / Median(tr.block_rates) - 1.0);
        neo::obs::BreakdownCategories mean;
        double coverage = 1.0;
        double emb_max = 0.0;
        double emb_sum = 0.0;
        for (const auto& b : m.breakdown) {
            const auto& c = b.categories;
            mean.data += c.data / kRanks;
            mean.emb_fwd += c.emb_fwd / kRanks;
            mean.emb_bwd += c.emb_bwd / kRanks;
            mean.mlp_fwd += c.mlp_fwd / kRanks;
            mean.mlp_bwd += c.mlp_bwd / kRanks;
            mean.alltoall += c.alltoall / kRanks;
            mean.allreduce += c.allreduce / kRanks;
            mean.comm_other += c.comm_other / kRanks;
            mean.optimizer += c.optimizer / kRanks;
            mean.other += c.other / kRanks;
            coverage = std::min(coverage, b.Coverage());
            emb_max = std::max(emb_max, c.emb_fwd + c.emb_bwd);
            emb_sum += c.emb_fwd + c.emb_bwd;
        }
        const auto& first = m.breakdown[0];
        report.Add("obs.breakdown_coverage", "fraction", coverage);
        report.Add("obs.traced_steps", "count",
                   static_cast<double>(first.steps));
        report.Add("obs.dropped_spans", "count",
                   static_cast<double>(m.dropped_spans));
        report.Add("obs.step_ms", "ms", first.step_seconds * 1e3);
        report.Add("core.data_ms", "ms", mean.data * 1e3);
        report.Add("ops.emb_fwd_ms", "ms", mean.emb_fwd * 1e3);
        report.Add("ops.emb_bwd_ms", "ms", mean.emb_bwd * 1e3);
        report.Add("tensor.mlp_fwd_ms", "ms", mean.mlp_fwd * 1e3);
        report.Add("tensor.mlp_bwd_ms", "ms", mean.mlp_bwd * 1e3);
        report.Add("comm.alltoall_ms", "ms", mean.alltoall * 1e3);
        report.Add("comm.allreduce_ms", "ms", mean.allreduce * 1e3);
        report.Add("comm.other_ms", "ms", mean.comm_other * 1e3);
        report.Add("tensor.optimizer_ms", "ms", mean.optimizer * 1e3);
        report.Add("obs.other_ms", "ms", mean.other * 1e3);
        report.Add("sharding.emb_imbalance", "ratio",
                   emb_sum > 0.0 ? emb_max / (emb_sum / kRanks) : 1.0);
        CountSteps("train.traced", tr.losses, report);
        if (first.steps == 0) {
            report.Fail("traced run recorded no step spans");
        }
    }
}

}  // namespace perfbench
