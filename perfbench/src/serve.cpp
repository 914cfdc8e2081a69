/**
 * @file
 * Serving phase: open-loop Poisson traffic from one generator thread into a
 * serve::FleetRouter over kReplicas ReplicaHosts (each a kRanks-rank
 * world) serving the snapshot the training phase cut. Fixed offered
 * rates are sent in kWindows pieces, between the training windows: each
 * piece sends part of a low and a high rung, then climbs through the knee
 * on a fixed rate grid. Each request's latency runs from its due time
 * (generator lateness plus Response::total_seconds), and every score is
 * compared bitwise with the in-trainer reference.
 */
#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <mutex>
#include <thread>

#include "bench.h"
#include "common/parallel_for.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "serve/router.h"
#include "serve/server.h"

namespace perfbench {

namespace {

namespace serve = neo::serve;

/** Batcher flush deadline (BatcherOptions::max_delay_us). */
constexpr int64_t kMaxDelayUs = 250;
/** Latency limit on a rung's p99. */
constexpr double kP99LimitMs = 50.0;
/** Shares of the serving time: the low and high rungs get most of it,
 *  since their percentiles are the reported latencies, split evenly over
 *  the kWindows pieces; each climbing rung gets kClimbShare. */
constexpr double kLowShare = 0.15;
constexpr double kHighShare = 0.2;
constexpr double kClimbShare = 0.025;
/** Rate ratio between consecutive rungs of one climb. Each serving piece
 *  climbs through the knee once, and serve.qps_at_slo is the median of
 *  the kWindows climbs. Climb k starts k / kWindows of a step higher, so
 *  together the climbs sample the rates kWindows times as finely as one
 *  climb. */
constexpr double kClimbRatio = 1.08;

/** Fleet set-ups per run; the median is reported. */
constexpr int kFleetRepeats = 3;
/** Share of the run's seconds spent on the timed rate ladder. */
constexpr double kServeShare = 0.6;
/** Consecutive segments each rung's percentiles are taken over. */
constexpr size_t kSegments = 5;
/** A rung has a growing backlog when it completes less than this share
 *  of the rate it was sent at (completions over first-send to last
 *  completion, against sends over the sending window). */
constexpr double kMinThroughputShare = 0.95;
/** How often the completion thread collects finished responses. */
constexpr auto kCollectPeriod = std::chrono::milliseconds(1);

/** One replica fleet and its router; stops everything on destruction. */
class Fleet
{
  public:
    Fleet(const Workload& w, const neo::core::DlrmConfig& model)
    {
        for (int r = 0; r < kReplicas; r++) {
            serve::ServerOptions options;
            options.replica_id = r;
            options.batcher.max_batch = kMaxBatch;
            options.batcher.max_delay_us = kMaxDelayUs;
            // Admission never sheds: overload shows as latency.
            options.max_queue = 1 << 20;
            options.heartbeat = std::chrono::milliseconds(20);
            options.engine.ddr_threshold_bytes = w.ddr_threshold_bytes;
            hosts_.push_back(std::make_unique<serve::ReplicaHost>(
                model.num_dense, model.tables.size(), kRanks, options));
        }
        router_ = std::make_unique<serve::FleetRouter>();
        for (int r = 0; r < kReplicas; r++) {
            router_->AddReplica("replica" + std::to_string(r),
                                &hosts_[r]->server(), &hosts_[r]->world());
        }
    }

    ~Fleet()
    {
        router_->Stop();
        for (auto& host : hosts_) {
            host->Stop();
        }
    }

    Fleet(const Fleet&) = delete;
    Fleet& operator=(const Fleet&) = delete;

    serve::FleetRouter& router() { return *router_; }

  private:
    std::vector<std::unique_ptr<serve::ReplicaHost>> hosts_;
    std::unique_ptr<serve::FleetRouter> router_;
};

/** Requests built once from the pool; each send copies one. */
std::vector<serve::Request>
Templates(const neo::data::Batch& pool)
{
    std::vector<serve::Request> templates(pool.size());
    for (size_t i = 0; i < pool.size(); i++) {
        templates[i].dense.assign(pool.dense.Row(i),
                                  pool.dense.Row(i) + pool.dense.cols());
        templates[i].sparse = pool.sparse.SliceBatch(i, i + 1);
    }
    return templates;
}

/** Poisson due times (seconds from rung start) over `seconds`. */
std::vector<double>
Arrivals(double qps, double seconds, uint64_t seed)
{
    neo::Rng rng(seed);
    std::vector<double> due;
    double t = 0.0;
    while (true) {
        t += -std::log(1.0 - rng.NextDouble()) / qps;
        if (t >= seconds) {
            return due;
        }
        due.push_back(t);
    }
}

struct RungResult {
    PhaseCount count;
    std::vector<double> latency_ms;
    std::vector<double> queue_ms;
    std::vector<double> exec_ms;
    std::vector<double> late_ms;
    std::vector<double> submit_us;
    /** Segment-median percentiles of latency_ms. */
    double p50_ms = 0.0;
    double p90_ms = 0.0;
    double p99_ms = 0.0;
    uint64_t within_limit = 0;
    double inflight_at_end = 0.0;
    /** Percentiles of each of the kSegments consecutive segments, in
     *  order. */
    std::vector<double> segment_p50;
    std::vector<double> segment_p90;
    std::vector<double> segment_p99;
    double sent_qps = 0.0;
    double achieved_qps = 0.0;
    bool passed = false;
};

/** A sent request awaiting its response. */
struct InFlight {
    size_t sample = 0;
    double late_s = 0.0;
    serve::Ticket ticket;
};

/** Account one completed request and check its score. */
void
Collect(InFlight& f, const std::vector<float>& reference, RungResult& result)
{
    result.count.attempted++;
    if (f.ticket.admission != serve::Admission::kAccepted) {
        result.count.shed++;
        return;
    }
    const serve::Response response = f.ticket.response.get();
    if (response.status != serve::ResponseStatus::kOk) {
        result.count.not_ok++;
        return;
    }
    if (response.score != reference[f.sample]) {
        result.count.wrong++;
        return;
    }
    result.count.ok++;
    const double latency = (f.late_s + response.total_seconds) * 1e3;
    result.latency_ms.push_back(latency);
    result.queue_ms.push_back(response.queue_seconds * 1e3);
    result.exec_ms.push_back(
        (response.total_seconds - response.queue_seconds) * 1e3);
    if (latency <= kP99LimitMs) {
        result.within_limit++;
    }
}

/**
 * Drive one rung: the generator thread sleeps until each due time and
 * submits; the completion thread collects responses in send order and
 * checks each score. Returns once every sent request has completed.
 */
RungResult
RunRung(serve::FleetRouter& router,
        const std::vector<serve::Request>& templates,
        const std::vector<float>& reference, const std::vector<double>& due,
        size_t& next_sample,
        const std::string& phase)
{
    RungResult result;
    result.count.phase = phase;
    const size_t n = due.size();
    result.late_ms.reserve(n);
    result.submit_us.reserve(n);
    result.latency_ms.reserve(n);

    std::mutex mutex;
    std::deque<InFlight> queue;
    bool sending_done = false;
    std::atomic<uint64_t> completed{0};
    const size_t first_sample = next_sample;
    next_sample += n;
    Clock::time_point last_completion;

    const auto start = Clock::now() + std::chrono::milliseconds(2);
    std::thread generator([&] {
        for (size_t i = 0; i < n; i++) {
            const auto at =
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(due[i]));
            std::this_thread::sleep_until(at);
            const auto now = Clock::now();
            InFlight f;
            f.sample = (first_sample + i) % templates.size();
            f.late_s = std::chrono::duration<double>(now - at).count();
            serve::Request request = templates[f.sample];
            request.id = first_sample + i;
            const auto t0 = Clock::now();
            f.ticket = router.Submit(std::move(request));
            result.submit_us.push_back(
                std::chrono::duration<double, std::micro>(Clock::now() - t0)
                    .count());
            result.late_ms.push_back(f.late_s * 1e3);
            std::lock_guard<std::mutex> lock(mutex);
            queue.push_back(std::move(f));
        }
        result.inflight_at_end =
            static_cast<double>(n) - static_cast<double>(completed.load());
        std::lock_guard<std::mutex> lock(mutex);
        sending_done = true;
    });

    // The collector polls instead of blocking on each response: latency
    // is stamped by the server, so polling only saves client wake-ups
    // that would compete with the serving ranks for cores.
    std::thread collector([&] {
        std::deque<InFlight> pending;
        for (;;) {
            {
                std::lock_guard<std::mutex> lock(mutex);
                while (!queue.empty()) {
                    pending.push_back(std::move(queue.front()));
                    queue.pop_front();
                }
                if (pending.empty() && sending_done) {
                    return;
                }
            }
            while (!pending.empty()) {
                InFlight& f = pending.front();
                if (f.ticket.admission == serve::Admission::kAccepted &&
                    f.ticket.response.wait_for(std::chrono::seconds(0)) !=
                        std::future_status::ready) {
                    break;
                }
                Collect(f, reference, result);
                last_completion = Clock::now();
                completed++;
                pending.pop_front();
            }
            std::this_thread::sleep_for(kCollectPeriod);
        }
    });
    generator.join();
    collector.join();

    if (!result.latency_ms.empty()) {
        // Percentiles are medians over consecutive segments, so a stall
        // confined to one or two segments does not move them.
        const size_t per = result.latency_ms.size() / kSegments;
        for (size_t s = 0; s < kSegments && per > 0; s++) {
            const std::vector<double> segment(
                result.latency_ms.begin() + s * per,
                result.latency_ms.begin() + (s + 1) * per);
            result.segment_p50.push_back(Pct(segment, 50));
            result.segment_p90.push_back(Pct(segment, 90));
            result.segment_p99.push_back(Pct(segment, 99));
        }
        result.p50_ms = Median(result.segment_p50);
        result.p90_ms = Median(result.segment_p90);
        result.p99_ms = Median(result.segment_p99);
        result.achieved_qps =
            static_cast<double>(result.count.ok) /
            std::chrono::duration<double>(last_completion - start).count();
        result.sent_qps = static_cast<double>(n) / due.back();
    }
    result.passed = result.count.failed() == 0 &&
                    !result.latency_ms.empty() &&
                    result.p99_ms <= kP99LimitMs &&
                    result.achieved_qps >=
                        kMinThroughputShare * result.sent_qps;
    return result;
}

/** Pieces of one rung sent at different times, pooled: counts and
 *  samples add up, and percentiles are medians over every piece's
 *  segments. */
RungResult
Pool(const std::vector<RungResult>& pieces)
{
    RungResult all;
    all.count.phase = pieces.front().count.phase;
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
        to.insert(to.end(), from.begin(), from.end());
    };
    for (const auto& piece : pieces) {
        all.count.attempted += piece.count.attempted;
        all.count.ok += piece.count.ok;
        all.count.shed += piece.count.shed;
        all.count.not_ok += piece.count.not_ok;
        all.count.wrong += piece.count.wrong;
        append(all.latency_ms, piece.latency_ms);
        append(all.queue_ms, piece.queue_ms);
        append(all.exec_ms, piece.exec_ms);
        append(all.late_ms, piece.late_ms);
        append(all.submit_us, piece.submit_us);
        append(all.segment_p50, piece.segment_p50);
        append(all.segment_p90, piece.segment_p90);
        append(all.segment_p99, piece.segment_p99);
    }
    all.p50_ms = Median(all.segment_p50);
    all.p90_ms = Median(all.segment_p90);
    all.p99_ms = Median(all.segment_p99);
    return all;
}

/** Offered rates of climb `k`, from the workload's first climbing rate
 *  up to its last. */
std::vector<double>
ClimbRates(const Workload& w, int k)
{
    std::vector<double> rates;
    for (double qps = w.climb_first_qps *
                      std::pow(kClimbRatio, static_cast<double>(k) / kWindows);
         qps <= w.climb_last_qps; qps *= kClimbRatio) {
        rates.push_back(std::round(qps));
    }
    return rates;
}

/** Count and sum of the server batch-size histogram, via the export. */
std::pair<uint64_t, double>
BatchSizeTotals()
{
    const auto snapshot = neo::obs::MetricsRegistry::Get().Export();
    for (const auto& [name, h] : snapshot.histograms) {
        if (name == "neo.serve.batch_size") {
            return {h.count, h.sum};
        }
    }
    return {0, 0.0};
}

}  // namespace

struct Serving::Impl {
    const Workload& w;
    const TrainOutcome& train;
    std::vector<serve::Request> templates;
    std::vector<double> low_due;
    std::vector<double> high_due;
    // climb_due[k][i]: arrivals of rung i of climb k.
    std::vector<std::vector<double>> climb_rates;
    std::vector<std::vector<std::vector<double>>> climb_due;
    std::unique_ptr<Fleet> fleet;
    double setup_s = 0.0;
    serve::FleetRouter::Totals before;
    size_t next_sample = 0;

    std::vector<RungResult> low;
    std::vector<RungResult> high;
    /** Every climbing rung, in order. */
    std::vector<RungResult> climbs;
    /** Result of each climb: the achieved rate of its last passing rung
     *  (the high rung's if none passed). */
    std::vector<double> climb_qps;
    uint64_t batches = 0;
    double batch_items = 0.0;

    Impl(const Workload& workload, const TrainOutcome& outcome)
        : w(workload), train(outcome)
    {
    }

    RungResult Send(const std::vector<double>& due, const std::string& what,
                    double qps)
    {
        return RunRung(fleet->router(), templates, train.reference_scores,
                       due, next_sample,
                       "serve." + what + "@" +
                           std::to_string(static_cast<int>(qps)));
    }
};

/** Intra-op pool size while serving. The replicas' rank threads already
 *  occupy every core, so requests run their intra-op loops inline rather
 *  than on the shared pool; the training windows in between get the
 *  default pool back. Swapped only while no request is in flight. */
class ServingPool
{
  public:
    ServingPool() { neo::SetDefaultPoolThreads(1); }
    ~ServingPool() { neo::SetDefaultPoolThreads(neo::DefaultParallelism()); }
    ServingPool(const ServingPool&) = delete;
    ServingPool& operator=(const ServingPool&) = delete;
};

Serving::Serving(const Workload& w, const TrainOutcome& train, uint64_t seed,
                 double seconds, Report& report)
    : impl_(std::make_unique<Impl>(w, train))
{
    Impl& m = *impl_;
    // ---- set-up: request templates, arrival schedules, fleet ----
    const auto setup_start = Clock::now();
    const ServingPool pool;
    m.templates = Templates(train.request_pool);
    const double piece_s = seconds * kServeShare / kWindows;
    uint64_t schedule_seed = seed * 1000003ull;
    m.low_due = Arrivals(w.low_qps, piece_s * kLowShare, ++schedule_seed);
    m.high_due = Arrivals(w.high_qps, piece_s * kHighShare, ++schedule_seed);
    m.climb_rates.resize(kWindows);
    m.climb_due.resize(kWindows);
    for (int k = 0; k < kWindows; k++) {
        m.climb_rates[k] = ClimbRates(w, k);
        for (double qps : m.climb_rates[k]) {
            m.climb_due[k].push_back(Arrivals(
                qps, seconds * kServeShare * kClimbShare, ++schedule_seed));
        }
    }
    // Warm-up: one pass over the request pool at the high rate.
    const std::vector<double> warm_due =
        Arrivals(w.high_qps,
                 static_cast<double>(m.templates.size()) / w.high_qps,
                 seed * 1000003ull);
    const double inputs_s = SecondsSince(setup_start);

    std::vector<double> fleet_s;
    for (int rep = 0; rep < kFleetRepeats; rep++) {
        m.fleet.reset();
        const auto t0 = Clock::now();
        m.fleet = std::make_unique<Fleet>(w, train.snapshot->config);
        const size_t serving = m.fleet->router().Publish(train.snapshot);
        if (serving != kReplicas) {
            report.Fail("snapshot published to " + std::to_string(serving) +
                        " of " + std::to_string(kReplicas) + " replicas");
        }
        m.next_sample = 0;
        const RungResult warm = m.Send(warm_due, "warmup", w.high_qps);
        report.Count(warm.count);
        fleet_s.push_back(SecondsSince(t0));
    }
    m.setup_s = inputs_s + Median(fleet_s);
    m.before = m.fleet->router().totals();
}

Serving::~Serving() = default;

void
Serving::RunPiece()
{
    Impl& m = *impl_;
    const ServingPool pool;
    const int k = static_cast<int>(m.low.size());
    const std::string piece = std::to_string(k);
    m.low.push_back(m.Send(m.low_due, "low" + piece, m.w.low_qps));
    const auto batch_before = BatchSizeTotals();
    m.high.push_back(m.Send(m.high_due, "high" + piece, m.w.high_qps));
    const auto batch_after = BatchSizeTotals();
    m.batches += batch_after.first - batch_before.first;
    m.batch_items += batch_after.second - batch_before.second;
    // The climb ends at its first failing rung.
    double best = m.high.back().passed ? m.high.back().achieved_qps : 0.0;
    for (size_t i = 0; i < m.climb_rates[k].size(); i++) {
        m.climbs.push_back(m.Send(m.climb_due[k][i], "climb" + piece,
                                  m.climb_rates[k][i]));
        if (!m.climbs.back().passed) {
            break;
        }
        best = m.climbs.back().achieved_qps;
    }
    m.climb_qps.push_back(best);
}

double
Serving::Finish(Report& report)
{
    Impl& m = *impl_;
    const serve::FleetRouter::Totals after = m.fleet->router().totals();
    m.fleet.reset();
    std::vector<const RungResult*> rungs;
    for (const auto* group : {&m.low, &m.high, &m.climbs}) {
        for (const auto& rung : *group) {
            rungs.push_back(&rung);
        }
    }

    // ---- checks ----
    for (const RungResult* rung : rungs) {
        report.Count(rung->count);
        if (rung->count.failed() > 0) {
            report.Fail(rung->count.phase + ": " +
                        std::to_string(rung->count.failed()) +
                        " requests shed, failed or scored wrong");
        }
    }
    if (after.failovers != m.before.failovers ||
        after.retries != m.before.retries ||
        after.failed != m.before.failed) {
        report.Fail("router failed over or retried during the ladder");
    }

    // ---- end-to-end ----
    const RungResult low = Pool(m.low);
    const RungResult high = Pool(m.high);
    report.Add("serve.qps_at_slo", "1/s", Median(m.climb_qps));
    report.Add("serve.p50_ms.low", "ms", low.p50_ms);
    report.Add("serve.p90_ms.low", "ms", low.p90_ms);
    report.Add("serve.p99_ms.low", "ms", low.p99_ms);
    report.Add("serve.p50_ms.high", "ms", high.p50_ms);
    report.Add("serve.p90_ms.high", "ms", high.p90_ms);
    report.Add("serve.p99_ms.high", "ms", high.p99_ms);
    // Median over the pieces, so one piece sent during a slow spell of
    // the host does not decide it.
    std::vector<double> slo_fracs;
    for (const auto& piece : m.high) {
        slo_fracs.push_back(static_cast<double>(piece.within_limit) /
                            static_cast<double>(piece.count.attempted));
    }
    report.Add("serve.slo_frac", "fraction", Median(slo_fracs));

    // ---- per layer (high rung) ----
    report.Add("serve.samples.low", "count",
               static_cast<double>(low.latency_ms.size()));
    report.Add("serve.samples.high", "count",
               static_cast<double>(high.latency_ms.size()));
    report.Add("serve.rungs_passed", "count",
               static_cast<double>(std::count_if(
                   m.climbs.begin(), m.climbs.end(),
                   [](const RungResult& r) { return r.passed; })));
    for (size_t k = 0; k < m.climb_qps.size(); k++) {
        report.Add("serve.climb" + std::to_string(k) + "_qps", "1/s",
                   m.climb_qps[k]);
    }
    report.Add("serve.submit_us_p50", "us", Pct(high.submit_us, 50));
    report.Add("serve.queue_ms_p50", "ms", Pct(high.queue_ms, 50));
    report.Add("serve.queue_ms_p99", "ms", Pct(high.queue_ms, 99));
    report.Add("serve.exec_ms_p50", "ms", Pct(high.exec_ms, 50));
    report.Add("serve.gen_late_ms_p99", "ms", Pct(high.late_ms, 99));
    report.Add("serve.batch_size_mean", "count",
               m.batches > 0
                   ? m.batch_items / static_cast<double>(m.batches)
                   : 0.0);
    report.Add("serve.failovers", "count",
               static_cast<double>(after.failovers - m.before.failovers));
    report.Add("serve.retries", "count",
               static_cast<double>(after.retries - m.before.retries));
    report.Add("serve.setup_fleet_s", "s", m.setup_s);
    report.Add("serve.setup_snapshot_s", "s", m.train.cut_s + m.setup_s);
    for (const RungResult* rung : rungs) {
        char line[256];
        std::snprintf(line, sizeof(line),
                      "%s: %s; sent %.0f/s, achieved %.0f/s; p50 %.3f ms, "
                      "p99 %.3f ms over %zu samples (segment p99s",
                      rung->count.phase.c_str(),
                      rung->passed ? "pass" : "FAIL", rung->sent_qps,
                      rung->achieved_qps, rung->p50_ms, rung->p99_ms,
                      rung->latency_ms.size());
        std::string note = line;
        for (double p99 : rung->segment_p99) {
            std::snprintf(line, sizeof(line), " %.3f", p99);
            note += line;
        }
        std::snprintf(line, sizeof(line),
                      "); generator late p99 %.3f ms; %.0f in flight as "
                      "sending ended",
                      Pct(rung->late_ms, 99), rung->inflight_at_end);
        report.Note(note + line);
    }
    return m.setup_s;
}

}  // namespace perfbench
