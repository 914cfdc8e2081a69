/**
 * @file
 * Shared declarations of the repository benchmark (dlrm_bench): workload
 * definitions, the metric report, and the three phases a run goes through —
 * hybrid-parallel training, open-loop fleet serving, and single-layer
 * replays. Workload shapes, the serving rate ladder and the latency limit
 * are fixed here once and never derived per run; README.md in this
 * directory explains why each workload and metric was chosen.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "comm/process_group.h"
#include "core/dlrm_config.h"
#include "data/dataset.h"
#include "serve/snapshot.h"
#include "sharding/planner.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Ranks per training world and per serving replica. */
inline constexpr int kRanks = 2;
/** Serving replicas behind the FleetRouter. */
inline constexpr int kReplicas = 2;

/** Seconds elapsed since `since`. */
double SecondsSince(Clock::time_point since);

/** Global training batch (split evenly over the ranks). */
inline constexpr size_t kGlobalBatch = 1024;
/** Requests generated in set-up and replayed round-robin. */
inline constexpr size_t kRequestPool = 16384;
/** Server micro-batch cap (BatcherOptions::max_batch). */
inline constexpr size_t kMaxBatch = 32;

/** One benchmark workload: a model, its training inputs and its traffic. */
struct Workload {
    std::string name;
    neo::core::DlrmConfig model;
    /** Mean Poisson pooling of every sparse feature. */
    double pooling = 1.0;
    /** EngineOptions::ddr_threshold_bytes (0 = every shard direct). */
    size_t ddr_threshold_bytes = 0;
    /** Offered Poisson rates (requests/s) of the low and high rungs. */
    double low_qps = 0.0;
    double high_qps = 0.0;
    /** First and highest rate of each climb through the knee. */
    double climb_first_qps = 0.0;
    double climb_last_qps = 0.0;
};

/** Known workload names, in BENCHMARK.json order. */
std::vector<std::string> WorkloadNames();

/** Workload by name; throws std::invalid_argument if unknown. */
Workload MakeWorkload(const std::string& name);

/** Sample-stream config: the task (planted weights) is fixed, the
 *  sampled stream follows `stream_seed`. */
neo::data::DatasetConfig DataConfig(const Workload& w, uint64_t stream_seed);

/** Planner options for a kRanks-rank world at kGlobalBatch. */
neo::sharding::PlannerOptions TrainingPlannerOptions();

/** One phase's operation accounting. */
struct PhaseCount {
    std::string phase;
    uint64_t attempted = 0;
    uint64_t ok = 0;
    /** Refused at admission. */
    uint64_t shed = 0;
    /** Completed with a status other than kOk (or a non-finite loss). */
    uint64_t not_ok = 0;
    /** Completed but with a wrong result (score / reference mismatch). */
    uint64_t wrong = 0;

    uint64_t failed() const { return shed + not_ok + wrong; }
};

/** Named metrics plus per-phase accounting, rendered at the end. */
class Report
{
  public:
    void Add(const std::string& name, const std::string& unit, double value);
    /** Value of a metric added earlier (0 if absent). */
    double Value(const std::string& name) const;
    void Count(PhaseCount count) { phases_.push_back(std::move(count)); }
    /** A failed output check: the run is reported as not correct. */
    void Fail(const std::string& what);
    void Note(const std::string& line) { notes_.push_back(line); }

    bool correct() const { return failures_.empty(); }

    /** Human-readable metric table, phase table and notes (stdout). */
    void PrintTables() const;

    /** One-line JSON result carrying every metric; run.py keeps the ones
     *  BENCHMARK.json names for the run's mode. */
    std::string ResultJson() const;

  private:
    struct Metric {
        std::string name;
        std::string unit;
        double value;
    };
    std::vector<Metric> metrics_;
    std::vector<PhaseCount> phases_;
    std::vector<std::string> failures_;
    std::vector<std::string> notes_;
};

/** Median of a sample (0 for an empty one). */
double Median(std::vector<double> values);

/** Percentile `p` in [0, 100] of a sample (0 for an empty one). */
double Pct(const std::vector<double>& values, double p);

/** Everything set up or measured by the training phase that later phases
 *  consume. */
struct TrainOutcome {
    /** Median set-up seconds over the repeated training set-ups. */
    double setup_s = 0.0;
    /** Snapshot-cut seconds. */
    double cut_s = 0.0;
    /** Training global batches (reused by the layer replays). */
    std::vector<neo::data::Batch> batches;
    /** Frozen model for serving and its in-trainer reference scores. */
    std::shared_ptr<const neo::serve::ModelSnapshot> snapshot;
    neo::data::Batch request_pool;
    std::vector<float> reference_scores;
    /** Collectives of one step on each rank, for the comm replay. */
    std::vector<std::vector<neo::comm::TraceEvent>> step_collectives;
};

/** Timed training windows per run. Each is followed by one serving
 *  piece, so both phases sample the whole run rather than one stretch of
 *  it: a slow spell of the host then moves a minority of the samples
 *  behind each median, not all of them. */
inline constexpr int kWindows = 3;

/**
 * The training phase on a thread of its own. Construction runs the
 * repeated set-ups, the warm-up and the snapshot cut, and returns with the
 * training world parked; RunWindow() runs one timed window of steps;
 * Finish() runs the traced steps (if tracing), ends the world and reports.
 */
class Training
{
  public:
    Training(const Workload& w, uint64_t seed, double seconds, bool trace);
    /** Ends the world (without traced steps) if Finish() was not run. */
    ~Training();
    Training(const Training&) = delete;
    Training& operator=(const Training&) = delete;

    /** Set-up results; `batches` and `step_collectives` are filled by
     *  Finish(). */
    TrainOutcome& outcome();

    /** Run the next timed window on every rank and wait for it. */
    void RunWindow();

    /** Run the traced steps, end the world, check and report. */
    void Finish(Report& report);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * The serving phase. Construction builds the request templates, the
 * arrival schedules and the fleet (repeated; the median is reported);
 * RunPiece() sends one piece of the low and high rungs and one climb
 * through the knee; Finish() stops the fleet, checks and reports, and
 * returns the serving set-up seconds.
 */
class Serving
{
  public:
    Serving(const Workload& w, const TrainOutcome& train, uint64_t seed,
            double seconds, Report& report);
    ~Serving();
    Serving(const Serving&) = delete;
    Serving& operator=(const Serving&) = delete;

    void RunPiece();
    double Finish(Report& report);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/** Replay single layers at the workload's shapes (traced runs only).
 *  Releases `train.snapshot` once the cache replay no longer needs it. */
void RunReplays(const Workload& w, TrainOutcome& train, Report& report);

}  // namespace perfbench
