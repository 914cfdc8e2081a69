/**
 * @file
 * Tests for the fleet telemetry plane: flight-recorder ring semantics and
 * post-mortem bundles (including the FaultInjector-killed-rank contract),
 * straggler detection from both barrier-arrival lateness and harvested
 * breakdown skew, the harvest wire format, cross-rank harvest equality
 * (root's view matches each rank's locally computed StepBreakdown), live
 * exposition, and MetricsRegistry export/Reset atomicity under threads.
 *
 * TelemetryArtifacts.MergedTimelineBundleAndStragglerGauge doubles as the
 * CI artifact producer: run under NEO_TELEMETRY_DIR it leaves a merged
 * multi-rank Perfetto trace and a dead rank's flight bundle on disk for
 * scripts/trace_to_perfetto.py to validate (see tests/CMakeLists.txt).
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "comm/fault.h"
#include "comm/process_group.h"
#include "comm/threaded_process_group.h"
#include "obs/exposition.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/step_breakdown.h"
#include "obs/straggler.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace neo::obs {
namespace {

using std::chrono::milliseconds;

/** Fresh recorder state (default rings, no dump dir) for one test. */
class RecorderGuard
{
  public:
    explicit RecorderGuard(const RecorderOptions& options = RecorderOptions())
    {
        FlightRecorder::Get().Configure(options);
        FlightRecorder::Get().SetDirectory("");
        FlightRecorder::Get().SetEnabled(true);
    }

    ~RecorderGuard()
    {
        FlightRecorder::Get().Configure(RecorderOptions());
        FlightRecorder::Get().SetDirectory("");
    }
};

/** Enables tracing for one test and restores a clean tracer after. */
class TraceGuard
{
  public:
    TraceGuard()
    {
        Tracer::Get().Clear();
        Tracer::Get().SetEnabled(true);
    }

    ~TraceGuard()
    {
        Tracer::Get().SetEnabled(false);
        Tracer::Get().Clear();
    }
};

/** Unique empty scratch directory under the system temp dir. */
std::filesystem::path
FreshDir(const std::string& name)
{
    const auto dir = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

std::string
ReadFile(const std::filesystem::path& path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

// ---------------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------------

TEST(FlightRecorder, RingKeepsLastEntriesOldestFirst)
{
    RecorderOptions options;
    options.op_ring = 4;
    RecorderGuard guard(options);
    auto& recorder = FlightRecorder::Get();

    static const char* const kNames[] = {"op0", "op1", "op2",
                                         "op3", "op4", "op5"};
    for (int i = 0; i < 6; i++) {
        recorder.RecordOp(0, kNames[i], i);
    }

    const auto ops = recorder.RecentOps(0);
    ASSERT_EQ(ops.size(), 4u);
    EXPECT_STREQ(ops.front().name, "op2");
    EXPECT_STREQ(ops.back().name, "op5");
    for (size_t i = 0; i + 1 < ops.size(); i++) {
        EXPECT_LT(ops[i].t_ns, ops[i + 1].t_ns);
    }
    EXPECT_TRUE(recorder.RecentOps(1).empty());
}

TEST(FlightRecorder, DisabledRecordsNothingAndDumpsNothing)
{
    RecorderGuard guard;
    auto& recorder = FlightRecorder::Get();
    recorder.SetEnabled(false);
    recorder.RecordOp(0, "allreduce", 1);
    recorder.RecordStep(0, 0, 0.1, 0.5);
    recorder.RecordEvent(0, "abort", "x");
    EXPECT_EQ(recorder.DumpBundle(0, "x"), "");
    recorder.SetEnabled(true);
    EXPECT_TRUE(recorder.RecentOps(0).empty());
    EXPECT_TRUE(recorder.RecentSteps(0).empty());
    EXPECT_TRUE(recorder.RecentEvents(0).empty());
}

TEST(FlightRecorder, BundleJsonCarriesHeaderRingsAndLastOp)
{
    RecorderGuard guard;
    auto& recorder = FlightRecorder::Get();
    recorder.RecordOp(2, "allreduce", 100);
    recorder.RecordOp(2, "alltoall", 200);
    recorder.RecordStep(2, 7, 0.125, 0.5);
    recorder.RecordEvent(2, "abort", "she said \"stop\"");

    const std::string json = recorder.BundleJson(2, "test cause");
    EXPECT_NE(json.find("\"neo_flight_recorder\":1"), std::string::npos);
    EXPECT_NE(json.find("\"rank\":2"), std::string::npos);
    EXPECT_NE(json.find("\"cause\":\"test cause\""), std::string::npos);
    EXPECT_NE(json.find("\"last_op\":\"alltoall\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"allreduce\""), std::string::npos);
    EXPECT_NE(json.find("\"step\":7"), std::string::npos);
    EXPECT_NE(json.find("\"kind\":\"abort\""), std::string::npos);
    // Quotes inside event details must be escaped, not truncate the JSON.
    EXPECT_NE(json.find("she said \\\"stop\\\""), std::string::npos);
    EXPECT_NE(json.find("\"metrics\":{"), std::string::npos);
}

TEST(FlightRecorder, DumpBundleNeedsADirectory)
{
    RecorderGuard guard;
    auto& recorder = FlightRecorder::Get();
    recorder.RecordOp(0, "barrier", 1);

    if (std::getenv("NEO_TELEMETRY_DIR") == nullptr) {
        EXPECT_EQ(recorder.DumpBundle(0, "no dir"), "");
    }

    const auto dir = FreshDir("neo_test_flight_dump");
    recorder.SetDirectory(dir.string());
    const std::string path = recorder.DumpBundle(0, "with dir");
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path, (dir / "flight_rank0.json").string());
    const std::string json = ReadFile(path);
    EXPECT_NE(json.find("\"neo_flight_recorder\":1"), std::string::npos);
    EXPECT_NE(json.find("\"cause\":\"with dir\""), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(FlightRecorder, MetricsDeltaTracksCounterIncrements)
{
    RecorderGuard guard;
    auto& recorder = FlightRecorder::Get();
    auto& counter =
        MetricsRegistry::Get().GetCounter("neo.test.flight_delta");

    counter.Add(5);
    recorder.RecordMetricsDelta(9);  // baseline capture: delta 5 from zero
    counter.Add(3);
    recorder.RecordMetricsDelta(9);  // second capture: delta 3

    const std::string json = recorder.BundleJson(9, "deltas");
    EXPECT_NE(json.find("\"neo.test.flight_delta\":5"), std::string::npos);
    EXPECT_NE(json.find("\"neo.test.flight_delta\":3"), std::string::npos);
}

TEST(FlightRecorder, KilledRankLeavesCompleteBundle)
{
    RecorderGuard guard;
    const auto dir = FreshDir("neo_test_flight_kill");
    auto& recorder = FlightRecorder::Get();
    recorder.SetDirectory(dir.string());

    comm::FaultInjector injector;
    comm::FaultSpec kill;
    kill.rank = 2;
    kill.match_op = true;
    kill.op = comm::CollectiveOp::kAllReduce;
    kill.call_index = 1;  // rank 2's second AllReduce
    kill.kind = comm::FaultKind::kKill;
    kill.transient = true;
    injector.Arm(kill);

    comm::ThreadedWorld::Options options;
    options.injector = &injector;
    options.barrier_timeout = milliseconds(20000);
    EXPECT_THROW(
        comm::ThreadedWorld::Run(
            4, options,
            [&](int rank, comm::ProcessGroup& pg) {
                std::vector<float> buf(32, static_cast<float>(rank));
                for (int i = 0; i < 3; i++) {
                    pg.AllReduceSum(buf.data(), buf.size());
                }
            }),
        comm::RankFailure);

    // The dead rank's op ring must end at the kill site: RecordOp runs
    // before fault injection can fire.
    const auto ops = recorder.RecentOps(2);
    ASSERT_FALSE(ops.empty());
    EXPECT_STREQ(ops.back().name, "allreduce");

    // The abort landed in the event ring with the injected cause...
    const auto events = recorder.RecentEvents(2);
    ASSERT_FALSE(events.empty());
    EXPECT_STREQ(events.back().kind, "abort");
    EXPECT_NE(events.back().detail.find("injected kill"), std::string::npos);

    // ...and the failure path dumped a complete bundle for the dead rank.
    const std::string json = ReadFile(dir / "flight_rank2.json");
    ASSERT_FALSE(json.empty());
    EXPECT_NE(json.find("\"neo_flight_recorder\":1"), std::string::npos);
    EXPECT_NE(json.find("\"rank\":2"), std::string::npos);
    EXPECT_NE(json.find("\"last_op\":\"allreduce\""), std::string::npos);
    EXPECT_NE(json.find("injected kill"), std::string::npos);
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// StragglerDetector
// ---------------------------------------------------------------------------

StepBreakdown
SyntheticBreakdown(double step_seconds, double comm_seconds)
{
    StepBreakdown b;
    b.step_seconds = step_seconds;
    b.steps = 1;
    b.categories.alltoall = comm_seconds;
    b.categories.mlp_fwd = (step_seconds - comm_seconds) * 0.7;
    b.categories.other = (step_seconds - comm_seconds) * 0.3;
    return b;
}

TEST(Straggler, FromBreakdownsFlagsNonCommOutlier)
{
    // Under BSP the fast ranks park the skew inside their comm buckets,
    // so equal step times with unequal comm time localize the straggler.
    std::vector<StepBreakdown> per_rank;
    per_rank.push_back(SyntheticBreakdown(0.100, 0.070));  // 30 ms work
    per_rank.push_back(SyntheticBreakdown(0.100, 0.070));
    per_rank.push_back(SyntheticBreakdown(0.100, 0.005));  // 95 ms work
    per_rank.push_back(SyntheticBreakdown(0.100, 0.070));

    const StragglerVerdict verdict =
        StragglerDetector::FromBreakdowns(per_rank);
    EXPECT_TRUE(verdict.flagged);
    EXPECT_EQ(verdict.rank, 2);
    EXPECT_GT(verdict.skew, 3.0);
    EXPECT_NE(verdict.Describe().find("rank 2"), std::string::npos);
}

TEST(Straggler, FromBreakdownsUniformWorldNotFlagged)
{
    std::vector<StepBreakdown> per_rank(
        4, SyntheticBreakdown(0.100, 0.070));
    const StragglerVerdict verdict =
        StragglerDetector::FromBreakdowns(per_rank);
    EXPECT_FALSE(verdict.flagged);
    EXPECT_EQ(verdict.rank, -1);
    EXPECT_EQ(verdict.Describe(), "");
}

TEST(Straggler, ArrivalLatenessAnalyzePublishesGauges)
{
    auto& detector = StragglerDetector::Get();
    detector.Configure(StragglerOptions());
    for (int i = 0; i < 3; i++) {
        detector.RecordArrival(0, 1e-5);
        detector.RecordArrival(1, 2e-5);
        detector.RecordArrival(2, 1e-5);
        detector.RecordArrival(3, 0.05);  // consistently 50 ms late
    }

    const StragglerVerdict verdict = detector.Analyze();
    EXPECT_TRUE(verdict.flagged);
    EXPECT_EQ(verdict.rank, 3);
    EXPECT_NEAR(detector.ArrivalEwma(3), 0.05, 1e-9);

    const RegistrySnapshot snap = MetricsRegistry::Get().Export();
    EXPECT_DOUBLE_EQ(snap.GaugeValue("neo.obs.straggler_rank"), 3.0);
    EXPECT_GT(snap.GaugeValue("neo.obs.straggler_skew"), 3.0);
    EXPECT_NE(detector.DescribeStraggler().find("rank 3"),
              std::string::npos);

    detector.Configure(StragglerOptions());
}

TEST(Straggler, QuietWorldClearsTheGauge)
{
    auto& detector = StragglerDetector::Get();
    detector.Configure(StragglerOptions());
    for (int r = 0; r < 4; r++) {
        detector.RecordArrival(r, 1e-5);
    }
    const StragglerVerdict verdict = detector.Analyze();
    EXPECT_FALSE(verdict.flagged);
    EXPECT_DOUBLE_EQ(
        MetricsRegistry::Get().Export().GaugeValue("neo.obs.straggler_rank"),
        -1.0);
    EXPECT_EQ(detector.DescribeStraggler(), "");
}

TEST(Straggler, DetectorNamesFaultInjectorDelayedRank)
{
    auto& detector = StragglerDetector::Get();
    detector.Configure(StragglerOptions());

    comm::FaultInjector injector;
    comm::FaultSpec delay;
    delay.rank = 2;
    delay.match_op = true;
    delay.op = comm::CollectiveOp::kAllReduce;
    delay.kind = comm::FaultKind::kDelay;
    delay.delay = milliseconds(20);
    for (uint64_t call = 0; call < 4; call++) {
        delay.call_index = call;
        injector.Arm(delay);
    }

    comm::ThreadedWorld::Options options;
    options.injector = &injector;
    options.barrier_timeout = milliseconds(20000);
    comm::ThreadedWorld world(4, options);
    std::vector<std::thread> threads;
    for (int r = 0; r < 4; r++) {
        threads.emplace_back([&world, r] {
            auto& pg = world.GetGroup(r);
            std::vector<float> buf(32, 1.0f);
            for (int i = 0; i < 5; i++) {
                pg.AllReduceSum(buf.data(), buf.size());
            }
        });
    }
    for (auto& t : threads) {
        t.join();
    }

    const StragglerVerdict verdict = world.AnalyzeStragglers();
    EXPECT_TRUE(verdict.flagged);
    EXPECT_EQ(verdict.rank, 2);
    EXPECT_NE(verdict.Describe().find("rank 2"), std::string::npos);
    EXPECT_DOUBLE_EQ(
        MetricsRegistry::Get().Export().GaugeValue("neo.obs.straggler_rank"),
        2.0);

    detector.Configure(StragglerOptions());
}

// ---------------------------------------------------------------------------
// Harvest wire format
// ---------------------------------------------------------------------------

RankTelemetry
SampleTelemetry()
{
    RankTelemetry t;
    t.rank = 3;
    t.clock_ns = 123456789;
    t.metrics.counters = {{"neo.a", 7}, {"neo.b", 42}};
    t.metrics.gauges = {{"neo.g", 1.5}};
    Histogram::Snapshot h;
    h.count = 10;
    h.sum = 5.0;
    h.mean = 0.5;
    h.min = 0.1;
    h.max = 0.9;
    h.p50 = 0.5;
    h.p95 = 0.85;
    h.p99 = 0.89;
    h.p999 = 0.899;
    h.samples_dropped = 2;
    h.approximate = true;
    t.metrics.histograms = {{"neo.h", h}};
    t.breakdown.step_seconds = 0.125;
    t.breakdown.steps = 4;
    t.breakdown.categories.mlp_fwd = 0.05;
    t.breakdown.categories.alltoall = 0.075;
    t.spans.push_back(HarvestedSpan{"train_step", "step", 100, 900, 3, 1, 0});
    t.spans.push_back(HarvestedSpan{"fwd", "mlp_fwd", 150, 200, 3, 1, 1});
    return t;
}

TEST(TelemetryWire, RoundTripPreservesEverything)
{
    const RankTelemetry t = SampleTelemetry();
    const RankTelemetry back =
        DeserializeRankTelemetry(SerializeRankTelemetry(t));

    EXPECT_EQ(back.rank, t.rank);
    EXPECT_EQ(back.clock_ns, t.clock_ns);
    ASSERT_EQ(back.metrics.counters.size(), 2u);
    EXPECT_EQ(back.metrics.CounterValue("neo.b"), 42u);
    EXPECT_DOUBLE_EQ(back.metrics.GaugeValue("neo.g"), 1.5);
    ASSERT_EQ(back.metrics.histograms.size(), 1u);
    const auto& h = back.metrics.histograms[0];
    EXPECT_EQ(h.first, "neo.h");
    EXPECT_EQ(h.second.count, 10u);
    EXPECT_DOUBLE_EQ(h.second.p999, 0.899);
    EXPECT_EQ(h.second.samples_dropped, 2u);
    EXPECT_TRUE(h.second.approximate);
    EXPECT_DOUBLE_EQ(back.breakdown.step_seconds, 0.125);
    EXPECT_EQ(back.breakdown.steps, 4);
    EXPECT_DOUBLE_EQ(back.breakdown.categories.alltoall, 0.075);
    ASSERT_EQ(back.spans.size(), 2u);
    EXPECT_EQ(back.spans[0].name, "train_step");
    EXPECT_EQ(back.spans[1].cat, "mlp_fwd");
    EXPECT_EQ(back.spans[1].depth, 1);
    EXPECT_EQ(back.spans[0].rank, 3);
}

TEST(TelemetryWire, RejectsCorruptMagicAndTruncation)
{
    const std::vector<uint8_t> bytes =
        SerializeRankTelemetry(SampleTelemetry());
    std::vector<uint8_t> corrupt = bytes;
    corrupt[0] ^= 0xff;
    EXPECT_THROW(DeserializeRankTelemetry(corrupt), std::runtime_error);

    std::vector<uint8_t> truncated(bytes.begin(),
                                   bytes.begin() +
                                       static_cast<ptrdiff_t>(bytes.size() / 2));
    EXPECT_THROW(DeserializeRankTelemetry(truncated), std::runtime_error);

    // Each section's u64 count, and a name's length prefix, comes straight
    // off the wire. A hostile value must fail as corrupt input before any
    // reserve() sized by it, not as std::length_error or std::bad_alloc.
    const RankTelemetry t = SampleTelemetry();
    size_t off = sizeof(uint32_t) * 2 + sizeof(int32_t) + sizeof(int64_t);
    const size_t counters_at = off;
    off += sizeof(uint64_t);
    for (const auto& [name, value] : t.metrics.counters) {
        off += sizeof(uint64_t) + name.size() + sizeof(value);
    }
    const size_t gauges_at = off;
    off += sizeof(uint64_t);
    for (const auto& [name, value] : t.metrics.gauges) {
        off += sizeof(uint64_t) + name.size() + sizeof(value);
    }
    const size_t histograms_at = off;
    off += sizeof(uint64_t);
    for (const auto& [name, snap] : t.metrics.histograms) {
        off += sizeof(uint64_t) + name.size() + sizeof(snap);
    }
    off += sizeof(BreakdownCategories) + sizeof(double) + sizeof(int32_t);
    const size_t spans_at = off;

    auto read_u64 = [&](size_t at) {
        uint64_t v = 0;
        std::memcpy(&v, bytes.data() + at, sizeof(v));
        return v;
    };
    // The offsets must land on the real counts, or the test proves nothing.
    ASSERT_EQ(read_u64(counters_at), t.metrics.counters.size());
    ASSERT_EQ(read_u64(gauges_at), t.metrics.gauges.size());
    ASSERT_EQ(read_u64(histograms_at), t.metrics.histograms.size());
    ASSERT_EQ(read_u64(spans_at), t.spans.size());
    // The first counter's name length prefix follows its section count.
    const size_t name_at = counters_at + sizeof(uint64_t);
    ASSERT_EQ(read_u64(name_at), t.metrics.counters[0].first.size());

    for (const size_t at :
         {counters_at, gauges_at, histograms_at, spans_at, name_at}) {
        for (const uint64_t hostile :
             {~uint64_t{0}, ~uint64_t{0} - at, uint64_t{1} << 40,
              uint64_t{1} << 33, uint64_t{bytes.size()}}) {
            std::vector<uint8_t> hostile_bytes = bytes;
            std::memcpy(hostile_bytes.data() + at, &hostile,
                        sizeof(hostile));
            EXPECT_THROW(DeserializeRankTelemetry(hostile_bytes),
                         std::runtime_error)
                << "count at offset " << at << " = " << hostile;
        }
    }
}

// ---------------------------------------------------------------------------
// Cross-rank harvest
// ---------------------------------------------------------------------------

void
BusySleep(milliseconds d)
{
    std::this_thread::sleep_for(d);
}

TEST(TelemetryHarvest, HarvestMatchesLocalBreakdowns)
{
    TraceGuard trace;
    const int world = 4;
    std::vector<StepBreakdown> local(world);
    FleetTelemetry fleet;

    comm::ThreadedWorld::Run(world, [&](int rank, comm::ProcessGroup& pg) {
        std::vector<float> buf(16, static_cast<float>(rank));
        for (int step = 0; step < 3; step++) {
            NEO_TRACE_SPAN("train_step", "step");
            {
                NEO_TRACE_SPAN("dense_fwd", "mlp_fwd");
                BusySleep(milliseconds(2));
            }
            {
                NEO_TRACE_SPAN("grad_allreduce", "allreduce");
                pg.AllReduceSum(buf.data(), buf.size());
            }
        }
        // What this rank would report about itself, computed before the
        // harvest: the harvest must agree exactly (binary serialization
        // round-trips doubles bit-for-bit, and the harvest's own
        // collectives are not nested inside any train_step span).
        local[rank] =
            StepBreakdown::FromSpans(Tracer::Get().Collect(), rank);

        FleetTelemetry view = HarvestTelemetry(pg);
        if (pg.Rank() == 0) {
            fleet = std::move(view);
        } else {
            EXPECT_TRUE(view.empty());
        }
    });

    ASSERT_EQ(fleet.ranks.size(), static_cast<size_t>(world));
    for (int r = 0; r < world; r++) {
        const RankTelemetry& t = fleet.ranks[static_cast<size_t>(r)];
        EXPECT_EQ(t.rank, r);
        // Harvested breakdown is bitwise identical to the rank's own.
        EXPECT_DOUBLE_EQ(t.breakdown.step_seconds, local[r].step_seconds);
        EXPECT_EQ(t.breakdown.steps, local[r].steps);
        EXPECT_DOUBLE_EQ(t.breakdown.categories.mlp_fwd,
                         local[r].categories.mlp_fwd);
        EXPECT_DOUBLE_EQ(t.breakdown.categories.allreduce,
                         local[r].categories.allreduce);
        EXPECT_DOUBLE_EQ(t.breakdown.categories.Total(),
                         local[r].categories.Total());
        // Exclusive-time buckets must account for the whole step.
        EXPECT_NEAR(t.breakdown.categories.Total(),
                    t.breakdown.step_seconds, 1e-9);
        EXPECT_EQ(t.breakdown.steps, 3);
        EXPECT_FALSE(t.spans.empty());
        // Threaded ranks share one clock, so offsets are bounded by one
        // barrier exit (the field exists for multi-process backends).
        if (r == 0) {
            EXPECT_EQ(t.clock_offset_ns, 0);
        } else {
            EXPECT_LT(std::abs(t.clock_offset_ns), int64_t{1000000000});
        }
    }

    // The merged timeline covers every rank (pid = rank + 1) and keeps
    // the Chrome schema the single-rank exporter uses.
    const std::string merged = fleet.MergedChromeJson();
    EXPECT_NE(merged.find("\"traceEvents\""), std::string::npos);
    for (int r = 0; r < world; r++) {
        const std::string pid = "\"pid\":" + std::to_string(r + 1);
        EXPECT_NE(merged.find(pid), std::string::npos) << "rank " << r;
    }
    EXPECT_NE(merged.find("process_name"), std::string::npos);
    EXPECT_NE(merged.find("train_step"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Exposition
// ---------------------------------------------------------------------------

TEST(Exposition, WriteOnceRendersPromAndJsonTwin)
{
    MetricsRegistry::Get().GetCounter("neo.test.expo_counter").Add(3);
    const auto dir = FreshDir("neo_test_exposition");

    const std::string path = SnapshotWriter::WriteOnce(dir.string());
    ASSERT_EQ(path, (dir / "metrics.prom").string());
    const std::string prom = ReadFile(path);
    EXPECT_NE(prom.find("# TYPE neo_test_expo_counter counter"),
              std::string::npos);
    EXPECT_NE(prom.find("neo_test_expo_counter"), std::string::npos);
    const std::string json = ReadFile(dir / "metrics.json");
    EXPECT_NE(json.find("\"neo.test.expo_counter\""), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(Exposition, PeriodicWriterStartsAndStops)
{
    const auto dir = FreshDir("neo_test_exposition_loop");
    SnapshotWriter writer;
    SnapshotWriter::Options options;
    options.directory = dir.string();
    options.period = milliseconds(5);
    options.basename = "live";
    ASSERT_TRUE(writer.Start(options));
    EXPECT_TRUE(writer.running());
    EXPECT_FALSE(writer.Start(options));  // already running
    std::this_thread::sleep_for(milliseconds(30));
    writer.Stop();
    EXPECT_FALSE(writer.running());
    EXPECT_TRUE(std::filesystem::exists(dir / "live.prom"));
    EXPECT_TRUE(std::filesystem::exists(dir / "live.json"));
    std::filesystem::remove_all(dir);
}

TEST(Exposition, InertWithoutADirectory)
{
    if (std::getenv("NEO_TELEMETRY_DIR") != nullptr) {
        GTEST_SKIP() << "NEO_TELEMETRY_DIR set; the writer is not inert";
    }
    SnapshotWriter writer;
    SnapshotWriter::Options options;
    EXPECT_FALSE(writer.Start(options));
    EXPECT_FALSE(writer.running());
}

// ---------------------------------------------------------------------------
// MetricsRegistry export/Reset atomicity (TSan coverage via tsan_telemetry)
// ---------------------------------------------------------------------------

TEST(Metrics, ConcurrentExportAndResetAreRaceFree)
{
    auto& registry = MetricsRegistry::Get();
    std::vector<std::thread> threads;
    // Writers hammer one instrument of each kind...
    for (int w = 0; w < 2; w++) {
        threads.emplace_back([&registry, w] {
            for (int i = 0; i < 2000; i++) {
                registry.GetCounter("neo.test.race_counter").Add();
                registry.GetGauge("neo.test.race_gauge")
                    .Set(static_cast<double>(i + w));
                registry.GetHistogram("neo.test.race_hist")
                    .Observe(static_cast<double>(i));
            }
        });
    }
    // ...one thread exports through every renderer...
    threads.emplace_back([&registry] {
        for (int i = 0; i < 50; i++) {
            const RegistrySnapshot snap = registry.Export();
            (void)MetricsRegistry::RenderJson(snap);
            (void)registry.ToPrometheus();
            (void)registry.ToCsv();
        }
    });
    // ...and one thread resets concurrently. The snapshot contract says a
    // Reset lands entirely before or after an export, never interleaved.
    threads.emplace_back([&registry] {
        for (int i = 0; i < 20; i++) {
            registry.Reset();
            std::this_thread::sleep_for(milliseconds(1));
        }
    });
    for (auto& t : threads) {
        t.join();
    }
    SUCCEED();
}

// ---------------------------------------------------------------------------
// End-to-end CI artifact: merged timeline + dead rank bundle + straggler
// ---------------------------------------------------------------------------

TEST(TelemetryArtifacts, MergedTimelineBundleAndStragglerGauge)
{
    namespace fs = std::filesystem;
    const char* env = std::getenv("NEO_TELEMETRY_DIR");
    const fs::path dir =
        env != nullptr ? fs::path(env)
                       : fs::temp_directory_path() / "neo_telemetry_artifacts";
    fs::create_directories(dir);

    RecorderGuard recorder_guard;
    TraceGuard trace;
    auto& recorder = FlightRecorder::Get();
    recorder.SetDirectory(dir.string());
    StragglerDetector::Get().Configure(StragglerOptions());

    comm::FaultInjector injector;
    comm::FaultSpec delay;
    delay.rank = 1;
    delay.match_op = true;
    delay.op = comm::CollectiveOp::kAllReduce;
    delay.kind = comm::FaultKind::kDelay;
    delay.delay = milliseconds(25);
    for (uint64_t call = 0; call < 3; call++) {
        delay.call_index = call;
        injector.Arm(delay);
    }
    comm::FaultSpec kill;
    kill.rank = 3;
    kill.match_op = true;
    kill.op = comm::CollectiveOp::kAllReduce;
    kill.call_index = 3;  // after the harvest: the 4th AllReduce
    kill.kind = comm::FaultKind::kKill;
    kill.transient = true;
    injector.Arm(kill);

    comm::ThreadedWorld::Options options;
    options.injector = &injector;
    options.barrier_timeout = milliseconds(20000);
    FleetTelemetry fleet;
    EXPECT_THROW(
        comm::ThreadedWorld::Run(
            4, options,
            [&](int rank, comm::ProcessGroup& pg) {
                std::vector<float> buf(64, static_cast<float>(rank));
                for (int step = 0; step < 3; step++) {
                    NEO_TRACE_SPAN("train_step", "step");
                    {
                        NEO_TRACE_SPAN("dense_fwd", "mlp_fwd");
                        BusySleep(milliseconds(2));
                    }
                    {
                        NEO_TRACE_SPAN("grad_allreduce", "allreduce");
                        pg.AllReduceSum(buf.data(), buf.size());
                    }
                }
                FleetTelemetry view = HarvestTelemetry(pg);
                if (pg.Rank() == 0) {
                    fleet = std::move(view);
                    EXPECT_TRUE(fleet.WriteMergedChromeJson(
                        (dir / "merged_trace.json").string()));
                }
                // One more step: rank 3 dies at the kill site.
                pg.AllReduceSum(buf.data(), buf.size());
            }),
        comm::RankFailure);

    // The merged multi-rank timeline was written before the failure.
    ASSERT_TRUE(fs::exists(dir / "merged_trace.json"));
    ASSERT_EQ(fleet.ranks.size(), 4u);

    // The arrival-lateness detector names the FaultInjector-delayed rank
    // and publishes it as a gauge.
    const StragglerVerdict verdict = StragglerDetector::Get().Analyze();
    EXPECT_TRUE(verdict.flagged);
    EXPECT_EQ(verdict.rank, 1);
    EXPECT_DOUBLE_EQ(
        MetricsRegistry::Get().Export().GaugeValue("neo.obs.straggler_rank"),
        1.0);

    // The dead rank's post-mortem bundle names the kill site.
    const std::string bundle = ReadFile(dir / "flight_rank3.json");
    ASSERT_FALSE(bundle.empty());
    EXPECT_NE(bundle.find("\"rank\":3"), std::string::npos);
    EXPECT_NE(bundle.find("\"last_op\":\"allreduce\""), std::string::npos);
    EXPECT_NE(bundle.find("injected kill"), std::string::npos);

    StragglerDetector::Get().Configure(StragglerOptions());
}

}  // namespace
}  // namespace neo::obs
