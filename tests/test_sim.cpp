/**
 * @file
 * Tests for the performance model: hardware presets, roofline behaviours,
 * collective calibration against the paper's measured points (7 GB/s
 * AllToAll, ~60 GB/s AllReduce at 256 MB on 128 GPUs), workload
 * synthesis fidelity to Table 3, the Eq. 1 iteration model's shape
 * properties (Table 4 / Figs. 11-13), and the F1 capacity math.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "obs/step_breakdown.h"
#include "sim/capacity_model.h"
#include "sim/comm_model.h"
#include "sim/embedding_model.h"
#include "sim/gemm_model.h"
#include "sim/hardware.h"
#include "sim/iteration_model.h"
#include "sim/plan_bridge.h"
#include "sim/workloads.h"

namespace neo::sim {
namespace {

// ------------------------------------------------------------- Hardware

TEST(Hardware, PresetsMatchPaperCalibration)
{
    const GpuSpec v100 = GpuSpec::V100();
    EXPECT_DOUBLE_EQ(v100.hbm_achievable, 850e9);   // Sec. 5.1
    EXPECT_DOUBLE_EQ(v100.gemm_efficiency, 0.786);  // Sec. 5.1
    const GpuSpec a100 = GpuSpec::A100();
    EXPECT_DOUBLE_EQ(a100.hbm_achievable, 1300e9);
    EXPECT_DOUBLE_EQ(a100.gemm_efficiency, 0.705);

    const NodeSpec node = NodeSpec::Hgx2Prototype();
    EXPECT_EQ(node.gpus_per_node, 8);
    EXPECT_DOUBLE_EQ(node.scaleout_peak, 12.5e9);       // 100 Gbps
    EXPECT_DOUBLE_EQ(node.scaleout_achievable, 10.5e9);

    const ClusterSpec cluster = ClusterSpec::Prototype(16);
    EXPECT_EQ(cluster.NumGpus(), 128);
    EXPECT_NEAR(cluster.TotalHbm(), 4e12, 0.1e12);  // "4TB aggregate HBM"
    EXPECT_NEAR(cluster.TotalDdr(), 24e12, 0.1e12); // "24TB DRAM"
}

TEST(Hardware, PrecisionPeaks)
{
    const GpuSpec v100 = GpuSpec::V100();
    EXPECT_DOUBLE_EQ(v100.PeakTflops(Precision::kFp32), 15.7);
    EXPECT_DOUBLE_EQ(v100.PeakTflops(Precision::kFp16), 125.0);
    // V100 has no TF32; model falls back to FP32 CUDA cores.
    EXPECT_DOUBLE_EQ(v100.PeakTflops(Precision::kTf32), 15.7);
    const GpuSpec a100 = GpuSpec::A100();
    EXPECT_DOUBLE_EQ(a100.PeakTflops(Precision::kTf32), 156.0);
    EXPECT_DOUBLE_EQ(a100.PeakTflops(Precision::kBf16), 312.0);
}

// ----------------------------------------------------------------- GEMM

TEST(GemmModel, AchievedNeverExceedsEfficiencyCap)
{
    const GemmModel model(GpuSpec::V100());
    for (int64_t size : {256, 1024, 4096}) {
        const GemmEstimate est =
            model.Estimate({size, size, size, Precision::kFp32});
        EXPECT_LE(est.achieved_tflops, 15.7 * 0.786 + 1e-9) << size;
        EXPECT_GT(est.achieved_tflops, 0.0);
    }
}

TEST(GemmModel, LargeGemmsApproachPeakEfficiency)
{
    const GemmModel model(GpuSpec::V100());
    const GemmEstimate big =
        model.Estimate({4096, 4096, 4096, Precision::kFp32});
    EXPECT_GT(big.achieved_tflops, 15.7 * 0.786 * 0.8);
}

TEST(GemmModel, AchievedRisesWithProblemSize)
{
    const GemmModel model(GpuSpec::A100());
    double prev = 0.0;
    for (int64_t size : {128, 256, 512, 1024, 2048, 4096}) {
        const GemmEstimate est =
            model.Estimate({size, size, size, Precision::kFp16});
        EXPECT_GE(est.achieved_tflops, prev) << size;
        prev = est.achieved_tflops;
    }
}

TEST(GemmModel, TensorCorePrecisionsFaster)
{
    const GemmModel model(GpuSpec::A100());
    const GemmShape shape{2048, 2048, 2048, Precision::kFp32};
    GemmShape tf32 = shape;
    tf32.precision = Precision::kTf32;
    GemmShape fp16 = shape;
    fp16.precision = Precision::kFp16;
    const double t_fp32 = model.Estimate(shape).seconds;
    const double t_tf32 = model.Estimate(tf32).seconds;
    const double t_fp16 = model.Estimate(fp16).seconds;
    EXPECT_LT(t_tf32, t_fp32);
    EXPECT_LT(t_fp16, t_tf32 * 1.01);
}

TEST(GemmModel, SkinnyGemmIsMemoryBound)
{
    const GemmModel model(GpuSpec::V100());
    const GemmEstimate est =
        model.Estimate({128, 1, 8192, Precision::kFp32});
    EXPECT_TRUE(est.memory_bound);
}

TEST(MlpModel, BackwardCostsTwiceForward)
{
    const MlpModel model(GpuSpec::V100());
    const MlpEstimate est = model.Estimate({1024, 2048, 20,
                                            Precision::kFp32});
    EXPECT_NEAR(est.backward_seconds / est.forward_seconds, 2.0, 0.3);
    EXPECT_GT(est.achieved_tflops, 1.0);
}

// ------------------------------------------------------------ Comm model

TEST(CommModel, AllToAllCalibrated)
{
    const CommModel model(ClusterSpec::Prototype(16));
    // Appendix A / Fig. 20: 7 GB/s per GPU at 256 MB on 128 GPUs.
    const CommEstimate est = model.AllToAll(256e6, 128);
    EXPECT_NEAR(est.bus_bandwidth, 7e9, 1.5e9);
}

TEST(CommModel, AllReduceCalibrated)
{
    const CommModel model(ClusterSpec::Prototype(16));
    // Appendix A / Fig. 20: ~60 GB/s bus bandwidth at 256 MB on 128 GPUs.
    const CommEstimate est = model.AllReduce(256e6, 128);
    EXPECT_NEAR(est.bus_bandwidth, 60e9, 15e9);
}

TEST(CommModel, AllReduceFasterThanAllToAllPerByte)
{
    // Sec. 5.1: AllReduce also rides NVLink, AllToAll is scale-out bound.
    const CommModel model(ClusterSpec::Prototype(16));
    EXPECT_GT(model.AllReduce(256e6, 128).bus_bandwidth,
              model.AllToAll(256e6, 128).bus_bandwidth * 3);
}

TEST(CommModel, SmallMessagesLatencyBound)
{
    const CommModel model(ClusterSpec::Prototype(16));
    const CommEstimate small = model.AllToAll(64e3, 128);
    const CommEstimate large = model.AllToAll(256e6, 128);
    EXPECT_LT(small.bus_bandwidth, large.bus_bandwidth / 10);
}

TEST(CommModel, BandwidthGrowsWithMessageSize)
{
    const CommModel model(ClusterSpec::Prototype(16));
    double prev = 0.0;
    for (double bytes = 1e4; bytes <= 1e9; bytes *= 10) {
        const double bw = model.AllToAll(bytes, 128).bus_bandwidth;
        EXPECT_GE(bw, prev);
        prev = bw;
    }
}

TEST(CommModel, SingleGpuIsFree)
{
    const CommModel model(ClusterSpec::Prototype(1));
    EXPECT_LT(model.AllReduce(1e6, 1).seconds, 1e-3);
    EXPECT_EQ(model.AllToAll(0.0, 8).seconds, 0.0);
}

TEST(CommModel, DefaultFaultModelIsTransparent)
{
    const CommModel clean(ClusterSpec::Prototype(16));
    CommModel faulty(ClusterSpec::Prototype(16));
    faulty.SetFaultModel(FaultModel{});  // all-zero rates: no effect
    for (double bytes : {1e4, 1e6, 1e8}) {
        EXPECT_EQ(clean.AllReduce(bytes, 128).seconds,
                  faulty.AllReduce(bytes, 128).seconds);
        EXPECT_EQ(clean.AllToAll(bytes, 128).seconds,
                  faulty.AllToAll(bytes, 128).seconds);
        EXPECT_EQ(clean.ReduceScatter(bytes, 128).seconds,
                  faulty.ReduceScatter(bytes, 128).seconds);
    }
}

TEST(CommModel, StragglerDelayIsPaidInFull)
{
    // BSP collectives finish at the slowest rank, so a straggler's delay
    // is added verbatim to every collective.
    const CommModel clean(ClusterSpec::Prototype(16));
    CommModel faulty(ClusterSpec::Prototype(16));
    FaultModel faults;
    faults.straggler_delay_s = 3e-3;
    faulty.SetFaultModel(faults);

    for (double bytes : {1e4, 1e6, 1e8}) {
        const double base = clean.AllToAll(bytes, 128).seconds;
        const double slow = faulty.AllToAll(bytes, 128).seconds;
        EXPECT_NEAR(slow - base, faults.straggler_delay_s, 1e-12);
        // Reported bandwidths are derived from the degraded time.
        EXPECT_LT(faulty.AllToAll(bytes, 128).bus_bandwidth,
                  clean.AllToAll(bytes, 128).bus_bandwidth);
    }
}

TEST(CommModel, FailureRateInflatesTimeMonotonically)
{
    CommModel model(ClusterSpec::Prototype(16));
    const double bytes = 64e6;
    double prev = model.AllReduce(bytes, 128).seconds;
    for (double rate : {0.01, 0.05, 0.2, 0.5}) {
        FaultModel faults;
        faults.failure_rate_per_collective = rate;
        model.SetFaultModel(faults);
        const double cur = model.AllReduce(bytes, 128).seconds;
        EXPECT_GT(cur, prev);
        prev = cur;
    }
    // Each expected abort pays at least the detection deadline, so even a
    // rare failure costs more than the raw retry fraction.
    FaultModel faults;
    faults.failure_rate_per_collective = 0.5;
    model.SetFaultModel(faults);
    const double clean = CommModel(ClusterSpec::Prototype(16))
                             .AllReduce(bytes, 128)
                             .seconds;
    // p = 0.5 → one expected aborted attempt: ≥ 2× the clean time plus
    // one detection + recovery charge.
    EXPECT_GE(model.AllReduce(bytes, 128).seconds,
              2.0 * clean + faults.detect_timeout_s +
                  faults.recovery_overhead_s);
}

TEST(CommModel, FreePathsIgnoreFaultModel)
{
    CommModel model(ClusterSpec::Prototype(16));
    FaultModel faults;
    faults.straggler_delay_s = 1.0;
    faults.failure_rate_per_collective = 0.5;
    model.SetFaultModel(faults);
    // Single-GPU and zero-byte collectives never hit the network, so the
    // reliability model does not apply.
    EXPECT_LT(model.AllReduce(1e6, 1).seconds, 1e-3);
    EXPECT_EQ(model.AllToAll(0.0, 8).seconds, 0.0);
}

// ------------------------------------------------------- Embedding model

TEST(EmbeddingModel, BandwidthSaturatesBelowAchievable)
{
    const EmbeddingModel model(GpuSpec::V100());
    EmbBenchShape shape;  // Appendix-A config
    double prev = 0.0;
    for (int64_t batch : {64, 256, 1024, 4096, 16384}) {
        shape.batch = batch;
        const EmbEstimate est = model.Forward(shape);
        EXPECT_GE(est.achieved_bandwidth, prev * 0.999);
        EXPECT_LE(est.achieved_bandwidth, 850e9);
        prev = est.achieved_bandwidth;
    }
    EXPECT_GT(prev, 400e9);  // large batches come close to the roof
}

TEST(EmbeddingModel, A100FasterThanV100)
{
    EmbBenchShape shape;
    shape.batch = 4096;
    const EmbEstimate v100 = EmbeddingModel(GpuSpec::V100()).Forward(shape);
    const EmbEstimate a100 = EmbeddingModel(GpuSpec::A100()).Forward(shape);
    EXPECT_GT(a100.achieved_bandwidth, v100.achieved_bandwidth * 1.2);
}

TEST(EmbeddingModel, BackwardMovesMoreBytesThanForward)
{
    const EmbeddingModel model(GpuSpec::V100());
    EmbBenchShape shape;
    shape.batch = 2048;
    EXPECT_GT(model.BackwardFused(shape).bytes_moved,
              model.Forward(shape).bytes_moved);
}

// -------------------------------------------------------------- Workloads

TEST(Workloads, Table3StatsReproduced)
{
    for (const auto& workload : WorkloadModel::All()) {
        const auto tables = workload.SynthesizeTables();
        EXPECT_EQ(static_cast<int>(tables.size()), workload.num_tables);
        double params = 0.0, dim_sum = 0.0, pool_sum = 0.0;
        for (const auto& t : tables) {
            params += static_cast<double>(t.rows) * t.dim;
            dim_sum += static_cast<double>(t.dim);
            pool_sum += t.pooling;
            EXPECT_GE(t.dim, workload.dim_min);
            EXPECT_LE(t.dim, workload.dim_max);
        }
        EXPECT_NEAR(params / workload.EmbeddingParams(), 1.0, 0.05)
            << workload.name;
        EXPECT_NEAR(dim_sum / tables.size() / workload.dim_avg, 1.0, 0.25)
            << workload.name;
        EXPECT_NEAR(pool_sum / tables.size() / workload.avg_pooling, 1.0,
                    0.35)
            << workload.name;
    }
}

TEST(Workloads, F1HasMassiveSingleDeviceBreakingTables)
{
    const auto tables = WorkloadModel::F1().SynthesizeTables();
    // Sec. 5.3.3: tables with ~10B rows that exceed one GPU (and node).
    int64_t max_rows = 0;
    for (const auto& t : tables) {
        max_rows = std::max(max_rows, t.rows);
    }
    EXPECT_GT(static_cast<double>(max_rows) * 256 * 4, 32e9);
}

// ------------------------------------------------------------ Plan bridge

TEST(PlanBridge, OptimizedShardingBalancesBetterThanBaseline)
{
    const ClusterSpec cluster = ClusterSpec::Prototype(16);
    PlanStudyOptions baseline;
    baseline.optimized_sharding = false;
    baseline.emb_precision = Precision::kFp16;  // fit comfortably
    PlanStudyOptions optimized = baseline;
    optimized.optimized_sharding = true;

    const auto workload = WorkloadModel::A2();
    const PlanStudyResult base = PlanForWorkload(workload, cluster,
                                                 baseline);
    const PlanStudyResult opt = PlanForWorkload(workload, cluster,
                                                optimized);
    ASSERT_TRUE(base.feasible);
    ASSERT_TRUE(opt.feasible);
    EXPECT_LE(opt.imbalance, base.imbalance + 1e-9);
}

TEST(PlanBridge, A2UsesMixedSchemes)
{
    // Sec. 5.3.2: A2's optimized plan mixes table-wise + column-wise +
    // data-parallel sharding.
    const ClusterSpec cluster = ClusterSpec::Prototype(16);
    PlanStudyOptions options;
    options.emb_precision = Precision::kFp16;
    const PlanStudyResult result =
        PlanForWorkload(WorkloadModel::A2(), cluster, options);
    ASSERT_TRUE(result.feasible);
    EXPECT_GT(result.scheme_counts.count(sharding::Scheme::kTableWise), 0u);
    EXPECT_GT(result.scheme_counts.count(sharding::Scheme::kDataParallel),
              0u);
}

// -------------------------------------------------------- IterationModel

TrainingSetup
MakeSetup(int gpus, int64_t per_gpu_batch = 512)
{
    TrainingSetup setup;
    setup.cluster = ClusterSpec::Prototype((gpus + 7) / 8);
    setup.num_gpus = gpus;
    setup.per_gpu_batch = per_gpu_batch;
    return setup;
}

TEST(IterationModel, QpsScalesWithGpusButSublinearly)
{
    const auto workload = WorkloadModel::A2();
    TrainingSetup s8 = MakeSetup(8);
    TrainingSetup s128 = MakeSetup(128);
    const double qps8 = IterationModel(workload, s8).Estimate().qps;
    const double qps128 = IterationModel(workload, s128).Estimate().qps;
    const double scaling = qps128 / qps8 / 16.0;  // relative to linear
    EXPECT_GT(qps128, qps8);
    // Fig. 11: ~50% scaling efficiency for A2 at 128 GPUs.
    EXPECT_GT(scaling, 0.25);
    EXPECT_LT(scaling, 0.85);
}

TEST(IterationModel, ExposedCommGrowsWithScale)
{
    const auto workload = WorkloadModel::A2();
    const IterationBreakdown bd8 =
        IterationModel(workload, MakeSetup(8)).Estimate();
    const IterationBreakdown bd128 =
        IterationModel(workload, MakeSetup(128)).Estimate();
    EXPECT_GT(bd128.exposed_comm, bd8.exposed_comm);
    // Fig. 12: exposed < serialized (overlap hides work).
    EXPECT_LT(bd128.total, bd128.SerializedSum());
}

TEST(IterationModel, AllReduceMostlyHiddenAt16Nodes)
{
    // Sec. 5.3.1: AllReduce is hidden by backward compute up to 16 nodes.
    const auto workload = WorkloadModel::A2();
    const IterationBreakdown bd =
        IterationModel(workload, MakeSetup(128)).Estimate();
    EXPECT_LT(bd.allreduce,
              bd.top_mlp_bwd + bd.interaction_bwd + bd.bot_mlp_bwd +
                  bd.grad_a2a_bwd + bd.emb_update);
}

TEST(IterationModel, QuantizedCommsImproveThroughput)
{
    const auto workload = WorkloadModel::A2();
    TrainingSetup fp32 = MakeSetup(128);
    fp32.imbalance = 1.3;
    TrainingSetup quant = fp32;
    quant.fwd_comm = Precision::kFp16;
    quant.bwd_comm = Precision::kBf16;
    const double qps_fp32 = IterationModel(workload, fp32).Estimate().qps;
    const double qps_quant = IterationModel(workload, quant).Estimate().qps;
    EXPECT_GT(qps_quant, qps_fp32 * 1.02);
}

TEST(IterationModel, LargerBatchImprovesQps)
{
    const auto workload = WorkloadModel::A2();
    const double qps_64k =
        IterationModel(workload, MakeSetup(128, 512)).Estimate().qps;
    const double qps_256k =
        IterationModel(workload, MakeSetup(128, 2048)).Estimate().qps;
    EXPECT_GT(qps_256k, qps_64k);
}

TEST(IterationModel, ImbalanceHurtsThroughput)
{
    const auto workload = WorkloadModel::A1();
    TrainingSetup balanced = MakeSetup(128);
    TrainingSetup skewed = MakeSetup(128);
    skewed.imbalance = 2.0;
    EXPECT_GT(IterationModel(workload, balanced).Estimate().qps,
              IterationModel(workload, skewed).Estimate().qps * 1.2);
}

TEST(IterationModel, A3SlowerThanA2SlowerThanA1)
{
    // Table 4 ordering at 128 GPUs: A1 1047K > A2 622K > A3 360K.
    const double a1 =
        IterationModel(WorkloadModel::A1(), MakeSetup(128)).Estimate().qps;
    const double a2 =
        IterationModel(WorkloadModel::A2(), MakeSetup(128)).Estimate().qps;
    const double a3 =
        IterationModel(WorkloadModel::A3(), MakeSetup(128)).Estimate().qps;
    EXPECT_GT(a1, a2);
    EXPECT_GT(a2, a3);
}

TEST(IterationModel, BlockingCheckpointWriteAddsToStepAndLandsInOther)
{
    // Eq. 1's checkpoint term: a differential-checkpoint write blocks the
    // step for exactly the fault model's calibrated write time, and the
    // measured-bucket mapping charges it to `other`.
    const auto workload = WorkloadModel::A1();
    FaultModel faults;
    faults.checkpoint_write_Bps = 2.0e9;
    const double bytes = 64.0 * 1024 * 1024;

    TrainingSetup plain = MakeSetup(128);
    TrainingSetup checkpointed = plain;
    checkpointed.checkpoint_bytes = bytes;
    IterationModel plain_model(workload, plain);
    IterationModel checkpointed_model(workload, checkpointed);
    plain_model.SetFaultModel(faults);
    checkpointed_model.SetFaultModel(faults);
    const IterationBreakdown without = plain_model.Estimate();
    const IterationBreakdown with = checkpointed_model.Estimate();

    const double write_s = faults.CheckpointWriteSeconds(bytes);
    ASSERT_GT(write_s, 0.0);
    EXPECT_EQ(without.checkpoint, 0.0);
    EXPECT_DOUBLE_EQ(with.checkpoint, write_s);
    EXPECT_DOUBLE_EQ(with.total, without.total + write_s);
    EXPECT_DOUBLE_EQ(with.t_fwd, without.t_fwd);
    EXPECT_DOUBLE_EQ(with.t_bwd, without.t_bwd);

    const obs::StepBreakdown measured_without =
        obs::StepBreakdown::FromModel(without);
    const obs::StepBreakdown measured_with =
        obs::StepBreakdown::FromModel(with);
    EXPECT_DOUBLE_EQ(measured_with.categories.other,
                     with.overhead + write_s);
    EXPECT_DOUBLE_EQ(measured_with.categories.other -
                         measured_without.categories.other,
                     write_s);
    EXPECT_DOUBLE_EQ(measured_with.step_seconds, with.total);
}

// --------------------------------------------------------- Capacity / PS

TEST(Capacity, F1NaiveIs96TB)
{
    const CapacityEstimate est = EstimateCapacity(
        WorkloadModel::F1(), ClusterSpec::Prototype(16), Precision::kFp32,
        /*rowwise_adagrad=*/false, 256.0);
    EXPECT_NEAR(est.naive_bytes, 96e12, 1e12);  // Sec. 5.3.3
    EXPECT_FALSE(est.fits_hbm_ddr);
}

TEST(Capacity, F1OptimizedFitsHbmPlusDdr)
{
    // FP16 + row-wise AdaGrad: 24 TB + ~0.19 TB state, fits 4+24 TB.
    const CapacityEstimate est = EstimateCapacity(
        WorkloadModel::F1(), ClusterSpec::Prototype(16), Precision::kFp16,
        /*rowwise_adagrad=*/true, 256.0);
    EXPECT_NEAR(est.optimized_bytes, 24e12, 1.5e12);
    EXPECT_FALSE(est.fits_hbm);
    EXPECT_TRUE(est.fits_hbm_ddr);
}

TEST(PsBaseline, SixteenGpuSpeedupIsAboutThreeX)
{
    // Sec. 5.3: A1 at 273K QPS on 16 GPUs ~ 3x the CPU PS system with
    // ~16 trainers. Check the modeled ratio lands in a sane band.
    const PsBaselineModel ps(WorkloadModel::A1());
    const double cpu_qps = ps.QpsAtTrainers(16);
    const double ratio = 273e3 / cpu_qps;
    EXPECT_GT(ratio, 1.5);
    EXPECT_LT(ratio, 6.0);
}

TEST(PsBaseline, QualityNeutralCeilingGivesTensOfXAt128Gpus)
{
    const PsBaselineModel ps(WorkloadModel::A1());
    const double ratio = 1047e3 / ps.MaxQualityNeutralQps();
    EXPECT_GT(ratio, 8.0);
    EXPECT_LT(ratio, 80.0);
}

TEST(PsBaseline, ScalingSaturates)
{
    const PsBaselineModel ps(WorkloadModel::A1());
    const double q16 = ps.QpsAtTrainers(16);
    const double q32 = ps.QpsAtTrainers(32);
    EXPECT_GT(q32, q16);          // still grows...
    EXPECT_LT(q32, q16 * 2.0);    // ...but sublinearly
}

}  // namespace
}  // namespace neo::sim

// ------------------------------------------------------- Trace replay

#include "sim/trace_replay.h"

namespace neo::sim {
namespace {

TEST(TraceReplay, SumsPerOpContributions)
{
    const CommModel model(ClusterSpec::Prototype(16));
    std::vector<comm::TraceEvent> trace = {
        {comm::CollectiveOp::kAllReduce, 1 << 20},
        {comm::CollectiveOp::kAllToAll, 1 << 20},
        {comm::CollectiveOp::kAllToAll, 1 << 18},
        {comm::CollectiveOp::kReduceScatter, 1 << 16},
    };
    const ReplayEstimate est = ReplayTrace(trace, model, 128);
    EXPECT_EQ(est.calls, 4u);
    EXPECT_GT(est.allreduce_seconds, 0.0);
    EXPECT_GT(est.alltoall_seconds, est.allreduce_seconds);
    EXPECT_NEAR(est.total_seconds,
                est.allreduce_seconds + est.alltoall_seconds +
                    est.reducescatter_seconds,
                1e-12);
}

TEST(TraceReplay, ByteScaleGrowsTime)
{
    const CommModel model(ClusterSpec::Prototype(16));
    std::vector<comm::TraceEvent> trace = {
        {comm::CollectiveOp::kAllToAll, 4 << 20},
    };
    const double t1 = ReplayTrace(trace, model, 128, 1.0).total_seconds;
    const double t8 = ReplayTrace(trace, model, 128, 8.0).total_seconds;
    EXPECT_GT(t8, t1 * 4.0);
}

TEST(TraceReplay, MoreGpusMoreAllToAllTime)
{
    const CommModel model(ClusterSpec::Prototype(16));
    std::vector<comm::TraceEvent> trace = {
        {comm::CollectiveOp::kAllToAll, 16 << 20},
    };
    EXPECT_LT(ReplayTrace(trace, model, 16).total_seconds,
              ReplayTrace(trace, model, 128).total_seconds);
}

TEST(TraceReplay, TimedTraceReplaysIdenticalToUntimed)
{
    // Replay re-estimates time from op kinds and sizes alone; the
    // measured timing a live run attaches must not perturb it.
    const CommModel model(ClusterSpec::Prototype(16));
    const std::vector<comm::TraceEvent> untimed = {
        {comm::CollectiveOp::kAllReduce, 1 << 20},
        {comm::CollectiveOp::kAllToAll, 1 << 18},
        {comm::CollectiveOp::kBroadcast, 1 << 10},
    };
    std::vector<comm::TraceEvent> timed = untimed;
    for (size_t i = 0; i < timed.size(); i++) {
        timed[i].start_ns = static_cast<int64_t>(1000 * i);
        timed[i].duration_ns = 500;
        timed[i].seq = i;
    }
    const ReplayEstimate from_untimed = ReplayTrace(untimed, model, 128);
    const ReplayEstimate from_timed = ReplayTrace(timed, model, 128);
    EXPECT_DOUBLE_EQ(from_timed.total_seconds, from_untimed.total_seconds);
    EXPECT_DOUBLE_EQ(from_timed.allreduce_seconds,
                     from_untimed.allreduce_seconds);
    EXPECT_DOUBLE_EQ(from_timed.alltoall_seconds,
                     from_untimed.alltoall_seconds);
    EXPECT_EQ(from_timed.calls, from_untimed.calls);

    EXPECT_DOUBLE_EQ(MeasuredCommSeconds(untimed), 0.0);
    EXPECT_NEAR(MeasuredCommSeconds(timed), 3 * 500e-9, 1e-15);
}

// -------------------------------------- iteration-model property sweep

struct SweepCase {
    int workload;  // index into WorkloadModel::All()
    int gpus;
};

class IterationSweep : public ::testing::TestWithParam<SweepCase>
{
};

TEST_P(IterationSweep, BreakdownInvariantsHold)
{
    const auto workloads = WorkloadModel::All();
    const WorkloadModel& workload = workloads[GetParam().workload];
    TrainingSetup setup;
    setup.cluster = ClusterSpec::Prototype((GetParam().gpus + 7) / 8);
    setup.num_gpus = GetParam().gpus;
    setup.per_gpu_batch = 512;
    const IterationBreakdown bd =
        IterationModel(workload, setup).Estimate();

    EXPECT_GT(bd.qps, 0.0);
    EXPECT_GT(bd.total, 0.0);
    // The exposed total can never beat the compute-only lower bound or
    // exceed the fully-serialized upper bound.
    EXPECT_LE(bd.total, bd.SerializedSum() + 1e-12);
    EXPECT_GE(bd.exposed_comm, -1e-12);
    EXPECT_GE(bd.t_fwd, bd.top_mlp_fwd);
    EXPECT_GE(bd.t_bwd, bd.allreduce - 1e-12);  // AllReduce never exceeds
    EXPECT_NEAR(bd.total, bd.t_fwd + bd.t_bwd + bd.overhead, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadsByScale, IterationSweep,
    ::testing::Values(SweepCase{0, 8}, SweepCase{0, 64}, SweepCase{0, 128},
                      SweepCase{1, 8}, SweepCase{1, 64}, SweepCase{1, 128},
                      SweepCase{2, 128}, SweepCase{3, 128}));

}  // namespace
}  // namespace neo::sim
