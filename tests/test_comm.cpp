/**
 * @file
 * Tests for the threaded collective-communication backend: correctness of
 * every collective against a single-threaded reference across world sizes
 * (parameterized), determinism of reductions, ragged AllToAllv, quantized
 * collectives, traffic accounting, and the fault-tolerance layer (abort
 * propagation, barrier deadlines, fault injection, recovery).
 */
#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <numeric>
#include <thread>

#include "comm/fault.h"
#include "comm/quantized.h"
#include "comm/threaded_process_group.h"
#include "common/rng.h"

namespace neo::comm {
namespace {

class CollectiveTest : public ::testing::TestWithParam<int>
{
};

TEST_P(CollectiveTest, AllReduceSumsInRankOrder)
{
    const int world = GetParam();
    const size_t count = 1000;
    std::vector<std::vector<float>> data(world);
    std::vector<float> expected(count, 0.0f);
    Rng rng(41);
    for (int r = 0; r < world; r++) {
        data[r].resize(count);
        for (auto& x : data[r]) {
            x = rng.NextUniform(-1.0f, 1.0f);
        }
    }
    for (size_t i = 0; i < count; i++) {
        float sum = 0.0f;
        for (int r = 0; r < world; r++) {
            sum += data[r][i];  // rank order, matching the contract
        }
        expected[i] = sum;
    }

    ThreadedWorld::Run(world, [&](int rank, ProcessGroup& pg) {
        std::vector<float> local = data[rank];
        pg.AllReduceSum(local.data(), local.size());
        ASSERT_EQ(local, expected) << "rank " << rank;
    });
}

TEST_P(CollectiveTest, BroadcastFromEveryRoot)
{
    const int world = GetParam();
    for (int root = 0; root < world; root++) {
        ThreadedWorld::Run(world, [&](int rank, ProcessGroup& pg) {
            std::vector<float> buf(16,
                                   static_cast<float>(rank * 100));
            pg.Broadcast(buf.data(), buf.size(), root);
            for (float x : buf) {
                ASSERT_EQ(x, static_cast<float>(root * 100));
            }
        });
    }
}

TEST_P(CollectiveTest, AllGatherConcatenatesInRankOrder)
{
    const int world = GetParam();
    const size_t count = 7;
    ThreadedWorld::Run(world, [&](int rank, ProcessGroup& pg) {
        std::vector<float> mine(count);
        for (size_t i = 0; i < count; i++) {
            mine[i] = static_cast<float>(rank * 1000 + i);
        }
        std::vector<float> out(count * world);
        pg.AllGather(mine.data(), count, out.data());
        for (int r = 0; r < world; r++) {
            for (size_t i = 0; i < count; i++) {
                ASSERT_EQ(out[r * count + i],
                          static_cast<float>(r * 1000 + i));
            }
        }
    });
}

TEST_P(CollectiveTest, ReduceScatterMatchesAllReduceChunk)
{
    const int world = GetParam();
    const size_t chunk = 13;
    std::vector<std::vector<float>> inputs(world);
    Rng rng(43);
    for (int r = 0; r < world; r++) {
        inputs[r].resize(chunk * world);
        for (auto& x : inputs[r]) {
            x = rng.NextUniform(-2.0f, 2.0f);
        }
    }
    ThreadedWorld::Run(world, [&](int rank, ProcessGroup& pg) {
        std::vector<float> out(chunk);
        pg.ReduceScatterSum(inputs[rank].data(), chunk, out.data());
        for (size_t i = 0; i < chunk; i++) {
            float expected = 0.0f;
            for (int r = 0; r < world; r++) {
                expected += inputs[r][rank * chunk + i];
            }
            ASSERT_EQ(out[i], expected);
        }
    });
}

TEST_P(CollectiveTest, AllToAllRoutesRaggedPayloads)
{
    const int world = GetParam();
    ThreadedWorld::Run(world, [&](int rank, ProcessGroup& pg) {
        // Rank r sends (r*10 + dst) repeated (r + dst) times to dst.
        std::vector<std::vector<uint8_t>> send(world);
        for (int dst = 0; dst < world; dst++) {
            send[dst].assign(static_cast<size_t>(rank + dst),
                             static_cast<uint8_t>(rank * 10 + dst));
        }
        std::vector<std::vector<uint8_t>> recv;
        pg.AllToAllBytes(send, recv);
        ASSERT_EQ(recv.size(), static_cast<size_t>(world));
        for (int src = 0; src < world; src++) {
            ASSERT_EQ(recv[src].size(), static_cast<size_t>(src + rank));
            for (uint8_t byte : recv[src]) {
                ASSERT_EQ(byte, static_cast<uint8_t>(src * 10 + rank));
            }
        }
    });
}

TEST_P(CollectiveTest, TypedAllToAllWrappers)
{
    const int world = GetParam();
    ThreadedWorld::Run(world, [&](int rank, ProcessGroup& pg) {
        std::vector<std::vector<int64_t>> send(world);
        for (int dst = 0; dst < world; dst++) {
            send[dst] = {rank * 100ll + dst, -1ll};
        }
        std::vector<std::vector<int64_t>> recv;
        pg.AllToAllIndices(send, recv);
        for (int src = 0; src < world; src++) {
            ASSERT_EQ(recv[src],
                      (std::vector<int64_t>{src * 100ll + rank, -1ll}));
        }
    });
}

TEST_P(CollectiveTest, TypedAllToAllEmptyPerRankBuffers)
{
    // Rank r sends dst (r + dst) % 2 elements: an empty vector to every
    // other peer, itself included for even ranks. Empty buffers must
    // round-trip as empty vectors for every element type.
    const int world = GetParam();
    ThreadedWorld::Run(world, [&](int rank, ProcessGroup& pg) {
        std::vector<std::vector<float>> send_f(world);
        std::vector<std::vector<uint32_t>> send_l(world);
        std::vector<std::vector<int64_t>> send_i(world);
        for (int dst = 0; dst < world; dst++) {
            const size_t n = static_cast<size_t>((rank + dst) % 2);
            send_f[dst].assign(n, 0.5f * rank + dst);
            send_l[dst].assign(n, static_cast<uint32_t>(rank * 7 + dst));
            send_i[dst].assign(n, -(rank * 100ll + dst));
        }
        std::vector<std::vector<float>> recv_f;
        std::vector<std::vector<uint32_t>> recv_l;
        std::vector<std::vector<int64_t>> recv_i;
        pg.AllToAllFloats(send_f, recv_f);
        pg.AllToAllLengths(send_l, recv_l);
        pg.AllToAllIndices(send_i, recv_i);
        ASSERT_EQ(recv_f.size(), static_cast<size_t>(world));
        ASSERT_EQ(recv_l.size(), static_cast<size_t>(world));
        ASSERT_EQ(recv_i.size(), static_cast<size_t>(world));
        for (int src = 0; src < world; src++) {
            const size_t n = static_cast<size_t>((src + rank) % 2);
            EXPECT_EQ(recv_f[src], std::vector<float>(n, 0.5f * src + rank));
            EXPECT_EQ(recv_l[src],
                      std::vector<uint32_t>(
                          n, static_cast<uint32_t>(src * 7 + rank)));
            EXPECT_EQ(recv_i[src],
                      std::vector<int64_t>(n, -(src * 100ll + rank)));
        }
    });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, CollectiveTest,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(Collectives, AllReduceBitwiseDeterministicAcrossRuns)
{
    const int world = 4;
    const size_t count = 257;
    std::vector<float> result1(count), result2(count);
    for (int run = 0; run < 2; run++) {
        std::vector<float>& result = run == 0 ? result1 : result2;
        ThreadedWorld::Run(world, [&](int rank, ProcessGroup& pg) {
            Rng rng(100 + rank);
            std::vector<float> local(count);
            for (auto& x : local) {
                x = rng.NextUniform(-1.0f, 1.0f);
            }
            pg.AllReduceSum(local.data(), count);
            if (rank == 0) {
                result = local;
            }
        });
    }
    EXPECT_EQ(result1, result2);
}

TEST(Collectives, AllRanksSeeIdenticalAllReduceResult)
{
    const int world = 5;
    const size_t count = 64;
    std::vector<std::vector<float>> results(world);
    ThreadedWorld::Run(world, [&](int rank, ProcessGroup& pg) {
        Rng rng(7 + rank);
        std::vector<float> local(count);
        for (auto& x : local) {
            x = rng.NextUniform(-3.0f, 3.0f);
        }
        pg.AllReduceSum(local.data(), count);
        results[rank] = local;
    });
    for (int r = 1; r < world; r++) {
        EXPECT_EQ(results[0], results[r]) << r;
    }
}

TEST(Collectives, StatsCountTraffic)
{
    ThreadedWorld::Run(2, [&](int rank, ProcessGroup& pg) {
        std::vector<float> buf(100, static_cast<float>(rank));
        pg.AllReduceSum(buf.data(), buf.size());
        const CommStats stats = pg.Stats();
        EXPECT_EQ(stats.allreduce_bytes, 400u);
        EXPECT_GE(stats.calls, 1u);
    });
}

// ------------------------------------------------------------ Quantized

TEST(Quantized, Fp16RoundTripErrorBounded)
{
    Rng rng(51);
    std::vector<float> values(4096);
    for (auto& v : values) {
        v = rng.NextUniform(-8.0f, 8.0f);
    }
    const auto q = QuantizeVector(values, Precision::kFp16);
    const auto back = DequantizeVector(q, Precision::kFp16);
    for (size_t i = 0; i < values.size(); i++) {
        EXPECT_LE(std::abs(back[i] - values[i]),
                  std::abs(values[i]) / 1024.0f + 1e-6f);
    }
}

TEST(Quantized, Bf16HandlesWideDynamicRange)
{
    std::vector<float> values = {1e-20f, 1e20f, -3e30f, 5e-35f};
    const auto back =
        DequantizeVector(QuantizeVector(values, Precision::kBf16),
                         Precision::kBf16);
    for (size_t i = 0; i < values.size(); i++) {
        EXPECT_NEAR(back[i] / values[i], 1.0f, 0.01f);
    }
}

TEST(Quantized, AllToAllDeliversQuantizedPayloads)
{
    const int world = 3;
    ThreadedWorld::Run(world, [&](int rank, ProcessGroup& pg) {
        std::vector<std::vector<float>> send(world);
        for (int dst = 0; dst < world; dst++) {
            send[dst] = {static_cast<float>(rank) + 0.333f,
                         static_cast<float>(dst) * 1.25f};
        }
        std::vector<std::vector<float>> recv;
        QuantizedAllToAll(pg, send, recv, Precision::kFp16);
        for (int src = 0; src < world; src++) {
            ASSERT_EQ(recv[src].size(), 2u);
            EXPECT_NEAR(recv[src][0], static_cast<float>(src) + 0.333f,
                        5e-3f);
            EXPECT_NEAR(recv[src][1], static_cast<float>(rank) * 1.25f,
                        5e-3f);
        }
    });
}

TEST(Quantized, Fp32PassThroughIsExact)
{
    const int world = 2;
    ThreadedWorld::Run(world, [&](int rank, ProcessGroup& pg) {
        std::vector<std::vector<float>> send(world);
        for (int dst = 0; dst < world; dst++) {
            send[dst] = {0.1234567f * (rank + 1)};
        }
        std::vector<std::vector<float>> recv;
        QuantizedAllToAll(pg, send, recv, Precision::kFp32);
        for (int src = 0; src < world; src++) {
            EXPECT_EQ(recv[src][0], 0.1234567f * (src + 1));
        }
    });
}

TEST(Quantized, QuantizedAllReduceStaysClose)
{
    const int world = 4;
    const size_t count = 128;
    ThreadedWorld::Run(world, [&](int rank, ProcessGroup& pg) {
        Rng rng(60 + rank);
        std::vector<float> exact(count), quant(count);
        for (size_t i = 0; i < count; i++) {
            exact[i] = rng.NextUniform(-1.0f, 1.0f);
            quant[i] = exact[i];
        }
        pg.AllReduceSum(exact.data(), count);
        QuantizedAllReduce(pg, quant.data(), count, Precision::kBf16);
        for (size_t i = 0; i < count; i++) {
            ASSERT_NEAR(quant[i], exact[i], 0.05f);
        }
    });
}

// ------------------------------------------------------ Fault tolerance

TEST(FaultTolerance, ThrowingRankRethrowsWithoutDeadlock)
{
    // Regression: before the abort protocol, a rank that threw inside
    // Run left every other rank blocked forever in Barrier(), so this
    // test hung instead of failing.
    const auto start = std::chrono::steady_clock::now();
    std::vector<int> blamed(4, -1);
    bool rethrown = false;
    try {
        ThreadedWorld::Run(4, [&](int rank, ProcessGroup& pg) {
            if (rank == 2) {
                throw std::runtime_error("boom on rank 2");
            }
            std::vector<float> buf(64, 1.0f);
            try {
                pg.AllReduceSum(buf.data(), buf.size());
            } catch (const RankFailure& f) {
                blamed[rank] = f.failed_rank();
                EXPECT_NE(f.cause().find("boom"), std::string::npos);
            }
        });
    } catch (const std::runtime_error& e) {
        rethrown = true;
        // The originating exception wins over secondary RankFailures.
        EXPECT_NE(std::string(e.what()).find("boom on rank 2"),
                  std::string::npos);
    }
    EXPECT_TRUE(rethrown);
    EXPECT_EQ(blamed[0], 2);
    EXPECT_EQ(blamed[1], 2);
    EXPECT_EQ(blamed[3], 2);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(elapsed, std::chrono::seconds(20));
}

TEST(FaultTolerance, KilledRankNamedByEveryRank)
{
    FaultInjector injector;
    FaultSpec kill;
    kill.rank = 1;
    kill.call_index = 0;
    kill.kind = FaultKind::kKill;
    injector.Arm(kill);
    ThreadedWorld::Options options;
    options.injector = &injector;

    bool rethrown = false;
    try {
        ThreadedWorld::Run(4, options, [&](int rank, ProcessGroup& pg) {
            std::vector<float> buf(8, static_cast<float>(rank));
            pg.AllReduceSum(buf.data(), buf.size());
        });
    } catch (const RankFailure& f) {
        rethrown = true;
        EXPECT_EQ(f.failed_rank(), 1);
        EXPECT_TRUE(f.transient());
        EXPECT_NE(f.cause().find("injected kill"), std::string::npos);
    }
    EXPECT_TRUE(rethrown);
    ASSERT_EQ(injector.Fired().size(), 1u);
    EXPECT_EQ(injector.Fired()[0].op, CollectiveOp::kAllReduce);
    EXPECT_EQ(injector.NumArmed(), 0u);
}

TEST(FaultTolerance, BarrierTimeoutNamesStraggler)
{
    FaultInjector injector;
    FaultSpec lag;
    lag.rank = 2;
    lag.call_index = 0;
    lag.kind = FaultKind::kDelay;
    lag.delay = std::chrono::milliseconds(400);
    injector.Arm(lag);
    ThreadedWorld::Options options;
    options.barrier_timeout = std::chrono::milliseconds(50);
    options.injector = &injector;

    std::vector<int> blamed(4, -1);
    std::vector<std::string> causes(4);
    ThreadedWorld::Run(4, options, [&](int rank, ProcessGroup& pg) {
        float x = 1.0f;
        try {
            pg.AllReduceSum(&x, 1);
        } catch (const RankFailure& f) {
            blamed[rank] = f.failed_rank();
            causes[rank] = f.cause();
        }
    });
    for (int r = 0; r < 4; r++) {
        EXPECT_EQ(blamed[r], 2) << "rank " << r;
        EXPECT_NE(causes[r].find("timeout"), std::string::npos)
            << causes[r];
    }
}

TEST(FaultTolerance, StragglerWithinDeadlineIsAbsorbed)
{
    FaultInjector injector;
    FaultSpec lag;
    lag.rank = 0;
    lag.call_index = 0;
    lag.kind = FaultKind::kDelay;
    lag.delay = std::chrono::milliseconds(30);
    injector.Arm(lag);
    ThreadedWorld::Options options;
    options.barrier_timeout = std::chrono::milliseconds(5000);
    options.injector = &injector;

    ThreadedWorld::Run(3, options, [&](int rank, ProcessGroup& pg) {
        float x = static_cast<float>(rank);
        pg.AllReduceSum(&x, 1);
        ASSERT_EQ(x, 3.0f);
    });
}

TEST(FaultTolerance, ExplicitBarrierDeadline)
{
    std::vector<int> blamed(2, -1);
    ThreadedWorld::Run(2, [&](int rank, ProcessGroup& pg) {
        if (rank == 1) {
            std::this_thread::sleep_for(std::chrono::milliseconds(300));
        }
        try {
            pg.Barrier(std::chrono::milliseconds(rank == 0 ? 50 : 5000));
        } catch (const RankFailure& f) {
            blamed[rank] = f.failed_rank();
        }
    });
    EXPECT_EQ(blamed[0], 1);  // deadline expired waiting for rank 1
    EXPECT_EQ(blamed[1], 1);  // world already poisoned on arrival
}

TEST(FaultTolerance, CorruptFaultPoisonsPayloadDeterministically)
{
    FaultInjector injector;
    FaultSpec corrupt;
    corrupt.rank = 0;
    corrupt.call_index = 0;
    corrupt.kind = FaultKind::kCorrupt;
    corrupt.corrupt_value = 100.0f;
    injector.Arm(corrupt);
    ThreadedWorld::Options options;
    options.injector = &injector;

    ThreadedWorld::Run(2, options, [&](int, ProcessGroup& pg) {
        std::vector<float> buf(4, 1.0f);
        pg.AllReduceSum(buf.data(), buf.size());
        for (float x : buf) {
            ASSERT_EQ(x, 101.0f);  // corrupted 100 + honest 1
        }
    });
}

TEST(FaultTolerance, TransientKillRecoveredByRetry)
{
    FaultInjector injector;
    FaultSpec kill;
    kill.rank = 0;
    kill.call_index = 2;  // third AllReduce call on rank 0
    kill.kind = FaultKind::kKill;
    kill.transient = true;
    injector.Arm(kill);
    ThreadedWorld::Options options;
    options.barrier_timeout = std::chrono::milliseconds(5000);
    options.injector = &injector;

    std::vector<int> retries(3, 0);
    ThreadedWorld::Run(3, options, [&](int rank, ProcessGroup& pg) {
        for (int step = 0; step < 5; step++) {
            float x = static_cast<float>(rank + step);
            for (;;) {
                try {
                    pg.AllReduceSum(&x, 1);
                    break;
                } catch (const RankFailure& f) {
                    ASSERT_TRUE(f.transient());
                    retries[rank]++;
                    ASSERT_TRUE(
                        pg.Recover(std::chrono::milliseconds(2000)));
                    x = static_cast<float>(rank + step);
                }
            }
            ASSERT_EQ(x, static_cast<float>(3 + 3 * step)) << step;
        }
        EXPECT_TRUE(pg.Healthy());
    });
    // Every rank lost exactly the one injected step and recovered.
    EXPECT_EQ(retries, (std::vector<int>{1, 1, 1}));
}

TEST(FaultTolerance, RecoveryFailsWhenRankIsPermanentlyDead)
{
    ThreadedWorld::Options options;
    options.barrier_timeout = std::chrono::milliseconds(100);

    std::vector<int> recovered(3, -1);
    ThreadedWorld::Run(3, options, [&](int rank, ProcessGroup& pg) {
        if (rank == 1) {
            return;  // dead before its first collective
        }
        float x = 1.0f;
        try {
            pg.AllReduceSum(&x, 1);
            ADD_FAILURE() << "collective must not complete";
        } catch (const RankFailure& f) {
            EXPECT_EQ(f.failed_rank(), 1);
            recovered[rank] =
                pg.Recover(std::chrono::milliseconds(100)) ? 1 : 0;
            EXPECT_FALSE(pg.Healthy());
        }
    });
    EXPECT_EQ(recovered[0], 0);
    EXPECT_EQ(recovered[2], 0);
}

TEST(FaultTolerance, AbortedCollectiveNotCountedInStatsOrTrace)
{
    FaultInjector injector;
    FaultSpec kill;
    kill.rank = 1;
    kill.call_index = 0;
    kill.kind = FaultKind::kKill;
    injector.Arm(kill);
    ThreadedWorld::Options options;
    options.injector = &injector;

    std::vector<TraceEvent> trace;
    CommStats stats0;
    ThreadedWorld::Run(2, options, [&](int rank, ProcessGroup& pg) {
        if (rank == 0) {
            pg.SetTrace(&trace);
        }
        std::vector<float> buf(10, 1.0f);
        try {
            pg.AllReduceSum(buf.data(), buf.size());
            ADD_FAILURE() << "first collective must abort";
        } catch (const RankFailure&) {
            ASSERT_TRUE(pg.Recover(std::chrono::milliseconds(2000)));
        }
        buf.assign(10, 1.0f);
        pg.AllReduceSum(buf.data(), buf.size());
        if (rank == 0) {
            stats0 = pg.Stats();
            pg.SetTrace(nullptr);
        }
    });
    // Only the completed collective is accounted, on stats and trace.
    EXPECT_EQ(stats0.calls, 1u);
    EXPECT_EQ(stats0.allreduce_bytes, 40u);
    ASSERT_EQ(trace.size(), 1u);
    EXPECT_EQ(trace[0].op, CollectiveOp::kAllReduce);
}

}  // namespace
}  // namespace neo::comm

namespace neo::comm {
namespace {

TEST(Collectives, ZeroLengthPayloadsAreSafe)
{
    ThreadedWorld::Run(3, [&](int, ProcessGroup& pg) {
        // Empty AllReduce and AllToAll must complete without touching
        // memory.
        pg.AllReduceSum(nullptr, 0);
        std::vector<std::vector<uint8_t>> send(3);
        std::vector<std::vector<uint8_t>> recv;
        pg.AllToAllBytes(send, recv);
        for (const auto& r : recv) {
            ASSERT_TRUE(r.empty());
        }
    });
}

TEST(Collectives, SingleRankWorldIsIdentity)
{
    ThreadedWorld::Run(1, [&](int, ProcessGroup& pg) {
        std::vector<float> buf = {1.0f, -2.0f, 3.0f};
        const std::vector<float> original = buf;
        pg.AllReduceSum(buf.data(), buf.size());
        EXPECT_EQ(buf, original);
        pg.Broadcast(buf.data(), buf.size(), 0);
        EXPECT_EQ(buf, original);
        std::vector<float> out(3);
        pg.AllGather(buf.data(), 3, out.data());
        EXPECT_EQ(out, original);
    });
}

TEST(Collectives, TraceCapturesOpsAndSizes)
{
    std::vector<TraceEvent> trace;
    ThreadedWorld::Run(2, [&](int rank, ProcessGroup& pg) {
        if (rank == 0) {
            pg.SetTrace(&trace);
        }
        std::vector<float> buf(10, 1.0f);
        pg.AllReduceSum(buf.data(), buf.size());
        std::vector<std::vector<float>> send(
            2, std::vector<float>(5, 2.0f));
        std::vector<std::vector<float>> recv;
        pg.AllToAllFloats(send, recv);
        if (rank == 0) {
            pg.SetTrace(nullptr);
        }
        // Post-detach traffic must not be recorded.
        pg.AllReduceSum(buf.data(), buf.size());
    });
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace[0].op, CollectiveOp::kAllReduce);
    EXPECT_EQ(trace[0].bytes, 40u);
    EXPECT_EQ(trace[1].op, CollectiveOp::kAllToAll);
    EXPECT_EQ(trace[1].bytes, 40u);  // 2 peers x 5 floats
}

TEST(Collectives, TraceRecordsTimingAndPerOpSequence)
{
    std::vector<TraceEvent> trace;
    ThreadedWorld::Run(2, [&](int rank, ProcessGroup& pg) {
        if (rank == 0) {
            pg.SetTrace(&trace);
        }
        std::vector<float> buf(8, 1.0f);
        for (int i = 0; i < 3; i++) {
            pg.AllReduceSum(buf.data(), buf.size());
        }
        std::vector<std::vector<float>> send(
            2, std::vector<float>(4, 2.0f));
        std::vector<std::vector<float>> recv;
        pg.AllToAllFloats(send, recv);
        pg.AllToAllFloats(send, recv);
    });
    ASSERT_EQ(trace.size(), 5u);
    int64_t prev_start = std::numeric_limits<int64_t>::min();
    for (const TraceEvent& event : trace) {
        // Collectives synchronize, so every call takes measurable-or-zero
        // time and later calls start no earlier than earlier ones.
        EXPECT_GE(event.duration_ns, 0);
        EXPECT_GE(event.start_ns, prev_start);
        prev_start = event.start_ns;
    }
    // The sequence number counts calls of the SAME op kind, so replayed
    // traces can be aligned op-by-op across ranks.
    EXPECT_EQ(trace[0].seq, 0u);
    EXPECT_EQ(trace[1].seq, 1u);
    EXPECT_EQ(trace[2].seq, 2u);
    EXPECT_EQ(trace[3].seq, 0u);
    EXPECT_EQ(trace[4].seq, 1u);
}

TEST(Collectives, TypedWrappersAccountWireBytes)
{
    // AllToAllIndices moves 8-byte int64 ids and AllToAllLengths 4-byte
    // counts; stats must reflect the element width of the wire payload,
    // counting off-rank traffic only.
    ThreadedWorld::Run(2, [&](int rank, ProcessGroup& pg) {
        std::vector<std::vector<int64_t>> idx_send(2);
        idx_send[0] = {1, 2, 3};
        idx_send[1] = {4, 5, 6};
        std::vector<std::vector<int64_t>> idx_recv;
        pg.AllToAllIndices(idx_send, idx_recv);
        // 3 ids x 8 bytes to the one off-rank peer.
        EXPECT_EQ(pg.Stats().alltoall_bytes, 24u);

        std::vector<std::vector<uint32_t>> len_send(2);
        len_send[0] = {7u, 8u};
        len_send[1] = {9u, 10u};
        std::vector<std::vector<uint32_t>> len_recv;
        pg.AllToAllLengths(len_send, len_recv);
        // + 2 lengths x 4 bytes off-rank.
        EXPECT_EQ(pg.Stats().alltoall_bytes, 24u + 8u);
        (void)rank;
    });
}

TEST(Quantized, AllToAllAccountsQuantizedWireBytes)
{
    // A quantized exchange must book the 2-byte-per-element wire format,
    // not the 4-byte float payload handed to the caller.
    ThreadedWorld::Run(2, [&](int rank, ProcessGroup& pg) {
        std::vector<std::vector<float>> send(2);
        send[0] = std::vector<float>(10, 1.0f);
        send[1] = std::vector<float>(10, 2.0f);
        std::vector<std::vector<float>> recv;
        QuantizedAllToAll(pg, send, recv, Precision::kFp16);
        // 10 halves x 2 bytes to the off-rank peer.
        EXPECT_EQ(pg.Stats().alltoall_bytes, 20u);
        (void)rank;
    });
}

TEST(Quantized, AllReduceRebooksStatsAndTraceToWireBytes)
{
    const size_t count = 100;
    std::vector<TraceEvent> trace;
    ThreadedWorld::Run(2, [&](int rank, ProcessGroup& pg) {
        if (rank == 0) {
            pg.SetTrace(&trace);
        }
        std::vector<float> buf(count, static_cast<float>(rank));
        QuantizedAllReduce(pg, buf.data(), count, Precision::kBf16);
        // The underlying AllReduceSum books 4 B/elem; QuantizedAllReduce
        // rebooks to the bf16 wire size actually exchanged.
        EXPECT_EQ(pg.Stats().allreduce_bytes, count * 2);

        std::vector<float> full(count, 1.0f);
        pg.AllReduceSum(full.data(), count);
        EXPECT_EQ(pg.Stats().allreduce_bytes, count * 2 + count * 4);
    });
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace[0].op, CollectiveOp::kAllReduce);
    EXPECT_EQ(trace[0].bytes, count * 2);  // rebooked wire bytes
    EXPECT_EQ(trace[1].bytes, count * 4);  // fp32 path untouched
}

TEST(Collectives, ZeroCountGuardsOnEveryCollective)
{
    // Regression: Broadcast/AllGather/ReduceScatter/AllToAll used to run
    // memcpy/pointer arithmetic on (null, 0) payloads. All five
    // collectives must treat count == 0 as synchronize-only.
    ThreadedWorld::Run(3, [&](int rank, ProcessGroup& pg) {
        pg.AllReduceSum(nullptr, 0);
        pg.Broadcast(nullptr, 0, /*root=*/1);
        pg.AllGather(nullptr, 0, nullptr);
        pg.ReduceScatterSum(nullptr, 0, nullptr);
        std::vector<std::vector<uint8_t>> send(3);
        std::vector<std::vector<uint8_t>> recv;
        pg.AllToAllBytes(send, recv);
        for (const auto& r : recv) {
            ASSERT_TRUE(r.empty());
        }
        // The shared boards must still be usable afterwards.
        float x = static_cast<float>(rank);
        pg.AllReduceSum(&x, 1);
        ASSERT_EQ(x, 3.0f);
    });
}

TEST(Collectives, ManySmallCollectivesInterleaveSafely)
{
    // Stress the shared boards: alternating collective types back to
    // back, validating every result.
    ThreadedWorld::Run(4, [&](int rank, ProcessGroup& pg) {
        for (int round = 0; round < 50; round++) {
            float x = static_cast<float>(rank + round);
            pg.AllReduceSum(&x, 1);
            float expected = 0.0f;
            for (int r = 0; r < 4; r++) {
                expected += static_cast<float>(r + round);
            }
            ASSERT_EQ(x, expected) << round;

            std::vector<float> gathered(4);
            const float mine = static_cast<float>(rank * 10 + round);
            pg.AllGather(&mine, 1, gathered.data());
            for (int r = 0; r < 4; r++) {
                ASSERT_EQ(gathered[r],
                          static_cast<float>(r * 10 + round));
            }
        }
    });
}

// ------------------------------- op-filtered faults & shrinking worlds

TEST(FaultTolerance, OpFilteredFaultCountsOnlyMatchingOps)
{
    // match_op addresses "rank 0's 2nd AllReduce", skipping the barriers
    // and broadcasts interleaved before it — the addressing mode the
    // trainer tests use to hit a semantic point inside a training step.
    FaultInjector injector;
    FaultSpec kill;
    kill.rank = 0;
    kill.match_op = true;
    kill.op = CollectiveOp::kAllReduce;
    kill.call_index = 1;
    kill.kind = FaultKind::kKill;
    kill.transient = true;
    injector.Arm(kill);
    ThreadedWorld::Options options;
    options.injector = &injector;

    std::vector<int> completed(2, 0);
    ThreadedWorld::Run(2, options, [&](int rank, ProcessGroup& pg) {
        try {
            float x = 1.0f;
            pg.Barrier();               // flat index 0 on every rank
            pg.AllReduceSum(&x, 1);     // AllReduce #0: survives
            completed[rank]++;
            pg.Broadcast(&x, 1, 0);     // other ops don't advance the count
            pg.Barrier();
            completed[rank]++;
            pg.AllReduceSum(&x, 1);     // AllReduce #1: the armed kill
            ADD_FAILURE() << "second AllReduce must abort";
        } catch (const RankFailure& f) {
            EXPECT_EQ(f.failed_rank(), 0);
            EXPECT_TRUE(f.transient());
        }
    });
    EXPECT_EQ(completed, (std::vector<int>{2, 2}));
    ASSERT_EQ(injector.Fired().size(), 1u);
    EXPECT_EQ(injector.Fired()[0].op, CollectiveOp::kAllReduce);
}

TEST(FaultTolerance, ShrinkAfterFailureFormsSurvivorWorld)
{
    // Rank 2 dies permanently; the three survivors rendezvous into a
    // compacted 3-rank child world and run collectives on it.
    constexpr int kWorld = 4;
    constexpr int kDead = 2;
    ThreadedWorld::Options options;
    options.barrier_timeout = std::chrono::milliseconds(2000);
    ThreadedWorld world(kWorld, options);

    std::vector<int> new_ranks(kWorld, -1);
    std::vector<float> sums(kWorld, 0.0f);
    std::vector<std::thread> threads;
    for (int r = 0; r < kWorld; r++) {
        threads.emplace_back([&, r] {
            ProcessGroup& pg = world.GetGroup(r);
            if (r == kDead) {
                world.Abort(r, "injected permanent death", false);
                return;
            }
            try {
                pg.AllReduceSum(nullptr, 0);
                // The abort may land after this collective completed;
                // the next one observes it either way.
                pg.Barrier();
            } catch (const RankFailure& f) {
                EXPECT_EQ(f.failed_rank(), kDead);
            }
            const auto shrink = world.ShrinkAfterFailure(
                r, std::chrono::milliseconds(5000));
            ASSERT_TRUE(shrink.ok);
            EXPECT_EQ(shrink.new_size, kWorld - 1);
            new_ranks[r] = shrink.new_rank;
            // The child world is live: a collective over the survivors.
            float x = static_cast<float>(shrink.new_rank + 1);
            shrink.group->AllReduceSum(&x, 1);
            sums[r] = x;
            EXPECT_EQ(shrink.group->Rank(), shrink.new_rank);
            EXPECT_EQ(shrink.group->Size(), kWorld - 1);
        });
    }
    for (auto& t : threads) {
        t.join();
    }
    // Compaction: ranks below the dead one keep their id, above shift
    // down by one; the parent stays poisoned.
    EXPECT_EQ(new_ranks, (std::vector<int>{0, 1, -1, 2}));
    for (int r = 0; r < kWorld; r++) {
        if (r != kDead) {
            EXPECT_EQ(sums[r], 6.0f) << "rank " << r;  // 1 + 2 + 3
        }
    }
    EXPECT_TRUE(world.aborted());
}

TEST(FaultTolerance, ShrinkTimesOutWhenSurvivorsMissing)
{
    ThreadedWorld world(3);
    world.Abort(1, "dead", false);
    // Only one of the two survivors shows up: the rendezvous must time
    // out and report failure instead of hanging.
    const auto shrink =
        world.ShrinkAfterFailure(0, std::chrono::milliseconds(100));
    EXPECT_FALSE(shrink.ok);
    EXPECT_EQ(shrink.group, nullptr);
}

}  // namespace
}  // namespace neo::comm
