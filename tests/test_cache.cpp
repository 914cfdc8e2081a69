/**
 * @file
 * Tests for the memory hierarchy: the 32-way set-associative software
 * cache (hits, LRU/LFU eviction, dirty write-back, flush), the cached
 * embedding store's coherence with its backing table, the UVM paged
 * baseline, and the headline comparison — under Zipf reuse the software
 * cache moves far less PCIe traffic than UVM (Sec. 4.1.3).
 */
#include <gtest/gtest.h>

#include "cache/cached_embedding_store.h"
#include "cache/memory_tier.h"
#include "cache/set_associative_cache.h"
#include "cache/uvm_store.h"
#include "common/rng.h"

namespace neo::cache {
namespace {

// ------------------------------------------------------------ Directory

TEST(SetAssociativeCache, MissThenHit)
{
    SetAssociativeCache cache({4, 2, ReplacementPolicy::kLru});
    EXPECT_FALSE(cache.Access(42).has_value());
    cache.Insert(42);
    EXPECT_TRUE(cache.Access(42).has_value());
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(SetAssociativeCache, LruEvictsLeastRecentlyUsed)
{
    // Single set, 2 ways: rows hash into the same set trivially.
    SetAssociativeCache cache({1, 2, ReplacementPolicy::kLru});
    cache.Access(1);
    cache.Insert(1);
    cache.Access(2);
    cache.Insert(2);
    cache.Access(1);  // 1 is now MRU
    cache.Access(3);  // miss
    const auto result = cache.Insert(3);
    ASSERT_TRUE(result.evicted_row.has_value());
    EXPECT_EQ(*result.evicted_row, 2);  // LRU victim
    EXPECT_TRUE(cache.Probe(1).has_value());
    EXPECT_FALSE(cache.Probe(2).has_value());
}

TEST(SetAssociativeCache, LfuEvictsLeastFrequentlyUsed)
{
    SetAssociativeCache cache({1, 2, ReplacementPolicy::kLfu});
    cache.Access(1);
    cache.Insert(1);
    cache.Access(2);
    cache.Insert(2);
    // Row 1 becomes hot.
    cache.Access(1);
    cache.Access(1);
    cache.Access(1);
    cache.Access(2);
    cache.Access(3);
    const auto result = cache.Insert(3);
    ASSERT_TRUE(result.evicted_row.has_value());
    EXPECT_EQ(*result.evicted_row, 2);  // lower frequency than 1
}

TEST(SetAssociativeCache, DirtyTrackingAndWriteback)
{
    SetAssociativeCache cache({1, 1, ReplacementPolicy::kLru});
    cache.Access(5);
    cache.Insert(5);
    EXPECT_FALSE(cache.IsDirty(5));
    cache.MarkDirty(5);
    EXPECT_TRUE(cache.IsDirty(5));

    cache.Access(6);
    const auto result = cache.Insert(6);
    ASSERT_TRUE(result.evicted_row.has_value());
    EXPECT_EQ(*result.evicted_row, 5);
    EXPECT_TRUE(result.evicted_dirty);
    EXPECT_EQ(cache.stats().dirty_writebacks, 1u);
}

TEST(SetAssociativeCache, FlushReturnsDirtyLinesAndClears)
{
    SetAssociativeCache cache({8, 4, ReplacementPolicy::kLru});
    for (int64_t r = 0; r < 10; r++) {
        cache.Access(r);
        cache.Insert(r);
        if (r % 2 == 0) {
            cache.MarkDirty(r);
        }
    }
    const auto dirty = cache.FlushDirty();
    EXPECT_EQ(dirty.size(), 5u);
    for (int64_t r = 0; r < 10; r++) {
        EXPECT_FALSE(cache.Probe(r).has_value()) << r;
    }
}

TEST(SetAssociativeCache, AssociativityBoundsResidency)
{
    // 2 sets x 4 ways = 8 slots: inserting 100 distinct rows keeps at
    // most 8 resident.
    SetAssociativeCache cache({2, 4, ReplacementPolicy::kLru});
    for (int64_t r = 0; r < 100; r++) {
        if (!cache.Access(r)) {
            cache.Insert(r);
        }
    }
    int resident = 0;
    for (int64_t r = 0; r < 100; r++) {
        resident += cache.Probe(r).has_value();
    }
    EXPECT_LE(resident, 8);
    EXPECT_GT(resident, 0);
}

TEST(SetAssociativeCache, WarpWidthDefaultAssociativity)
{
    CacheConfig config;
    EXPECT_EQ(config.ways, 32u);  // matches the GPU warp size (Sec. 4.1.3)
}

// -------------------------------------------------- CachedEmbeddingStore

TEST(CachedEmbeddingStore, ReadThroughMatchesBacking)
{
    ops::EmbeddingTable backing(64, 4);
    Rng rng(3);
    backing.InitUniform(rng);
    ops::EmbeddingTable copy = backing;

    MemoryTier hbm(Tier::kHbm, 1e9, 850e9);
    MemoryTier ddr(Tier::kDdr, 1e12, 13e9);
    CachedEmbeddingStore store(std::move(backing), {4, 4}, &hbm, &ddr);

    std::vector<float> a(4), b(4);
    for (int64_t r = 0; r < 64; r++) {
        store.ReadRow(r, a.data());
        copy.ReadRow(r, b.data());
        EXPECT_EQ(a, b) << r;
    }
    EXPECT_GT(store.stats().misses, 0u);
}

TEST(CachedEmbeddingStore, WriteBackReachesBackingOnFlush)
{
    ops::EmbeddingTable backing(8, 2);
    MemoryTier hbm(Tier::kHbm, 1e9, 850e9);
    MemoryTier ddr(Tier::kDdr, 1e12, 13e9);
    CachedEmbeddingStore store(std::move(backing), {2, 2}, &hbm, &ddr);

    const float row[2] = {7.0f, -3.0f};
    store.WriteRow(5, row);
    std::vector<float> out(2);
    store.ReadRow(5, out.data());
    EXPECT_EQ(out[0], 7.0f);

    store.Flush();
    store.backing().ReadRow(5, out.data());
    EXPECT_EQ(out[0], 7.0f);
    EXPECT_EQ(out[1], -3.0f);
}

TEST(CachedEmbeddingStore, RepeatedAccessHitsInCache)
{
    ops::EmbeddingTable backing(1024, 8);
    MemoryTier hbm(Tier::kHbm, 1e9, 850e9);
    MemoryTier ddr(Tier::kDdr, 1e12, 13e9);
    CachedEmbeddingStore store(std::move(backing), {64, 32}, &hbm, &ddr);

    std::vector<float> buf(8);
    for (int pass = 0; pass < 10; pass++) {
        for (int64_t r = 0; r < 100; r++) {
            store.ReadRow(r, buf.data());
        }
    }
    // 100 cold misses, everything else hits (100 rows << 2048 slots).
    EXPECT_EQ(store.stats().misses, 100u);
    EXPECT_EQ(store.stats().hits, 900u);
    // DDR traffic is one fetch per miss.
    EXPECT_EQ(ddr.read_bytes(), 100u * 8 * 4);
}

TEST(CachedEmbeddingStore, ZipfBeatsUniformHitRate)
{
    auto run = [](double zipf_s) {
        ops::EmbeddingTable backing(100000, 4);
        MemoryTier hbm(Tier::kHbm, 1e9, 850e9);
        MemoryTier ddr(Tier::kDdr, 1e12, 13e9);
        // Small cache: 128 sets x 32 ways = 4096 rows of 100K.
        CachedEmbeddingStore store(std::move(backing), {128, 32}, &hbm,
                                   &ddr);
        Rng rng(17);
        ZipfSampler sampler(100000, zipf_s);
        std::vector<float> buf(4);
        for (int i = 0; i < 50000; i++) {
            store.ReadRow(static_cast<int64_t>(sampler.Sample(rng)),
                          buf.data());
        }
        return store.stats().HitRate();
    };
    const double zipf_rate = run(1.1);
    const double uniform_rate = run(0.0);
    EXPECT_GT(zipf_rate, 0.5);
    EXPECT_LT(uniform_rate, 0.2);
    EXPECT_GT(zipf_rate, uniform_rate + 0.3);
}

// -------------------------------------------------------------- UvmStore

TEST(UvmPagedStore, FaultsOncePerResidentPage)
{
    ops::EmbeddingTable backing(1024, 8);  // 32 B rows
    MemoryTier hbm(Tier::kHbm, 1e9, 850e9);
    MemoryTier pcie(Tier::kDdr, 1e12, 13e9);
    // 256 B pages = 8 rows/page; budget 16 pages.
    UvmPagedStore store(std::move(backing), 256, 16 * 256, &hbm, &pcie);
    EXPECT_EQ(store.RowsPerPage(), 8u);
    EXPECT_EQ(store.MaxResidentPages(), 16u);

    std::vector<float> buf(8);
    for (int64_t r = 0; r < 64; r++) {
        store.ReadRow(r, buf.data());
    }
    EXPECT_EQ(store.stats().page_faults, 8u);  // 64 rows / 8 per page
    // Second sweep hits entirely (8 pages < 16 budget).
    for (int64_t r = 0; r < 64; r++) {
        store.ReadRow(r, buf.data());
    }
    EXPECT_EQ(store.stats().page_faults, 8u);
}

TEST(UvmPagedStore, EvictsWhenOverBudget)
{
    ops::EmbeddingTable backing(1024, 8);
    MemoryTier hbm(Tier::kHbm, 1e9, 850e9);
    MemoryTier pcie(Tier::kDdr, 1e12, 13e9);
    UvmPagedStore store(std::move(backing), 256, 4 * 256, &hbm, &pcie);

    std::vector<float> buf(8);
    // Touch 8 pages with a 4-page budget: evictions must occur.
    for (int64_t r = 0; r < 64; r += 8) {
        store.ReadRow(r, buf.data());
    }
    EXPECT_EQ(store.stats().page_faults, 8u);
    EXPECT_EQ(store.stats().page_evictions, 4u);
}

TEST(UvmPagedStore, WritesVisibleInBacking)
{
    ops::EmbeddingTable backing(64, 4);
    MemoryTier hbm(Tier::kHbm, 1e9, 850e9);
    MemoryTier pcie(Tier::kDdr, 1e12, 13e9);
    UvmPagedStore store(std::move(backing), 128, 1024, &hbm, &pcie);
    const float row[4] = {1.0f, 2.0f, 3.0f, 4.0f};
    store.WriteRow(10, row);
    std::vector<float> out(4);
    store.ReadRow(10, out.data());
    EXPECT_EQ(out[2], 3.0f);
}

// ----------------------------------------------- software cache vs UVM

TEST(CacheVsUvm, SoftwareCacheMovesLessPcieTrafficOnZipf)
{
    // Same HBM budget for both; Zipf-skewed accesses to a large table.
    // Row-granular caching keeps the hot set resident; UVM drags whole
    // pages across PCIe (Sec. 4.1.3's motivation for the custom cache).
    const int64_t rows = 200000;
    const int64_t dim = 32;  // 128 B rows
    const size_t hbm_budget = 1 << 20;  // 1 MiB

    Rng rng(29);
    ZipfSampler sampler(static_cast<uint64_t>(rows), 1.05);
    std::vector<int64_t> trace(100000);
    for (auto& r : trace) {
        r = static_cast<int64_t>(sampler.Sample(rng));
    }
    std::vector<float> buf(static_cast<size_t>(dim));

    ops::EmbeddingTable backing1(rows, dim);
    MemoryTier hbm1(Tier::kHbm, 1e9, 850e9);
    MemoryTier pcie1(Tier::kDdr, 1e12, 13e9);
    // 1 MiB / 128 B = 8192 rows = 256 sets x 32 ways.
    CachedEmbeddingStore sw_cache(std::move(backing1), {256, 32}, &hbm1,
                                  &pcie1);
    for (int64_t r : trace) {
        sw_cache.ReadRow(r, buf.data());
    }

    ops::EmbeddingTable backing2(rows, dim);
    MemoryTier hbm2(Tier::kHbm, 1e9, 850e9);
    MemoryTier pcie2(Tier::kDdr, 1e12, 13e9);
    UvmPagedStore uvm(std::move(backing2), 64 * 1024, hbm_budget, &hbm2,
                      &pcie2);
    for (int64_t r : trace) {
        uvm.ReadRow(r, buf.data());
    }

    EXPECT_LT(pcie1.total_bytes() * 5, pcie2.total_bytes())
        << "software cache PCIe " << pcie1.total_bytes() << " vs UVM "
        << pcie2.total_bytes();
}

// ------------------------------------------------------------ MemoryTier

TEST(MemoryTier, TrafficAccounting)
{
    MemoryTier tier(Tier::kHbm, 32e9, 850e9);
    tier.RecordRead(850);
    tier.RecordWrite(850);
    EXPECT_EQ(tier.total_bytes(), 1700u);
    EXPECT_DOUBLE_EQ(tier.TrafficSeconds(), 1700.0 / 850e9);
    tier.ResetStats();
    EXPECT_EQ(tier.total_bytes(), 0u);
}

}  // namespace
}  // namespace neo::cache

// ------------------------------------------------- TieredEmbeddingBag

#include "cache/tiered_embedding_bag.h"

namespace neo::cache {
namespace {

/** Build identical random inputs for the tiered-vs-plain comparisons. */
struct TieredFixtureData {
    std::vector<uint32_t> lengths;
    std::vector<int64_t> indices;
    Matrix grads;
    size_t batch = 32;
};

TieredFixtureData
MakeTieredInputs(int64_t rows, int64_t dim, uint64_t seed)
{
    TieredFixtureData data;
    Rng rng(seed);
    ZipfSampler sampler(static_cast<uint64_t>(rows), 1.1);
    data.lengths.assign(data.batch, 0);
    for (size_t b = 0; b < data.batch; b++) {
        data.lengths[b] = 1 + static_cast<uint32_t>(rng.NextBounded(8));
        for (uint32_t i = 0; i < data.lengths[b]; i++) {
            data.indices.push_back(
                static_cast<int64_t>(sampler.Sample(rng)));
        }
    }
    data.grads = Matrix(data.batch, static_cast<size_t>(dim));
    data.grads.InitUniform(rng, -0.1f, 0.1f);
    return data;
}

TEST(TieredEmbeddingBag, PlainStoreMatchesEmbeddingBagBitwise)
{
    const int64_t rows = 300, dim = 16;
    const TieredFixtureData data = MakeTieredInputs(rows, dim, 3);
    ops::SparseOptimizerConfig config;
    config.kind = ops::SparseOptimizerKind::kRowWiseAdaGrad;
    config.learning_rate = 0.05f;

    // Reference: the in-memory EmbeddingBagCollection path.
    ops::EmbeddingBagCollection ebc({{rows, dim, Precision::kFp32}},
                                    config, 9);
    std::vector<ops::TableInput> inputs = {
        {data.lengths, data.indices}};
    std::vector<Matrix> ref_out;
    std::vector<Matrix> grads = {data.grads};
    for (int step = 0; step < 5; step++) {
        ebc.Forward(inputs, data.batch, ref_out);
        ebc.BackwardAndUpdate(inputs, data.batch, grads);
    }

    // Tiered path over a plain store with identical init.
    ops::EmbeddingTable table(rows, dim);
    table.InitDeterministic(ops::EmbeddingBagCollection::TableSeed(9, 0),
                            0, 0, dim);
    ops::PlainRowStore store(std::move(table));
    TieredEmbeddingBag bag(&store, config);
    Matrix tiered_out;
    for (int step = 0; step < 5; step++) {
        bag.Forward({data.lengths, data.indices}, data.batch, tiered_out);
        bag.BackwardAndUpdate({data.lengths, data.indices}, data.batch,
                              data.grads);
    }

    EXPECT_TRUE(Matrix::Identical(ref_out[0], tiered_out));
    EXPECT_TRUE(
        ops::EmbeddingTable::Identical(ebc.table(0), store.table()));
}

TEST(TieredEmbeddingBag, CachedStoreIsTransparentAfterFlush)
{
    const int64_t rows = 400, dim = 8;
    const TieredFixtureData data = MakeTieredInputs(rows, dim, 5);
    ops::SparseOptimizerConfig config;
    config.kind = ops::SparseOptimizerKind::kRowWiseAdaGrad;

    ops::EmbeddingTable plain(rows, dim);
    plain.InitDeterministic(1, 0, 0, dim);
    ops::PlainRowStore plain_store(std::move(plain));
    TieredEmbeddingBag plain_bag(&plain_store, config);

    ops::EmbeddingTable backing(rows, dim);
    backing.InitDeterministic(1, 0, 0, dim);
    MemoryTier hbm(Tier::kHbm, 1e9, 850e9);
    MemoryTier ddr(Tier::kDdr, 1e12, 13e9);
    // Cache much smaller than the table: lots of eviction traffic.
    CachedRowStore cached_store(CachedEmbeddingStore(
        std::move(backing), {2, 32}, &hbm, &ddr));
    TieredEmbeddingBag cached_bag(&cached_store, config);

    Matrix out_plain, out_cached;
    for (int step = 0; step < 5; step++) {
        plain_bag.Forward({data.lengths, data.indices}, data.batch,
                          out_plain);
        plain_bag.BackwardAndUpdate({data.lengths, data.indices},
                                    data.batch, data.grads);
        cached_bag.Forward({data.lengths, data.indices}, data.batch,
                           out_cached);
        cached_bag.BackwardAndUpdate({data.lengths, data.indices},
                                     data.batch, data.grads);
        // The cache is lossless: pooled outputs match bitwise every step.
        ASSERT_TRUE(Matrix::Identical(out_plain, out_cached)) << step;
    }
    // After flushing dirty rows, the backing equals the plain table.
    cached_store.store().Flush();
    EXPECT_TRUE(ops::EmbeddingTable::Identical(
        plain_store.table(), cached_store.store().backing()));
    EXPECT_GT(cached_store.store().stats().dirty_writebacks, 0u);
}

TEST(TieredEmbeddingBag, UvmStoreTrainsEquivalently)
{
    const int64_t rows = 256, dim = 8;
    const TieredFixtureData data = MakeTieredInputs(rows, dim, 7);
    ops::SparseOptimizerConfig config;
    config.kind = ops::SparseOptimizerKind::kSgd;
    config.learning_rate = 0.1f;

    ops::EmbeddingTable plain(rows, dim);
    plain.InitDeterministic(2, 0, 0, dim);
    ops::PlainRowStore plain_store(std::move(plain));
    TieredEmbeddingBag plain_bag(&plain_store, config);

    ops::EmbeddingTable backing(rows, dim);
    backing.InitDeterministic(2, 0, 0, dim);
    MemoryTier hbm(Tier::kHbm, 1e9, 850e9);
    MemoryTier pcie(Tier::kDdr, 1e12, 13e9);
    UvmRowStore uvm_store(UvmPagedStore(std::move(backing), 256,
                                        4 * 256, &hbm, &pcie));
    TieredEmbeddingBag uvm_bag(&uvm_store, config);

    Matrix out_plain, out_uvm;
    for (int step = 0; step < 3; step++) {
        plain_bag.Forward({data.lengths, data.indices}, data.batch,
                          out_plain);
        plain_bag.BackwardAndUpdate({data.lengths, data.indices},
                                    data.batch, data.grads);
        uvm_bag.Forward({data.lengths, data.indices}, data.batch, out_uvm);
        uvm_bag.BackwardAndUpdate({data.lengths, data.indices}, data.batch,
                                  data.grads);
        ASSERT_TRUE(Matrix::Identical(out_plain, out_uvm)) << step;
    }
    EXPECT_GT(uvm_store.store().stats().page_faults, 0u);
}

TEST(TieredEmbeddingBag, OutOfRangeRowThrowsAndLeavesStateUntouched)
{
    const int64_t rows = 300, dim = 8;
    const TieredFixtureData data = MakeTieredInputs(rows, dim, 11);
    ops::SparseOptimizerConfig config;
    config.kind = ops::SparseOptimizerKind::kRowWiseAdaGrad;
    config.learning_rate = 0.05f;

    auto make_store = [&] {
        ops::EmbeddingTable table(rows, dim);
        table.InitDeterministic(4, 0, 0, dim);
        return ops::PlainRowStore(std::move(table));
    };
    const ops::TableInput good{data.lengths, data.indices};

    // The bad batch names valid rows as well, and its bad row sorts last,
    // so an update that wrote as it went would have touched the store.
    std::vector<int64_t> bad_indices = data.indices;
    bad_indices.back() = rows;
    const ops::TableInput bad{data.lengths, bad_indices};

    ops::PlainRowStore store = make_store();
    TieredEmbeddingBag bag(&store, config);
    bag.BackwardAndUpdate(good, data.batch, data.grads);
    const ops::EmbeddingTable before = store.table();
    EXPECT_THROW(bag.BackwardAndUpdate(bad, data.batch, data.grads),
                 std::runtime_error);
    EXPECT_TRUE(ops::EmbeddingTable::Identical(before, store.table()));

    // The row moments are untouched too: the next step lands exactly
    // where it lands on a bag that never saw the bad batch.
    bag.BackwardAndUpdate(good, data.batch, data.grads);
    ops::PlainRowStore clean_store = make_store();
    TieredEmbeddingBag clean(&clean_store, config);
    clean.BackwardAndUpdate(good, data.batch, data.grads);
    clean.BackwardAndUpdate(good, data.batch, data.grads);
    EXPECT_TRUE(
        ops::EmbeddingTable::Identical(clean_store.table(), store.table()));
}

TEST(TieredEmbeddingBag, RejectsUnsupportedOptimizer)
{
    ops::EmbeddingTable table(10, 4);
    ops::PlainRowStore store(std::move(table));
    ops::SparseOptimizerConfig config;
    config.kind = ops::SparseOptimizerKind::kAdam;
    EXPECT_THROW(TieredEmbeddingBag(&store, config), std::runtime_error);
}

}  // namespace
}  // namespace neo::cache
