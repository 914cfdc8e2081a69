#include "core/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>

#include "common/logging.h"
#include "core/distributed_trainer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace neo::core {

namespace {

constexpr uint32_t kDeltaMagic = 0x44454C54;     // 'DELT'
constexpr uint32_t kBaselineMagic = 0x4E434B50;  // 'NCKP'
constexpr uint32_t kDeltaStreamMagic = 0x4E434B44;  // 'NCKD'

/** StateFloatsPerRow for a given optimizer config and shard width. */
size_t
StateFloatsPerRowFor(const ops::SparseOptimizerConfig& config, int64_t dim)
{
    // A one-row probe optimizer is the cheapest way to keep the layout
    // definition in exactly one place (SparseOptimizer).
    return ops::SparseOptimizer(config, 1, dim).StateFloatsPerRow();
}

/** Export every row's optimizer state into one flat vector. */
std::vector<float>
ExportAllRowState(const ops::SparseOptimizer& opt, int64_t rows)
{
    const size_t sfpr = opt.StateFloatsPerRow();
    std::vector<float> state(static_cast<size_t>(rows) * sfpr);
    for (int64_t r = 0; r < rows; r++) {
        opt.ExportRowState(r, state.data() + static_cast<size_t>(r) * sfpr);
    }
    return state;
}

/** Write `bytes` to `path` atomically (temp file + rename). */
void
WriteFileAtomic(const std::filesystem::path& path,
                const std::vector<uint8_t>& bytes)
{
    const std::filesystem::path tmp = path.string() + ".tmp";
    {
        std::FILE* f = std::fopen(tmp.c_str(), "wb");
        NEO_REQUIRE(f != nullptr, "cannot open for write: ", tmp.string());
        const size_t written =
            std::fwrite(bytes.data(), 1, bytes.size(), f);
        std::fclose(f);
        NEO_REQUIRE(written == bytes.size(), "short write to ",
                    tmp.string());
    }
    std::filesystem::rename(tmp, path);
}

std::vector<uint8_t>
ReadFileBytes(const std::filesystem::path& path)
{
    std::FILE* f = std::fopen(path.c_str(), "rb");
    NEO_REQUIRE(f != nullptr, "cannot open for read: ", path.string());
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    std::vector<uint8_t> bytes(static_cast<size_t>(size));
    const size_t read = std::fread(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    NEO_REQUIRE(read == bytes.size(), "short read from ", path.string());
    return bytes;
}

/** Zero-padded delta file name, sortable by sequence. */
std::string
DeltaFileName(size_t seq)
{
    char name[32];
    std::snprintf(name, sizeof(name), "delta_%05zu.bin", seq);
    return name;
}

/**
 * The rows one rank's delta carries, copied out of the live shards while
 * the model is frozen at the checkpointed step. SerializeDelta turns it
 * into the store's delta-stream bytes.
 */
struct DeltaCapture {
    /** One shard's (or DP table's) changed-row set. */
    struct Entry {
        int32_t table = -1;
        bool is_dp = false;
        int64_t row_begin = 0;
        int64_t row_end = 0;
        int64_t dim = 0;
        uint32_t sfpr = 0;
        /** Global row ids of the touched rows. */
        std::vector<int64_t> changed;
        /** Touched-row values, changed.size() x dim. */
        std::vector<float> payload;
        /** Touched-row optimizer state, changed.size() x sfpr. */
        std::vector<float> opt_payload;
    };
    int rank = 0;
    uint64_t epoch = 0;
    std::vector<Entry> entries;
    /** Rank 0's replicated dense state (empty elsewhere). */
    bool has_dense = false;
    std::vector<uint8_t> dense_blob;
};

/**
 * Scan one shard (or DP table) against its reference copy: collect the
 * rows whose values or optimizer state changed since the last checkpoint
 * and bring the reference up to date.
 */
DeltaCapture::Entry
CaptureEntry(int table, bool is_dp, int64_t row_begin,
             const ops::EmbeddingTable& current,
             const ops::SparseOptimizer& opt, ops::EmbeddingTable& ref_table,
             std::vector<float>& ref_opt_state)
{
    const int64_t rows = current.rows();
    const int64_t dim = current.dim();
    const size_t sfpr = opt.StateFloatsPerRow();
    DeltaCapture::Entry entry;
    entry.table = table;
    entry.is_dp = is_dp;
    entry.row_begin = row_begin;
    entry.row_end = row_begin + rows;
    entry.dim = dim;
    entry.sfpr = static_cast<uint32_t>(sfpr);

    std::vector<float> cur_row(static_cast<size_t>(dim));
    std::vector<float> ref_row(static_cast<size_t>(dim));
    std::vector<float> cur_opt(sfpr);
    for (int64_t r = 0; r < rows; r++) {
        current.ReadRow(r, cur_row.data());
        ref_table.ReadRow(r, ref_row.data());
        opt.ExportRowState(r, cur_opt.data());
        float* ref_opt = ref_opt_state.data() + static_cast<size_t>(r) * sfpr;
        const bool row_changed =
            std::memcmp(cur_row.data(), ref_row.data(),
                        static_cast<size_t>(dim) * sizeof(float)) != 0;
        const bool opt_changed =
            sfpr > 0 &&
            std::memcmp(cur_opt.data(), ref_opt, sfpr * sizeof(float)) != 0;
        if (row_changed || opt_changed) {
            // Delta rows carry GLOBAL row ids so restore can assemble
            // logical tables without knowing the writer's sharding.
            entry.changed.push_back(row_begin + r);
            entry.payload.insert(entry.payload.end(), cur_row.begin(),
                                 cur_row.end());
            entry.opt_payload.insert(entry.opt_payload.end(),
                                     cur_opt.begin(), cur_opt.end());
            ref_table.WriteRow(r, cur_row.data());
            std::memcpy(ref_opt, cur_opt.data(), sfpr * sizeof(float));
        }
    }
    return entry;
}

/** The delta-stream bytes CheckpointStore::AppendDelta stores. */
std::vector<uint8_t>
SerializeDelta(const DeltaCapture& capture)
{
    NEO_TRACE_SPAN("checkpoint_serialize", "recovery");
    BinaryWriter writer;
    writer.Write<uint32_t>(kDeltaStreamMagic);
    writer.Write<int32_t>(capture.rank);
    writer.Write<uint64_t>(capture.epoch);
    writer.Write<uint64_t>(capture.entries.size());
    for (const DeltaCapture::Entry& entry : capture.entries) {
        writer.Write<int32_t>(entry.table);
        writer.Write<uint8_t>(entry.is_dp ? 1 : 0);
        writer.Write<int64_t>(entry.row_begin);
        writer.Write<int64_t>(entry.row_end);
        writer.Write<int64_t>(0);
        writer.Write<int64_t>(entry.dim);
        writer.Write<uint32_t>(entry.sfpr);
        writer.WriteVector(entry.changed);
        writer.WriteVector(entry.payload);
        writer.WriteVector(entry.opt_payload);
    }
    writer.Write<uint8_t>(capture.has_dense ? 1 : 0);
    if (capture.has_dense) {
        writer.WriteVector(capture.dense_blob);
    }
    return writer.buffer();
}

}  // namespace

DeltaCheckpointer::DeltaCheckpointer(ops::EmbeddingTable* table)
    : table_(table), reference_(*table)
{
    NEO_REQUIRE(table_ != nullptr, "null table");
}

std::vector<uint8_t>
DeltaCheckpointer::WriteBaseline()
{
    BinaryWriter writer;
    table_->Save(writer);
    reference_ = *table_;
    delta_seq_ = 0;
    return writer.buffer();
}

std::vector<uint8_t>
DeltaCheckpointer::WriteDelta()
{
    const int64_t rows = table_->rows();
    const int64_t dim = table_->dim();
    NEO_REQUIRE(reference_.rows() == rows && reference_.dim() == dim,
                "reference/table shape drift");

    std::vector<int64_t> changed;
    std::vector<float> payload;
    std::vector<float> current(static_cast<size_t>(dim));
    std::vector<float> previous(static_cast<size_t>(dim));
    for (int64_t r = 0; r < rows; r++) {
        table_->ReadRow(r, current.data());
        reference_.ReadRow(r, previous.data());
        if (std::memcmp(current.data(), previous.data(),
                        static_cast<size_t>(dim) * sizeof(float)) != 0) {
            changed.push_back(r);
            payload.insert(payload.end(), current.begin(), current.end());
            reference_.WriteRow(r, current.data());
        }
    }
    last_delta_rows_ = changed.size();

    BinaryWriter writer;
    writer.Write<uint32_t>(kDeltaMagic);
    writer.Write<int64_t>(rows);
    writer.Write<int64_t>(dim);
    writer.Write<uint64_t>(delta_seq_++);
    writer.WriteVector(changed);
    writer.WriteVector(payload);
    return writer.buffer();
}

ops::EmbeddingTable
DeltaCheckpointer::Restore(const std::vector<uint8_t>& baseline,
                           const std::vector<std::vector<uint8_t>>& deltas)
{
    BinaryReader base_reader(baseline);
    ops::EmbeddingTable table = ops::EmbeddingTable::Load(base_reader);
    uint64_t expected_seq = 0;
    for (const auto& delta : deltas) {
        BinaryReader reader(delta);
        NEO_REQUIRE(reader.Read<uint32_t>() == kDeltaMagic,
                    "bad delta magic");
        const int64_t rows = reader.Read<int64_t>();
        const int64_t dim = reader.Read<int64_t>();
        NEO_REQUIRE(rows == table.rows() && dim == table.dim(),
                    "delta shape mismatch: delta is ", rows, "x", dim,
                    ", table is ", table.rows(), "x", table.dim());
        const uint64_t seq = reader.Read<uint64_t>();
        NEO_REQUIRE(seq == expected_seq,
                    "delta out of order: expected sequence ", expected_seq,
                    ", got ", seq);
        expected_seq++;
        const auto changed = reader.ReadVector<int64_t>();
        const auto payload = reader.ReadVector<float>();
        NEO_REQUIRE(payload.size() ==
                        changed.size() * static_cast<size_t>(dim),
                    "delta payload size mismatch");
        for (size_t i = 0; i < changed.size(); i++) {
            NEO_REQUIRE(changed[i] >= 0 && changed[i] < rows,
                        "delta row id ", changed[i], " out of range [0, ",
                        rows, ")");
            table.WriteRow(changed[i],
                           payload.data() + i * static_cast<size_t>(dim));
        }
    }
    return table;
}

// ---------------------------------------------------------------------------
// CheckpointStore
// ---------------------------------------------------------------------------

CheckpointStore::CheckpointStore(std::string directory)
    : dir_(std::move(directory))
{
    NEO_REQUIRE(!dir_.empty(), "empty checkpoint directory");
    std::filesystem::create_directories(dir_);
}

std::string
CheckpointStore::RankDir(int rank) const
{
    return (std::filesystem::path(dir_) / ("rank_" + std::to_string(rank)))
        .string();
}

void
CheckpointStore::PutBaseline(int rank, std::vector<uint8_t> bytes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    generation_++;
    if (!dir_.empty()) {
        // A new baseline supersedes the rank's whole chain on disk too.
        const std::filesystem::path rank_dir(RankDir(rank));
        std::filesystem::remove_all(rank_dir);
        std::filesystem::create_directories(rank_dir);
        WriteFileAtomic(rank_dir / "baseline.bin", bytes);
        return;
    }
    Entry& entry = entries_[rank];
    entry.baseline = std::move(bytes);
    entry.deltas.clear();
}

void
CheckpointStore::AppendDelta(int rank, std::vector<uint8_t> bytes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    generation_++;
    if (!dir_.empty()) {
        const std::filesystem::path rank_dir(RankDir(rank));
        NEO_REQUIRE(std::filesystem::exists(rank_dir / "baseline.bin"),
                    "delta appended before any baseline for rank ", rank);
        size_t seq = 0;
        while (std::filesystem::exists(rank_dir / DeltaFileName(seq))) {
            seq++;
        }
        WriteFileAtomic(rank_dir / DeltaFileName(seq), bytes);
        return;
    }
    const auto it = entries_.find(rank);
    NEO_REQUIRE(it != entries_.end(),
                "delta appended before any baseline for rank ", rank);
    it->second.deltas.push_back(std::move(bytes));
}

std::vector<uint8_t>
CheckpointStore::Baseline(int rank) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!dir_.empty()) {
        const std::filesystem::path file =
            std::filesystem::path(RankDir(rank)) / "baseline.bin";
        NEO_REQUIRE(std::filesystem::exists(file),
                    "no baseline stored for rank ", rank);
        return ReadFileBytes(file);
    }
    const auto it = entries_.find(rank);
    NEO_REQUIRE(it != entries_.end(), "no baseline stored for rank ", rank);
    return it->second.baseline;
}

std::vector<std::vector<uint8_t>>
CheckpointStore::Deltas(int rank) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!dir_.empty()) {
        const std::filesystem::path rank_dir(RankDir(rank));
        NEO_REQUIRE(std::filesystem::exists(rank_dir / "baseline.bin"),
                    "no checkpoint stored for rank ", rank);
        std::vector<std::vector<uint8_t>> deltas;
        for (size_t seq = 0;
             std::filesystem::exists(rank_dir / DeltaFileName(seq)); seq++) {
            deltas.push_back(ReadFileBytes(rank_dir / DeltaFileName(seq)));
        }
        return deltas;
    }
    const auto it = entries_.find(rank);
    NEO_REQUIRE(it != entries_.end(), "no checkpoint stored for rank ", rank);
    return it->second.deltas;
}

std::vector<int>
CheckpointStore::Ranks() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<int> ranks;
    if (!dir_.empty()) {
        for (const auto& entry :
             std::filesystem::directory_iterator(dir_)) {
            const std::string name = entry.path().filename().string();
            if (entry.is_directory() && name.rfind("rank_", 0) == 0 &&
                std::filesystem::exists(entry.path() / "baseline.bin")) {
                ranks.push_back(std::stoi(name.substr(5)));
            }
        }
        std::sort(ranks.begin(), ranks.end());
        return ranks;
    }
    ranks.reserve(entries_.size());
    for (const auto& [rank, entry] : entries_) {
        ranks.push_back(rank);
    }
    return ranks;
}

uint64_t
CheckpointStore::TotalBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    uint64_t total = 0;
    if (!dir_.empty()) {
        for (const auto& entry :
             std::filesystem::recursive_directory_iterator(dir_)) {
            if (entry.is_regular_file()) {
                total += entry.file_size();
            }
        }
        return total;
    }
    for (const auto& [rank, entry] : entries_) {
        total += entry.baseline.size();
        for (const auto& delta : entry.deltas) {
            total += delta.size();
        }
    }
    return total;
}

uint64_t
CheckpointStore::Generation() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return generation_;
}

// ---------------------------------------------------------------------------
// DistributedCheckpointer
// ---------------------------------------------------------------------------

DistributedCheckpointer::DistributedCheckpointer(DistributedDlrm& trainer,
                                                 CheckpointStore& store)
    : trainer_(trainer), store_(store)
{
}

void
DistributedCheckpointer::AgreeEpoch()
{
    // All ranks propose epoch_ + 1; the AllReduce sum equals
    // world * (epoch_ + 1) iff every rank agrees — any rank entering with
    // a different epoch (missed or doubled checkpoint) is detected.
    const uint64_t next = epoch_ + 1;
    float sum = static_cast<float>(next);
    trainer_.pg_.AllReduceSum(&sum, 1);
    const float expected =
        static_cast<float>(next) * static_cast<float>(trainer_.world_);
    NEO_REQUIRE(sum == expected,
                "checkpoint epoch divergence across ranks: expected sum ",
                expected, ", got ", sum);
    epoch_ = next;
}

void
DistributedCheckpointer::WriteBaseline()
{
    NEO_TRACE_SPAN("checkpoint_baseline", "recovery");
    AgreeEpoch();

    BinaryWriter writer;
    writer.Write<uint32_t>(kBaselineMagic);
    writer.Write<int32_t>(trainer_.rank_);
    writer.Write<uint64_t>(epoch_);
    const uint64_t num_entries =
        trainer_.shards_.size() +
        (trainer_.rank_ == 0 ? trainer_.dp_tables_.size() : 0);
    writer.Write<uint64_t>(num_entries);

    shard_refs_.clear();
    for (const auto& shard : trainer_.shards_) {
        writer.Write<int32_t>(shard.meta.table);
        writer.Write<uint8_t>(0);  // is_dp
        writer.Write<int64_t>(shard.meta.row_begin);
        writer.Write<int64_t>(shard.meta.row_end);
        writer.Write<int64_t>(shard.meta.col_begin);
        writer.Write<int64_t>(shard.meta.col_end);
        writer.Write<uint32_t>(
            static_cast<uint32_t>(shard.optimizer.StateFloatsPerRow()));
        shard.table.Save(writer);
        auto opt_state =
            ExportAllRowState(shard.optimizer, shard.table.rows());
        writer.WriteVector(opt_state);
        shard_refs_.push_back({shard.table, std::move(opt_state)});
    }
    dp_refs_.clear();
    if (trainer_.rank_ == 0) {
        for (const auto& dp : trainer_.dp_tables_) {
            writer.Write<int32_t>(dp.table);
            writer.Write<uint8_t>(1);  // is_dp
            writer.Write<int64_t>(0);
            writer.Write<int64_t>(dp.replica.rows());
            writer.Write<int64_t>(0);
            writer.Write<int64_t>(dp.replica.dim());
            writer.Write<uint32_t>(
                static_cast<uint32_t>(dp.optimizer.StateFloatsPerRow()));
            dp.replica.Save(writer);
            auto opt_state =
                ExportAllRowState(dp.optimizer, dp.replica.rows());
            writer.WriteVector(opt_state);
            dp_refs_.push_back({dp.replica, std::move(opt_state)});
        }
    }

    // The dense MLPs + dense optimizer are replicated and small relative
    // to the tables, so rank 0 stores them in full every time instead of
    // delta-encoding them.
    writer.Write<uint8_t>(trainer_.rank_ == 0 ? 1 : 0);
    if (trainer_.rank_ == 0) {
        BinaryWriter dense;
        trainer_.bottom_->Save(dense);
        trainer_.top_->Save(dense);
        trainer_.dense_opt_.Save(dense);
        writer.WriteVector(dense.buffer());
    }

    store_.PutBaseline(trainer_.rank_, writer.buffer());
    obs::MetricsRegistry::Get()
        .GetCounter("neo.core.checkpoint_baselines")
        .Add();
}

void
DistributedCheckpointer::WriteDelta()
{
    NEO_TRACE_SPAN("checkpoint_delta", "recovery");
    NEO_REQUIRE(shard_refs_.size() == trainer_.shards_.size(),
                "WriteDelta before WriteBaseline");
    DeltaCapture capture;
    {
        NEO_TRACE_SPAN("checkpoint_capture", "recovery");
        AgreeEpoch();
        capture.rank = trainer_.rank_;
        capture.epoch = epoch_;
        for (size_t i = 0; i < trainer_.shards_.size(); i++) {
            const auto& shard = trainer_.shards_[i];
            capture.entries.push_back(CaptureEntry(
                shard.meta.table, false, shard.meta.row_begin, shard.table,
                shard.optimizer, shard_refs_[i].table,
                shard_refs_[i].opt_state));
        }
        if (trainer_.rank_ == 0) {
            NEO_REQUIRE(dp_refs_.size() == trainer_.dp_tables_.size(),
                        "DP reference bookkeeping mismatch");
            for (size_t i = 0; i < trainer_.dp_tables_.size(); i++) {
                const auto& dp = trainer_.dp_tables_[i];
                capture.entries.push_back(CaptureEntry(
                    dp.table, true, 0, dp.replica, dp.optimizer,
                    dp_refs_[i].table, dp_refs_[i].opt_state));
            }
            capture.has_dense = true;
            BinaryWriter dense;
            trainer_.bottom_->Save(dense);
            trainer_.top_->Save(dense);
            trainer_.dense_opt_.Save(dense);
            capture.dense_blob = dense.buffer();
        }
    }

    last_delta_rows_ = 0;
    for (const DeltaCapture::Entry& entry : capture.entries) {
        last_delta_rows_ += entry.changed.size();
    }
    store_.AppendDelta(capture.rank, SerializeDelta(capture));
    obs::MetricsRegistry::Get()
        .GetCounter("neo.core.checkpoint_deltas")
        .Add();
}

AssembledCheckpoint
AssembledCheckpoint::FromStore(const CheckpointStore& store,
                               const DlrmConfig& config)
{
    AssembledCheckpoint assembled;
    std::map<int, LogicalTable>& logical = assembled.tables;
    std::vector<uint8_t>& dense_blob = assembled.dense_blob;
    std::optional<uint64_t> final_epoch;

    auto read_entry = [&](BinaryReader& reader, bool is_delta) {
        const int32_t table = reader.Read<int32_t>();
        NEO_REQUIRE(table >= 0 &&
                        table < static_cast<int32_t>(config.tables.size()),
                    "checkpoint entry references unknown table ", table);
        const auto& cfg = config.tables[table];
        reader.Read<uint8_t>();  // is_dp: placement hint only
        const int64_t row_begin = reader.Read<int64_t>();
        const int64_t row_end = reader.Read<int64_t>();
        const int64_t col_begin = reader.Read<int64_t>();
        const int64_t col_end = reader.Read<int64_t>();
        const uint32_t sfpr = reader.Read<uint32_t>();
        NEO_REQUIRE(col_begin == 0 && col_end == cfg.dim,
                    "column-wise shards are not supported by elastic "
                    "restore (table ", table, " columns [", col_begin, ", ",
                    col_end, ") of ", cfg.dim, ")");
        NEO_REQUIRE(row_begin >= 0 && row_begin <= row_end &&
                        row_end <= cfg.rows,
                    "checkpoint row range out of bounds");
        const size_t expected_sfpr =
            StateFloatsPerRowFor(config.sparse_optimizer, cfg.dim);
        NEO_REQUIRE(sfpr == expected_sfpr,
                    "optimizer state layout mismatch: checkpoint has ",
                    sfpr, " floats/row, model expects ", expected_sfpr);

        auto it = logical.find(table);
        if (it == logical.end()) {
            it = logical
                     .emplace(table,
                              LogicalTable(
                                  ops::EmbeddingTable(cfg.rows, cfg.dim,
                                                      cfg.precision),
                                  expected_sfpr))
                     .first;
        }
        LogicalTable& full = it->second;
        std::vector<float> row(static_cast<size_t>(cfg.dim));

        if (!is_delta) {
            ops::EmbeddingTable piece = ops::EmbeddingTable::Load(reader);
            NEO_REQUIRE(piece.rows() == row_end - row_begin &&
                            piece.dim() == cfg.dim,
                        "baseline shard shape mismatch");
            const auto opt = reader.ReadVector<float>();
            NEO_REQUIRE(opt.size() == static_cast<size_t>(piece.rows()) *
                                          expected_sfpr,
                        "baseline optimizer state size mismatch");
            for (int64_t r = 0; r < piece.rows(); r++) {
                piece.ReadRow(r, row.data());
                full.table.WriteRow(row_begin + r, row.data());
            }
            std::memcpy(full.opt_state.data() +
                            static_cast<size_t>(row_begin) * expected_sfpr,
                        opt.data(), opt.size() * sizeof(float));
        } else {
            const auto changed = reader.ReadVector<int64_t>();
            const auto payload = reader.ReadVector<float>();
            const auto opt_payload = reader.ReadVector<float>();
            NEO_REQUIRE(payload.size() ==
                                changed.size() *
                                    static_cast<size_t>(cfg.dim) &&
                            opt_payload.size() ==
                                changed.size() * expected_sfpr,
                        "delta payload size mismatch");
            for (size_t i = 0; i < changed.size(); i++) {
                const int64_t g = changed[i];
                NEO_REQUIRE(g >= row_begin && g < row_end,
                            "delta row id ", g,
                            " outside its entry's row range");
                full.table.WriteRow(
                    g, payload.data() + i * static_cast<size_t>(cfg.dim));
                std::memcpy(full.opt_state.data() +
                                static_cast<size_t>(g) * expected_sfpr,
                            opt_payload.data() + i * expected_sfpr,
                            expected_sfpr * sizeof(float));
            }
        }
    };

    for (const int wr : store.Ranks()) {
        // Baseline stream.
        BinaryReader reader(store.Baseline(wr));
        NEO_REQUIRE(reader.Read<uint32_t>() == kBaselineMagic,
                    "bad baseline magic for rank ", wr);
        NEO_REQUIRE(reader.Read<int32_t>() == wr,
                    "baseline stream rank mismatch");
        uint64_t epoch = reader.Read<uint64_t>();
        const uint64_t base_entries = reader.Read<uint64_t>();
        for (uint64_t e = 0; e < base_entries; e++) {
            read_entry(reader, /*is_delta=*/false);
        }
        if (reader.Read<uint8_t>() != 0) {
            dense_blob = reader.ReadVector<uint8_t>();
        }

        // Delta chain, with epoch continuity.
        for (const auto& delta : store.Deltas(wr)) {
            BinaryReader dr(delta);
            NEO_REQUIRE(dr.Read<uint32_t>() == kDeltaStreamMagic,
                        "bad delta magic for rank ", wr);
            NEO_REQUIRE(dr.Read<int32_t>() == wr,
                        "delta stream rank mismatch");
            const uint64_t delta_epoch = dr.Read<uint64_t>();
            NEO_REQUIRE(delta_epoch == epoch + 1,
                        "delta out of order for rank ", wr, ": expected "
                        "epoch ", epoch + 1, ", got ", delta_epoch);
            epoch = delta_epoch;
            const uint64_t entries = dr.Read<uint64_t>();
            for (uint64_t e = 0; e < entries; e++) {
                read_entry(dr, /*is_delta=*/true);
            }
            if (dr.Read<uint8_t>() != 0) {
                dense_blob = dr.ReadVector<uint8_t>();
            }
        }
        NEO_REQUIRE(!final_epoch.has_value() || *final_epoch == epoch,
                    "checkpoint streams end at different epochs (rank ", wr,
                    " at ", epoch, ", earlier ranks at ", *final_epoch, ")");
        final_epoch = epoch;
    }
    NEO_REQUIRE(final_epoch.has_value(), "checkpoint store is empty");
    NEO_REQUIRE(!dense_blob.empty(),
                "checkpoint has no dense (MLP) state — rank 0's stream is "
                "missing or incomplete");
    assembled.epoch = *final_epoch;
    return assembled;
}

void
DistributedCheckpointer::RestoreInto(const CheckpointStore& store,
                                     DistributedDlrm& target)
{
    NEO_TRACE_SPAN("checkpoint_restore", "recovery");
    const AssembledCheckpoint assembled =
        AssembledCheckpoint::FromStore(store, target.config_);
    const std::map<int, AssembledCheckpoint::LogicalTable>& logical =
        assembled.tables;

    // Slice the logical tables onto the target's (possibly different)
    // sharding.
    std::vector<float> row_buf;
    for (auto& shard : target.shards_) {
        const auto it = logical.find(shard.meta.table);
        NEO_REQUIRE(it != logical.end(), "checkpoint is missing table ",
                    shard.meta.table);
        const auto& full = it->second;
        NEO_REQUIRE(shard.meta.col_begin == 0 &&
                        shard.meta.col_end == full.table.dim(),
                    "elastic restore cannot fill column-wise target shards");
        row_buf.resize(static_cast<size_t>(full.table.dim()));
        for (int64_t r = 0; r < shard.table.rows(); r++) {
            const int64_t g = shard.meta.row_begin + r;
            full.table.ReadRow(g, row_buf.data());
            shard.table.WriteRow(r, row_buf.data());
            if (full.sfpr > 0) {
                shard.optimizer.ImportRowState(
                    r, full.opt_state.data() +
                           static_cast<size_t>(g) * full.sfpr);
            }
        }
    }
    for (auto& dp : target.dp_tables_) {
        const auto it = logical.find(dp.table);
        NEO_REQUIRE(it != logical.end(), "checkpoint is missing DP table ",
                    dp.table);
        const auto& full = it->second;
        dp.replica = full.table;
        if (full.sfpr > 0) {
            for (int64_t r = 0; r < dp.replica.rows(); r++) {
                dp.optimizer.ImportRowState(
                    r, full.opt_state.data() +
                           static_cast<size_t>(r) * full.sfpr);
            }
        }
    }

    BinaryReader dense(assembled.dense_blob);
    target.bottom_->Load(dense);
    target.top_->Load(dense);
    target.dense_opt_.Load(dense);

    // Consistency check on the (possibly shrunken) target group: every
    // rank must have restored the same epoch.
    float sum = static_cast<float>(assembled.epoch);
    target.pg_.AllReduceSum(&sum, 1);
    NEO_REQUIRE(sum == static_cast<float>(assembled.epoch) *
                           static_cast<float>(target.world_),
                "restored epoch differs across target ranks");
    obs::MetricsRegistry::Get().GetCounter("neo.core.restores").Add();
}

}  // namespace neo::core
