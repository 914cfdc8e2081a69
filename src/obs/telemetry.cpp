#include "obs/telemetry.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/logging.h"
#include "common/serialize.h"
#include "obs/trace.h"

namespace neo::obs {

namespace {

void
WriteBreakdown(BinaryWriter& writer, const StepBreakdown& b)
{
    writer.Write<BreakdownCategories>(b.categories);
    writer.Write<double>(b.step_seconds);
    writer.Write<int32_t>(b.steps);
}

StepBreakdown
ReadBreakdown(BinaryReader& reader)
{
    StepBreakdown b;
    b.categories = reader.Read<BreakdownCategories>();
    b.step_seconds = reader.Read<double>();
    b.steps = reader.Read<int32_t>();
    return b;
}

void
AppendEscaped(std::string& out, const std::string& s)
{
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

}  // namespace

// GCC 12 miscomputes object sizes through the inlined vector::insert in
// BinaryWriter::Write here and reports an impossible overflow (the
// "writing 1 or more bytes into a region of size 0" false positive).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wstringop-overflow"
#endif

std::vector<uint8_t>
SerializeRankTelemetry(const RankTelemetry& t)
{
    BinaryWriter writer;
    // Spans dominate the payload; pre-sizing keeps the serialize loop
    // from reallocating per span.
    writer.Reserve(1024 + t.spans.size() * 64);
    writer.Write<uint32_t>(kTelemetryMagic);
    writer.Write<uint32_t>(kTelemetryVersion);
    writer.Write<int32_t>(t.rank);
    writer.Write<int64_t>(t.clock_ns);

    writer.Write<uint64_t>(t.metrics.counters.size());
    for (const auto& [name, value] : t.metrics.counters) {
        writer.WriteString(name);
        writer.Write<uint64_t>(value);
    }
    writer.Write<uint64_t>(t.metrics.gauges.size());
    for (const auto& [name, value] : t.metrics.gauges) {
        writer.WriteString(name);
        writer.Write<double>(value);
    }
    writer.Write<uint64_t>(t.metrics.histograms.size());
    for (const auto& [name, snap] : t.metrics.histograms) {
        writer.WriteString(name);
        writer.Write<Histogram::Snapshot>(snap);
    }

    WriteBreakdown(writer, t.breakdown);

    writer.Write<uint64_t>(t.spans.size());
    for (const HarvestedSpan& span : t.spans) {
        writer.WriteString(span.name);
        writer.WriteString(span.cat);
        writer.Write<int64_t>(span.start_ns);
        writer.Write<int64_t>(span.dur_ns);
        writer.Write<int32_t>(span.rank);
        writer.Write<uint32_t>(span.tid);
        writer.Write<uint16_t>(span.depth);
    }
    return writer.buffer();
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

RankTelemetry
DeserializeRankTelemetry(std::vector<uint8_t> bytes)
{
    BinaryReader reader(std::move(bytes));
    const uint32_t magic = reader.Read<uint32_t>();
    NEO_REQUIRE(magic == kTelemetryMagic,
                "telemetry payload: bad magic ", magic);
    const uint32_t version = reader.Read<uint32_t>();
    NEO_REQUIRE(version == kTelemetryVersion,
                "telemetry payload: unsupported version ", version);

    RankTelemetry t;
    t.rank = reader.Read<int32_t>();
    t.clock_ns = reader.Read<int64_t>();

    // Every count is checked against the bytes left, at the smallest
    // wire size of one entry (a name's length prefix plus its value),
    // before anything is reserved for it.
    const uint64_t n_counters =
        reader.ReadCount(sizeof(uint64_t) + sizeof(uint64_t));
    t.metrics.counters.reserve(n_counters);
    for (uint64_t i = 0; i < n_counters; i++) {
        std::string name = reader.ReadString();
        const uint64_t value = reader.Read<uint64_t>();
        t.metrics.counters.emplace_back(std::move(name), value);
    }
    const uint64_t n_gauges =
        reader.ReadCount(sizeof(uint64_t) + sizeof(double));
    t.metrics.gauges.reserve(n_gauges);
    for (uint64_t i = 0; i < n_gauges; i++) {
        std::string name = reader.ReadString();
        const double value = reader.Read<double>();
        t.metrics.gauges.emplace_back(std::move(name), value);
    }
    const uint64_t n_histograms =
        reader.ReadCount(sizeof(uint64_t) + sizeof(Histogram::Snapshot));
    t.metrics.histograms.reserve(n_histograms);
    for (uint64_t i = 0; i < n_histograms; i++) {
        std::string name = reader.ReadString();
        const auto snap = reader.Read<Histogram::Snapshot>();
        t.metrics.histograms.emplace_back(std::move(name), snap);
    }

    t.breakdown = ReadBreakdown(reader);

    const uint64_t n_spans = reader.ReadCount(
        2 * sizeof(uint64_t) + 2 * sizeof(int64_t) + sizeof(int32_t) +
        sizeof(uint32_t) + sizeof(uint16_t));
    t.spans.reserve(n_spans);
    for (uint64_t i = 0; i < n_spans; i++) {
        HarvestedSpan span;
        span.name = reader.ReadString();
        span.cat = reader.ReadString();
        span.start_ns = reader.Read<int64_t>();
        span.dur_ns = reader.Read<int64_t>();
        span.rank = reader.Read<int32_t>();
        span.tid = reader.Read<uint32_t>();
        span.depth = reader.Read<uint16_t>();
        t.spans.push_back(std::move(span));
    }
    return t;
}

FleetTelemetry
HarvestTelemetry(comm::ProcessGroup& pg, const HarvestOptions& options)
{
    const int rank = pg.Rank();
    const int size = pg.Size();
    NEO_REQUIRE(options.root >= 0 && options.root < size,
                "harvest root ", options.root, " out of range for world of ",
                size);

    // Line the fleet up, then sample the clock: every rank's sample is
    // taken within one barrier-release of the others, which is what
    // makes root_clock − rank_clock a usable offset.
    pg.Barrier();
    const int64_t clock_ns = NowNs();

    RankTelemetry local;
    local.rank = rank;
    local.clock_ns = clock_ns;
    local.metrics = MetricsRegistry::Get().Export();

    const std::vector<Span> all_spans = Tracer::Get().Collect();
    local.breakdown =
        StepBreakdown::FromSpans(all_spans, rank, options.step_name);

    std::vector<Span> mine;
    mine.reserve(all_spans.size());
    for (const Span& span : all_spans) {
        // Shared-pool (untagged) spans belong to no rank; the root
        // contributes them so the merged timeline still shows them once.
        if (span.rank == rank || (rank == options.root && span.rank < 0)) {
            mine.push_back(span);
        }
    }
    std::stable_sort(mine.begin(), mine.end(),
                     [](const Span& a, const Span& b) {
                         return a.start_ns < b.start_ns;
                     });
    const size_t keep = std::min(options.max_spans, mine.size());
    local.spans.reserve(keep);
    for (size_t i = mine.size() - keep; i < mine.size(); i++) {
        const Span& span = mine[i];
        HarvestedSpan h;
        h.name = span.name != nullptr ? span.name : "";
        h.cat = span.cat != nullptr ? span.cat : "";
        h.start_ns = span.start_ns;
        h.dur_ns = span.dur_ns;
        h.rank = span.rank;
        h.tid = span.tid;
        h.depth = span.depth;
        local.spans.push_back(std::move(h));
    }

    std::vector<std::vector<uint8_t>> send(static_cast<size_t>(size));
    send[static_cast<size_t>(options.root)] = SerializeRankTelemetry(local);
    std::vector<std::vector<uint8_t>> recv;
    pg.AllToAllBytes(send, recv);

    FleetTelemetry fleet;
    if (rank != options.root) {
        return fleet;
    }
    fleet.ranks.resize(static_cast<size_t>(size));
    for (int r = 0; r < size; r++) {
        NEO_REQUIRE(!recv[static_cast<size_t>(r)].empty(),
                    "harvest: rank ", r, " sent no telemetry");
        fleet.ranks[static_cast<size_t>(r)] =
            DeserializeRankTelemetry(std::move(recv[static_cast<size_t>(r)]));
        NEO_REQUIRE(fleet.ranks[static_cast<size_t>(r)].rank == r,
                    "harvest: payload from rank ", r, " claims rank ",
                    fleet.ranks[static_cast<size_t>(r)].rank);
    }
    const int64_t root_clock =
        fleet.ranks[static_cast<size_t>(options.root)].clock_ns;
    for (RankTelemetry& t : fleet.ranks) {
        t.clock_offset_ns = root_clock - t.clock_ns;
    }
    return fleet;
}

std::vector<StepBreakdown>
FleetTelemetry::Breakdowns() const
{
    std::vector<StepBreakdown> out;
    out.reserve(ranks.size());
    for (const RankTelemetry& t : ranks) {
        out.push_back(t.breakdown);
    }
    return out;
}

std::string
FleetTelemetry::MergedChromeJson() const
{
    // Flatten to (aligned span, owning-rank offset) and sort by aligned
    // begin time: a uniform per-rank shift preserves each rank's span
    // nesting, and a time-ordered stream is friendliest to viewers.
    struct Aligned {
        const HarvestedSpan* span;
        int64_t ts_ns;
    };
    std::vector<Aligned> events;
    std::map<int, bool> pids_seen;
    for (const RankTelemetry& t : ranks) {
        for (const HarvestedSpan& span : t.spans) {
            events.push_back(Aligned{&span, span.start_ns + t.clock_offset_ns});
            pids_seen[span.rank] = true;
        }
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const Aligned& a, const Aligned& b) {
                         return a.ts_ns < b.ts_ns;
                     });

    std::string out;
    out.reserve(128 + events.size() * 96);
    out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    char buf[160];
    for (const auto& [rank, unused] : pids_seen) {
        (void)unused;
        if (!first) {
            out += ",";
        }
        first = false;
        std::snprintf(buf, sizeof(buf),
                      "{\"ph\":\"M\",\"pid\":%d,\"tid\":0,"
                      "\"name\":\"process_name\",\"args\":{\"name\":\"",
                      rank + 1);
        out += buf;
        if (rank >= 0) {
            out += "rank " + std::to_string(rank);
        } else {
            out += "shared pool";
        }
        out += "\"}}";
    }
    for (const Aligned& event : events) {
        if (!first) {
            out += ",";
        }
        first = false;
        out += "{\"name\":\"";
        AppendEscaped(out, event.span->name);
        out += "\",\"cat\":\"";
        AppendEscaped(out, event.span->cat);
        std::snprintf(buf, sizeof(buf),
                      "\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                      "\"pid\":%d,\"tid\":%u}",
                      static_cast<double>(event.ts_ns) / 1e3,
                      static_cast<double>(event.span->dur_ns) / 1e3,
                      event.span->rank + 1, event.span->tid);
        out += buf;
    }
    out += "]}";
    return out;
}

bool
FleetTelemetry::WriteMergedChromeJson(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    const std::string json = MergedChromeJson();
    const size_t written = std::fwrite(json.data(), 1, json.size(), f);
    return std::fclose(f) == 0 && written == json.size();
}

StragglerVerdict
FleetTelemetry::AnalyzeStragglers() const
{
    return StragglerDetector::Get().AnalyzeBreakdowns(Breakdowns());
}

}  // namespace neo::obs
