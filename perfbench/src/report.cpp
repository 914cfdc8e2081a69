#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "common/stats.h"

namespace perfbench {

double
Median(std::vector<double> values)
{
    if (values.empty()) {
        return 0.0;
    }
    const size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + mid, values.end());
    const double upper = values[mid];
    if (values.size() % 2 == 1) {
        return upper;
    }
    const double lower =
        *std::max_element(values.begin(), values.begin() + mid);
    return 0.5 * (lower + upper);
}

double
Pct(const std::vector<double>& values, double p)
{
    return values.empty() ? 0.0 : neo::Percentile(values, p);
}

double
Report::Value(const std::string& name) const
{
    for (const auto& m : metrics_) {
        if (m.name == name) {
            return m.value;
        }
    }
    return 0.0;
}

void
Report::Add(const std::string& name, const std::string& unit, double value)
{
    metrics_.push_back({name, unit, value});
}

void
Report::Fail(const std::string& what)
{
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    failures_.push_back(what);
}

void
Report::PrintTables() const
{
    std::printf("%-28s %16s  %s\n", "metric", "value", "unit");
    for (const auto& m : metrics_) {
        std::printf("%-28s %16.6g  %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("\n%-22s %10s %10s %8s %8s %8s\n", "phase", "attempted",
                "ok", "shed", "not_ok", "wrong");
    for (const auto& p : phases_) {
        std::printf("%-22s %10llu %10llu %8llu %8llu %8llu\n",
                    p.phase.c_str(),
                    static_cast<unsigned long long>(p.attempted),
                    static_cast<unsigned long long>(p.ok),
                    static_cast<unsigned long long>(p.shed),
                    static_cast<unsigned long long>(p.not_ok),
                    static_cast<unsigned long long>(p.wrong));
    }
    for (const auto& note : notes_) {
        std::printf("note: %s\n", note.c_str());
    }
    for (const auto& failure : failures_) {
        std::printf("FAILED CHECK: %s\n", failure.c_str());
    }
}

std::string
Report::ResultJson() const
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    for (const auto& p : phases_) {
        attempted += p.attempted;
        failed += p.failed();
    }
    std::string json = "{\"correct\": ";
    json += correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto& m : metrics_) {
        char value[64];
        // Non-finite values are not JSON; they only arise from a broken
        // run, which the checks already mark incorrect.
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(m.value) ? m.value : -1.0);
        json += first ? "" : ", ";
        json += "\"" + m.name + "\": {\"value\": " + value +
                ", \"unit\": \"" + m.unit + "\"}";
        first = false;
    }
    json += "}}";
    return json;
}

}  // namespace perfbench
