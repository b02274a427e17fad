#include "obs/snapshot.hpp"

#include <sstream>

#include "common/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace parabit::obs {

namespace {

/** RFC 4180 field quoting: a column holding a comma, quote, CR or LF
 *  is wrapped in double quotes with embedded quotes doubled.  Metric
 *  names are lint-constrained to dotted identifiers, but the series
 *  must stay a well-formed CSV for any registered name. */
std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\r\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

void
SnapshotSeries::record(Tick at)
{
    PROFILE_SCOPE(Subsystem::kObs);
    const MetricsRegistry &reg = MetricsRegistry::global();
    if (columns_.empty()) {
        for (const auto &[name, v] : reg.counters())
            columns_.push_back(name);
        counterCols_ = columns_.size();
        for (const auto &[name, v] : reg.gauges())
            columns_.push_back(name);
    }
    Row row;
    row.at = at;
    row.counters.reserve(counterCols_);
    for (std::size_t i = 0; i < counterCols_; ++i) {
        auto it = reg.counters().find(columns_[i]);
        row.counters.push_back(it == reg.counters().end() ? 0 : it->second);
    }
    row.gauges.reserve(columns_.size() - counterCols_);
    for (std::size_t i = counterCols_; i < columns_.size(); ++i) {
        auto it = reg.gauges().find(columns_[i]);
        row.gauges.push_back(it == reg.gauges().end() ? 0.0 : it->second);
    }
    rows_.push_back(std::move(row));
}

std::string
SnapshotSeries::toCsv() const
{
    std::ostringstream os;
    os << "tick";
    for (const std::string &c : columns_)
        os << ',' << csvField(c);
    os << '\n';
    for (const Row &r : rows_) {
        os << r.at;
        for (std::uint64_t v : r.counters)
            os << ',' << v;
        for (double v : r.gauges)
            os << ',' << v;
        os << '\n';
    }
    return os.str();
}

std::string
SnapshotSeries::toJson() const
{
    json::Writer w;
    w.beginObject();
    w.key("columns").beginArray();
    for (const std::string &c : columns_)
        w.value(c);
    w.endArray();
    w.key("rows").beginArray();
    for (const Row &r : rows_) {
        w.beginObject();
        w.field("tick", r.at);
        w.key("values").beginArray();
        for (std::uint64_t v : r.counters)
            w.value(v);
        for (double v : r.gauges)
            w.value(v);
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

} // namespace parabit::obs
