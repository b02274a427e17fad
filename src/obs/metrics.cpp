#include "obs/metrics.hpp"

#include "common/json.hpp"
#include "obs/profiler.hpp"

namespace parabit::obs {

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry instance;
    return instance;
}

std::uint64_t *
MetricsRegistry::counterSlot(const std::string &name)
{
    if (!enabled_)
        return nullptr;
    return &counters_.try_emplace(name, 0).first->second;
}

double *
MetricsRegistry::gaugeSlot(const std::string &name)
{
    if (!enabled_)
        return nullptr;
    return &gauges_.try_emplace(name, 0.0).first->second;
}

Histogram *
MetricsRegistry::histogramSlot(const std::string &name, double lo, double hi,
                               std::size_t buckets)
{
    if (!enabled_)
        return nullptr;
    return &hists_.try_emplace(name, lo, hi, buckets).first->second;
}

std::string
MetricsRegistry::toJson() const
{
    PROFILE_SCOPE(Subsystem::kObs);
    json::Writer w;
    w.beginObject();
    w.key("counters").beginObject();
    for (const auto &[name, v] : counters_)
        w.field(name, v);
    w.endObject();
    w.key("gauges").beginObject();
    for (const auto &[name, v] : gauges_)
        w.field(name, v);
    w.endObject();
    w.key("histograms").beginObject();
    for (const auto &[name, h] : hists_) {
        w.key(name).beginObject();
        w.field("total", h.total());
        w.field("underflow", h.underflow());
        w.field("overflow", h.overflow());
        w.key("buckets").beginArray();
        for (std::size_t i = 0; i < h.buckets(); ++i)
            w.value(h.bucketCount(i));
        w.endArray();
        w.endObject();
    }
    w.endObject();
    w.endObject();
    return w.str();
}

void
MetricsRegistry::zero()
{
    for (auto &[name, v] : counters_)
        v = 0;
    for (auto &[name, v] : gauges_)
        v = 0.0;
    for (auto &[name, h] : hists_)
        h.reset();
}

void
MetricsRegistry::clear()
{
    counters_.clear();
    gauges_.clear();
    hists_.clear();
}

} // namespace parabit::obs
