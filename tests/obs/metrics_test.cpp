/**
 * @file
 * Unit tests for the metrics registry and its instrument handles:
 * disabled-by-default local behaviour, slot registration, aggregation
 * of same-name handles, zero(), and the JSON dump.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/json.hpp"
#include "obs/metrics.hpp"

namespace parabit::obs {
namespace {

/** Enables the global registry for the test's scope, then wipes it. */
class RegistryScope
{
  public:
    RegistryScope() { MetricsRegistry::global().setEnabled(true); }

    ~RegistryScope()
    {
        MetricsRegistry::global().setEnabled(false);
        MetricsRegistry::global().clear();
    }
};

TEST(Metrics, DisabledHandlesStayLocal)
{
    ASSERT_FALSE(MetricsRegistry::global().enabled());
    Counter c("test.disabled.counter");
    ++c;
    c += 4;
    EXPECT_EQ(c.value(), 5u);
    Gauge g("test.disabled.gauge");
    g.set(2.5);
    g.noteMax(1.0);
    EXPECT_DOUBLE_EQ(g.value(), 2.5);
    Hist h("test.disabled.hist", 0.0, 1.0, 4);
    EXPECT_FALSE(h.live());
    h.sample(0.5); // no-op, must not crash
    // Nothing registered while disabled.
    EXPECT_EQ(MetricsRegistry::global().counters().count(
                  "test.disabled.counter"),
              0u);
    EXPECT_EQ(MetricsRegistry::global().gauges().count(
                  "test.disabled.gauge"),
              0u);
}

TEST(Metrics, EnabledHandlesRegister)
{
    RegistryScope scope;
    Counter c("test.counter");
    c += 7;
    Gauge g("test.gauge");
    g.noteMax(3.0);
    g.noteMax(1.0); // high watermark keeps 3.0
    Hist h("test.hist", 0.0, 10.0, 10);
    ASSERT_TRUE(h.live());
    h.sample(4.5);
    h.sample(-1.0);

    const MetricsRegistry &r = MetricsRegistry::global();
    ASSERT_EQ(r.counters().count("test.counter"), 1u);
    EXPECT_EQ(r.counters().at("test.counter"), 7u);
    EXPECT_DOUBLE_EQ(r.gauges().at("test.gauge"), 3.0);
    EXPECT_EQ(r.histograms().at("test.hist").total(), 2u);
    EXPECT_EQ(r.histograms().at("test.hist").underflow(), 1u);
}

TEST(Metrics, SameNameHandlesAggregate)
{
    RegistryScope scope;
    // Two devices constructing the same instrument share one slot.
    Counter a("test.shared");
    Counter b("test.shared");
    a += 2;
    b += 3;
    EXPECT_EQ(a.value(), 2u);
    EXPECT_EQ(b.value(), 3u);
    EXPECT_EQ(MetricsRegistry::global().counters().at("test.shared"), 5u);
}

TEST(Metrics, ZeroKeepsSlotsValid)
{
    RegistryScope scope;
    Counter c("test.zeroed");
    c += 9;
    MetricsRegistry::global().zero();
    EXPECT_EQ(MetricsRegistry::global().counters().at("test.zeroed"), 0u);
    // The handle's slot pointer must still be usable after zero().
    ++c;
    EXPECT_EQ(MetricsRegistry::global().counters().at("test.zeroed"), 1u);
    EXPECT_EQ(c.value(), 10u);
}

TEST(Metrics, JsonDumpContainsInstruments)
{
    RegistryScope scope;
    Counter c("a.count");
    c += 42;
    Gauge g("b.gauge");
    g.set(1.5);
    Hist h("c.hist", 0.0, 2.0, 2);
    h.sample(0.5);
    h.sample(1.5);
    const std::string json = MetricsRegistry::global().toJson();
    EXPECT_NE(json.find("\"a.count\": 42"), std::string::npos);
    EXPECT_NE(json.find("\"b.gauge\": 1.5"), std::string::npos);
    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::parse(json, doc, err)) << err;
    const json::Value *hist = doc.field("histograms")->field("c.hist");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->field("total")->text, "2");
    const json::Value *buckets = hist->field("buckets");
    ASSERT_NE(buckets, nullptr);
    ASSERT_EQ(buckets->items.size(), 2u);
    EXPECT_EQ(buckets->items[0].text, "1");
    EXPECT_EQ(buckets->items[1].text, "1");
}

TEST(Metrics, JsonDumpIsSortedAndByteStable)
{
    // The dump is diffed across runs and committed as a CI trajectory
    // artifact, so key order must be lexicographic regardless of
    // registration order and two identical registries must render
    // byte-identically.
    std::string first, second;
    for (std::string *out : {&first, &second}) {
        RegistryScope scope;
        Counter z("z.last");
        Counter a("a.first");
        Gauge m("m.middle");
        z += 9;
        a += 1;
        m.set(2.25);
        *out = MetricsRegistry::global().toJson();
    }
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second);
    const std::size_t a_at = first.find("\"a.first\"");
    const std::size_t z_at = first.find("\"z.last\"");
    ASSERT_NE(a_at, std::string::npos);
    ASSERT_NE(z_at, std::string::npos);
    EXPECT_LT(a_at, z_at);
}

TEST(Metrics, LateEnableDoesNotRetrofitHandles)
{
    // A handle built while disabled must stay local even if the
    // registry is switched on afterwards (benches enable first).
    Counter c("test.late");
    MetricsRegistry::global().setEnabled(true);
    ++c;
    EXPECT_EQ(c.value(), 1u);
    EXPECT_EQ(MetricsRegistry::global().counters().count("test.late"), 0u);
    MetricsRegistry::global().setEnabled(false);
    MetricsRegistry::global().clear();
}

} // namespace
} // namespace parabit::obs
