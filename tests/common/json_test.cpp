/**
 * @file
 * Unit tests for the shared JSON module: the escaper and writer round
 * trip through the parser byte for byte, the parser rejects damaged
 * documents, and every report emitter built on the writer gives back
 * the exact strings it was handed.
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "lint.hpp"
#include "model.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "trace_check.hpp"
#include "verifier.hpp"

namespace parabit::json {
namespace {

/** Every awkward byte class: quote, backslash, \n, \t, a raw control. */
const std::string kNasty = "a\"b\\c\nd\te\x01" "f";

Value
parseOk(const std::string &text)
{
    Value v;
    std::string err;
    EXPECT_TRUE(parse(text, v, err)) << err << "\n" << text;
    return v;
}

std::string
parseError(const std::string &text)
{
    Value v;
    std::string err;
    EXPECT_FALSE(parse(text, v, err)) << text;
    return err;
}

TEST(Json, EscapesControlBytesQuoteAndBackslash)
{
    std::string out;
    appendEscaped(out, "\"\\\n\t\x01\x1f");
    EXPECT_EQ(out, "\\\"\\\\\\n\\t\\u0001\\u001f");
}

TEST(Json, WriterParserRoundTripEveryAwkwardByte)
{
    std::string all;
    for (int c = 0x01; c < 0x20; ++c)
        all += static_cast<char>(c);
    all += "\"\\";
    all += "\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80"; // é € 😀 as UTF-8

    Writer w;
    w.beginObject();
    w.field(all, all);
    w.key("list").beginArray().value(all).value(kNasty).endArray();
    w.endObject();
    const Value doc = parseOk(w.str());
    ASSERT_EQ(doc.fields.size(), 2u);
    EXPECT_EQ(doc.fields[0].first, all);
    EXPECT_EQ(doc.fields[0].second.text, all);
    const Value *list = doc.field("list");
    ASSERT_NE(list, nullptr);
    ASSERT_EQ(list->items.size(), 2u);
    EXPECT_EQ(list->items[0].text, all);
    EXPECT_EQ(list->items[1].text, kNasty);
}

TEST(Json, ParserDecodesUnicodeEscapes)
{
    const Value v = parseOk("\"\\u0001\\u001F\\u0041\\/\\r\\b\\f\"");
    EXPECT_EQ(v.text, "\x01\x1f" "A/\r\b\f");
    // Non-ASCII travels as raw UTF-8, never as a \u escape.
    EXPECT_NE(parseError("\"\\u00e9\"").find("non-ASCII"),
              std::string::npos);
}

TEST(Json, WriterLayout)
{
    Writer w;
    w.beginObject();
    w.field("n", 3);
    w.field("x", 1.5);
    w.field("ok", true);
    w.key("v").beginArray().value(1).value(2).endArray();
    w.key("e").beginObject().endObject();
    w.key("rows").beginArray();
    w.beginObject().field("a", "b").endObject();
    w.endArray();
    w.endObject();
    EXPECT_EQ(w.str(), "{\n"
                       "  \"n\": 3,\n"
                       "  \"x\": 1.5,\n"
                       "  \"ok\": true,\n"
                       "  \"v\": [1, 2],\n"
                       "  \"e\": {},\n"
                       "  \"rows\": [\n"
                       "    {\n"
                       "      \"a\": \"b\"\n"
                       "    }\n"
                       "  ]\n"
                       "}\n");
}

TEST(Json, DoublesPrintLikeOstream)
{
    Writer w;
    w.beginArray();
    w.value(2555000.0).value(0.119058123).value(0.0);
    w.value(std::numeric_limits<double>::infinity());
    w.endArray();
    EXPECT_EQ(w.str(), "[2.555e+06, 0.119058, 0, null]\n");
}

TEST(Json, NumbersKeepRawText)
{
    const Value v =
        parseOk("{\"ts\": 12.345, \"seed\": 18446744073709551615}");
    EXPECT_EQ(v.field("ts")->kind, Value::Kind::kNumber);
    EXPECT_EQ(v.field("ts")->text, "12.345");
    EXPECT_EQ(v.field("seed")->text, "18446744073709551615");
    EXPECT_EQ(v.field("missing"), nullptr);
}

TEST(Json, RejectsTruncatedEscape)
{
    EXPECT_NE(parseError("\"abc\\").find("truncated escape"),
              std::string::npos);
    EXPECT_NE(parseError("\"\\u12\"").find("bad \\u escape"),
              std::string::npos);
}

TEST(Json, RejectsTrailingCharacters)
{
    const std::string err = parseError("{\"a\": 1} x");
    EXPECT_NE(err.find("trailing characters"), std::string::npos);
    EXPECT_NE(err.find("(offset 9)"), std::string::npos);
}

TEST(Json, RejectsUnterminatedString)
{
    EXPECT_NE(parseError("{\"a\": \"open").find("unterminated string"),
              std::string::npos);
}

// Report round trips: every emitter hands back the exact string.

TEST(JsonReports, VerifyFindingRoundTrips)
{
    verify::Report r;
    r.findings.push_back({"chain", kNasty, kNasty, kNasty, kNasty});
    const Value doc = parseOk(verify::toJson(r));
    const Value &f = doc.field("findings")->items.at(0);
    for (const char *k : {"subject", "message", "expected", "actual"})
        EXPECT_EQ(f.field(k)->text, kNasty) << k;
}

TEST(JsonReports, ModelFindingRoundTrips)
{
    model::ModelReport r;
    r.findings.push_back({"invariant", kNasty, kNasty, kNasty, {0, 3}});
    model::ModelOptions opts;
    opts.policies = {kNasty};
    const Value doc = parseOk(model::toJson(r, opts));
    const Value &f = doc.field("findings")->items.at(0);
    EXPECT_EQ(f.field("message")->text, kNasty);
    EXPECT_EQ(f.field("policy")->text, kNasty);
    EXPECT_EQ(doc.field("config")->field("policies")->items.at(0).text,
              kNasty);
}

TEST(JsonReports, TraceCheckFindingRoundTrips)
{
    tracecheck::CheckResult r;
    r.findings.push_back({"json", kNasty});
    const Value doc = parseOk(tracecheck::toJson(r));
    EXPECT_EQ(doc.field("findings")->items.at(0).field("message")->text,
              kNasty);
}

TEST(JsonReports, LintFindingRoundTrips)
{
    const std::vector<lint::Finding> findings = {
        {kNasty, 7, "raw-stderr", kNasty}};
    const Value doc = parseOk(lint::toJson(findings));
    const Value &f = doc.field("findings")->items.at(0);
    EXPECT_EQ(f.field("file")->text, kNasty);
    EXPECT_EQ(f.field("message")->text, kNasty);
    EXPECT_EQ(f.field("line")->text, "7");
}

/** Enables the global registry for the test's scope, then wipes it. */
class RegistryScope
{
  public:
    RegistryScope() { obs::MetricsRegistry::global().setEnabled(true); }

    ~RegistryScope()
    {
        obs::MetricsRegistry::global().setEnabled(false);
        obs::MetricsRegistry::global().clear();
    }
};

TEST(JsonReports, MetricsInstrumentNameRoundTrips)
{
    RegistryScope scope;
    obs::Counter c(kNasty);
    c += 5;
    obs::Gauge g(kNasty);
    g.set(0.5);
    obs::Hist h(kNasty, 0.0, 1.0, 2);
    h.sample(0.25);
    const Value doc = parseOk(obs::MetricsRegistry::global().toJson());
    for (const char *section : {"counters", "gauges", "histograms"}) {
        const Value *s = doc.field(section);
        ASSERT_NE(s, nullptr) << section;
        ASSERT_EQ(s->fields.size(), 1u) << section;
        EXPECT_EQ(s->fields[0].first, kNasty) << section;
    }
    EXPECT_EQ(doc.field("counters")->field(kNasty)->text, "5");
}

TEST(JsonReports, SnapshotColumnRoundTrips)
{
    RegistryScope scope;
    obs::Counter c(kNasty);
    c += 2;
    obs::SnapshotSeries series;
    series.record(10);
    const Value doc = parseOk(series.toJson());
    EXPECT_EQ(doc.field("columns")->items.at(0).text, kNasty);
    const Value &row = doc.field("rows")->items.at(0);
    EXPECT_EQ(row.field("tick")->text, "10");
    EXPECT_EQ(row.field("values")->items.at(0).text, "2");
}

} // namespace
} // namespace parabit::json
