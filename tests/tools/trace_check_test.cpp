/**
 * @file
 * Unit tests for the parabit-trace validator: accepts traces the sink
 * actually emits and rejects each class of structural damage.
 */

#include <gtest/gtest.h>

#include <string>

#include "obs/trace.hpp"
#include "trace_check.hpp"

namespace parabit::tracecheck {
namespace {

using obs::TraceSink;
using obs::TrackId;

bool
hasFinding(const CheckResult &r, const std::string &check)
{
    for (const Finding &f : r.findings)
        if (f.check == check)
            return true;
    return false;
}

TEST(TraceCheck, AcceptsSinkOutput)
{
    TraceSink sink;
    const TrackId ch = sink.track("channels", "channel 0");
    const TrackId die = sink.track("dies", "ch0 chip0 die0 plane0");
    const TrackId host = sink.track("host", "queue 0");
    // One transaction through its phases: cmd + xfer_in on the channel,
    // array on the die, xfer_out back on the channel.
    sink.span(ch, "cmd", 0, 1000000, {{"tx", "1", false}});
    sink.span(ch, "xfer_in", 1000000, 3000000, {{"tx", "1", false}});
    sink.span(die, "array", 3000000, 9000000, {{"tx", "1", false}});
    sink.span(ch, "xfer_out", 9000000, 10000000, {{"tx", "1", false}});
    sink.asyncBegin(host, "nvme", "write", 0, 0);
    sink.asyncEnd(host, "nvme", "write", 0, 10000000);

    const CheckResult r = checkTrace(sink.toJson());
    EXPECT_TRUE(r.ok()) << toJson(r);
    EXPECT_EQ(r.stats.spans, 4u);
    EXPECT_EQ(r.stats.asyncPairs, 1u);
    EXPECT_EQ(r.stats.tracks, 3u);
    EXPECT_EQ(r.stats.processes, 3u);
}

TEST(TraceCheck, RejectsMalformedJson)
{
    const CheckResult r = checkTrace("{\"traceEvents\":[");
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasFinding(r, "json"));
}

TEST(TraceCheck, RejectsMissingTraceEvents)
{
    const CheckResult r = checkTrace("{\"events\":[]}");
    EXPECT_TRUE(hasFinding(r, "json"));
}

TEST(TraceCheck, RejectsOverlapOnResourceTrack)
{
    TraceSink sink;
    const TrackId ch = sink.track("channels", "channel 0");
    sink.span(ch, "xfer_out", 0, 5000000);
    sink.span(ch, "cmd", 2000000, 3000000); // starts inside xfer_out
    const CheckResult r = checkTrace(sink.toJson());
    EXPECT_TRUE(hasFinding(r, "track-exclusivity"));
}

TEST(TraceCheck, AllowsNestingOffResourceTracks)
{
    TraceSink sink;
    const TrackId dev = sink.track("device", "recovery");
    sink.span(dev, "power_cycle", 0, 10000000);
    sink.span(dev, "journal_replay", 2000000, 4000000); // nested: fine
    const CheckResult r = checkTrace(sink.toJson());
    EXPECT_TRUE(r.ok()) << toJson(r);
}

TEST(TraceCheck, RejectsPartialOverlapOffResourceTracks)
{
    TraceSink sink;
    const TrackId dev = sink.track("device", "recovery");
    sink.span(dev, "a", 0, 5000000);
    sink.span(dev, "b", 3000000, 8000000); // straddles a's end
    const CheckResult r = checkTrace(sink.toJson());
    EXPECT_TRUE(hasFinding(r, "span-nesting"));
}

TEST(TraceCheck, RejectsDanglingAsyncBegin)
{
    TraceSink sink;
    const TrackId host = sink.track("host", "queue 0");
    sink.asyncBegin(host, "nvme", "read", 7, 0);
    const CheckResult r = checkTrace(sink.toJson());
    EXPECT_TRUE(hasFinding(r, "async-pairing"));
}

TEST(TraceCheck, AsyncPairsDifferingOnlyInPidAreDistinct)
{
    // Same cat, id and name in two processes: two pairs, keyed by pid.
    TraceSink sink;
    const TrackId a = sink.track("host", "queue 0");
    const TrackId b = sink.track("host2", "queue 0");
    sink.asyncBegin(a, "nvme", "read", 7, 0);
    sink.asyncBegin(b, "nvme", "read", 7, 1000000);
    sink.asyncEnd(a, "nvme", "read", 7, 2000000);
    sink.asyncEnd(b, "nvme", "read", 7, 3000000);
    const CheckResult r = checkTrace(sink.toJson());
    EXPECT_TRUE(r.ok()) << toJson(r);
    EXPECT_EQ(r.stats.asyncPairs, 2u);
    EXPECT_EQ(r.stats.processes, 2u);
}

TEST(TraceCheck, RejectsAsyncNameMismatch)
{
    TraceSink sink;
    const TrackId host = sink.track("host", "queue 0");
    sink.asyncBegin(host, "nvme", "read", 7, 0);
    sink.asyncEnd(host, "nvme", "write", 7, 1000000);
    const CheckResult r = checkTrace(sink.toJson());
    EXPECT_TRUE(hasFinding(r, "async-pairing"));
}

TEST(TraceCheck, RejectsPhaseOrderViolation)
{
    TraceSink sink;
    const TrackId ch = sink.track("channels", "channel 0");
    const TrackId die = sink.track("dies", "d0");
    // xfer_out before the array phase of the same tx: impossible.
    sink.span(ch, "xfer_out", 0, 1000000, {{"tx", "5", false}});
    sink.span(die, "array", 2000000, 4000000, {{"tx", "5", false}});
    const CheckResult r = checkTrace(sink.toJson());
    EXPECT_TRUE(hasFinding(r, "phase-order"));
}

TEST(TraceCheck, RejectsUnknownPhaseNameOnResourceTrack)
{
    TraceSink sink;
    const TrackId ch = sink.track("channels", "channel 0");
    sink.span(ch, "mystery", 0, 1000000);
    const CheckResult r = checkTrace(sink.toJson());
    EXPECT_TRUE(hasFinding(r, "phase-order"));
}

TEST(TraceCheck, AllowsSuspendResumeCycles)
{
    TraceSink sink;
    const TrackId die = sink.track("dies", "d0");
    sink.span(die, "array", 0, 2000000, {{"tx", "9", false}});
    sink.span(die, "suspend", 2000000, 2100000, {{"tx", "9", false}});
    sink.span(die, "resume", 5000000, 5100000, {{"tx", "9", false}});
    sink.span(die, "array", 5100000, 7000000, {{"tx", "9", false}});
    const CheckResult r = checkTrace(sink.toJson());
    EXPECT_TRUE(r.ok()) << toJson(r);
}

TEST(TraceCheck, AcceptsLinkedFlow)
{
    TraceSink sink;
    const TrackId host = sink.track("host", "queue 0");
    const TrackId ch = sink.track("channels", "channel 0");
    const TrackId die = sink.track("dies", "d0");
    sink.span(ch, "cmd", 1000000, 2000000, {{"tx", "3", false}});
    sink.span(die, "array", 2000000, 6000000, {{"tx", "3", false}});
    sink.span(ch, "xfer_out", 6000000, 7000000, {{"tx", "3", false}});
    sink.flowStart(host, obs::kNvmeFlowCat, obs::kNvmeFlowName, 11, 0);
    sink.flowStep(ch, obs::kNvmeFlowCat, obs::kNvmeFlowName, 11, 1000000);
    sink.flowStep(die, obs::kNvmeFlowCat, obs::kNvmeFlowName, 11, 2000000);
    sink.flowEnd(host, obs::kNvmeFlowCat, obs::kNvmeFlowName, 11, 8000000);
    const CheckResult r = checkTrace(sink.toJson());
    EXPECT_TRUE(r.ok()) << toJson(r);
    EXPECT_EQ(r.stats.flows, 1u);
    EXPECT_EQ(r.stats.flowSteps, 2u);
}

TEST(TraceCheck, AcceptsSteplessFlow)
{
    TraceSink sink;
    const TrackId host = sink.track("host", "queue 0");
    sink.flowStart(host, obs::kNvmeFlowCat, obs::kNvmeFlowName, 4, 0);
    sink.flowEnd(host, obs::kNvmeFlowCat, obs::kNvmeFlowName, 4, 1000000);
    const CheckResult r = checkTrace(sink.toJson());
    EXPECT_TRUE(r.ok()) << toJson(r);
    EXPECT_EQ(r.stats.flows, 1u);
    EXPECT_EQ(r.stats.flowSteps, 0u);
}

TEST(TraceCheck, RejectsDanglingFlowStart)
{
    TraceSink sink;
    const TrackId host = sink.track("host", "queue 0");
    sink.flowStart(host, obs::kNvmeFlowCat, obs::kNvmeFlowName, 5, 0);
    const CheckResult r = checkTrace(sink.toJson());
    EXPECT_TRUE(hasFinding(r, "flow-linkage"));
}

TEST(TraceCheck, RejectsFlowStepOutsideWindow)
{
    TraceSink sink;
    const TrackId host = sink.track("host", "queue 0");
    const TrackId ch = sink.track("channels", "channel 0");
    sink.span(ch, "cmd", 9000000, 10000000, {{"tx", "6", false}});
    sink.flowStart(host, obs::kNvmeFlowCat, obs::kNvmeFlowName, 6, 0);
    // Step at the span start, but after the flow already finished.
    sink.flowStep(ch, obs::kNvmeFlowCat, obs::kNvmeFlowName, 6, 9000000);
    sink.flowEnd(host, obs::kNvmeFlowCat, obs::kNvmeFlowName, 6, 5000000);
    const CheckResult r = checkTrace(sink.toJson());
    EXPECT_TRUE(hasFinding(r, "flow-linkage"));
}

TEST(TraceCheck, RejectsFlowStepOffSpanStart)
{
    TraceSink sink;
    const TrackId host = sink.track("host", "queue 0");
    const TrackId ch = sink.track("channels", "channel 0");
    sink.span(ch, "cmd", 1000000, 3000000, {{"tx", "8", false}});
    sink.flowStart(host, obs::kNvmeFlowCat, obs::kNvmeFlowName, 8, 0);
    // Step in the middle of the span, not at its start: the binding
    // the attribution protocol promises is broken.
    sink.flowStep(ch, obs::kNvmeFlowCat, obs::kNvmeFlowName, 8, 2000000);
    sink.flowEnd(host, obs::kNvmeFlowCat, obs::kNvmeFlowName, 8, 4000000);
    const CheckResult r = checkTrace(sink.toJson());
    EXPECT_TRUE(hasFinding(r, "flow-linkage"));
}

TEST(TraceCheck, RejectsFlowStepOffResourceTracks)
{
    TraceSink sink;
    const TrackId host = sink.track("host", "queue 0");
    sink.flowStart(host, obs::kNvmeFlowCat, obs::kNvmeFlowName, 9, 0);
    sink.flowStep(host, obs::kNvmeFlowCat, obs::kNvmeFlowName, 9, 500000);
    sink.flowEnd(host, obs::kNvmeFlowCat, obs::kNvmeFlowName, 9, 1000000);
    const CheckResult r = checkTrace(sink.toJson());
    EXPECT_TRUE(hasFinding(r, "flow-linkage"));
}

TEST(TraceCheck, ReportJsonRoundTrips)
{
    TraceSink sink;
    sink.track("channels", "channel 0");
    const CheckResult r = checkTrace(sink.toJson());
    const std::string report = toJson(r);
    EXPECT_NE(report.find("\"tool\": \"parabit-trace\""),
              std::string::npos);
    EXPECT_NE(report.find("\"ok\": true"), std::string::npos);
}

} // namespace
} // namespace parabit::tracecheck
