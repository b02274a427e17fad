/**
 * @file
 * The repo benchmark's harness: runs one workload for a wall-clock
 * budget and prints its metrics, the last line as one JSON object.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--spans-out FILE] [--report FILE]
 *
 * --trace 0 runs untraced passes only and reports the end-to-end
 * metrics.  --trace 1 alternates an untraced and a traced pass (obs
 * profiler, metrics registry and trace sink on, plus the harness's own
 * spans) and reports the per-layer metrics; the untraced passes give
 * the base of obs.overhead_ratio.  Every pass of a run must repeat the
 * first pass's counts and simulated-time figures exactly, traced or
 * not; a mismatch is a harness error (exit 3), as is a result the
 * harness could not check.  Device failures are measurements, not
 * errors: they are counted in "failed", failed_share and corrupt_pages.
 * The measured workloads keep clear of the simulator's known defects;
 * --trace 1 also runs one pass of the workload in the layout that shows
 * them, off the clock, and reports it as defect.failed_share and
 * defect.corrupt_pages.
 *
 * --spans-out writes the last traced pass's spans as Chrome trace JSON.
 * --report writes the exact (must-repeat) figures of the first
 * untraced and first traced pass, for the determinism tests.
 *
 * This harness reads std::chrono::steady_clock; nothing it measures
 * feeds back into simulated state.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "ssd/event_engine.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using parabit::Tick;
using parabit::obs::Subsystem;

using Figures = std::map<std::string, double>;

constexpr double kMiB = 1024.0 * 1024.0;

/** Log lines seen so far; the sink keeps them off stderr and out of
 *  the measured regions' cost. */
struct LogCounts
{
    std::uint64_t warnings = 0;
    std::uint64_t errors = 0;
};
LogCounts g_log;

struct PassRecord
{
    bool traced = false;
    double setupS = 0.0;
    double measuredS = 0.0;
    PassResult res;
    SpanSummary spans;
    parabit::obs::Profiler::Totals profile;
    /** Counts and simulated-time figures; identical on every pass. */
    Figures exact;
    /** Registry and trace-sink counts; identical on every traced pass. */
    Figures tracedExact;
};

/** Device-wide counters read around the measured rounds. */
struct Snapshot
{
    std::uint64_t hostPages = 0;
    std::uint64_t gcPages = 0;
    std::uint64_t parabitPages = 0;
    std::uint64_t totalPages = 0;
    std::uint64_t gcRuns = 0;
    std::uint64_t erases = 0;
    std::uint64_t txSubmitted = 0;
    std::size_t maxQueueDepth = 0; ///< deepest scheduler queue, lifetime
    std::uint64_t events = 0;
};

/** Sum of the counters over @p devs, plus the engine's event count. */
Snapshot
snapshot(const std::vector<parabit::core::ParaBitDevice *> &devs)
{
    Snapshot s;
    for (parabit::core::ParaBitDevice *dev : devs) {
        const auto &ftl = dev->ssd().ftl();
        s.hostPages += ftl.hostPagesWritten();
        s.gcPages += ftl.gcPagesWritten();
        s.parabitPages += ftl.parabitPagesWritten();
        s.totalPages += ftl.totalPagesWritten();
        s.gcRuns += ftl.gcRuns();
        s.erases += ftl.blockErases();
        const auto st = dev->ssd().scheduler().stats();
        s.txSubmitted += st.submitted;
        s.maxQueueDepth = std::max(s.maxQueueDepth, st.maxQueueDepth);
    }
    s.events = parabit::ssd::EventEngine::processExecuted();
    return s;
}

/** Nearest-rank quantile @p q of @p v (sorted in place); 0 if empty. */
template <class T>
double
quantile(std::vector<T> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return static_cast<double>(v[std::max<std::size_t>(rank, 1) - 1]);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

PassRecord
runPass(Workload &wl, bool traced, const std::string &spans_out)
{
    auto &registry = parabit::obs::MetricsRegistry::global();
    // Instruments bind to the registry and the trace sink when the
    // device is built, so both are switched before set-up.
    registry.setEnabled(traced);
    if (traced) {
        registry.zero();
        parabit::obs::TraceSink::enableGlobal();
        parabit::obs::Profiler::enableGlobal().reset();
    }
    PassContext ctx(traced);
    ctx.profiler = parabit::obs::Profiler::global();
    PassRecord rec;
    rec.traced = traced;
    const LogCounts log0 = g_log;

    const Clock::time_point t0 = Clock::now();
    wl.setup();
    rec.setupS = secondsSince(t0);

    const Snapshot s0 = snapshot(wl.devices());
    wl.run(ctx, rec.res);
    const Snapshot s1 = snapshot(wl.devices());
    wl.finish(ctx, rec.res);

    const PassResult &r = rec.res;
    const std::uint64_t written = s1.hostPages - s0.hostPages +
                                  s1.parabitPages - s0.parabitPages;
    Figures &e = rec.exact;
    e["ops.attempted"] = static_cast<double>(r.attempted);
    e["ops.failed"] = static_cast<double>(r.failed);
    e["failed_share"] = ratio(static_cast<double>(r.failed),
                              static_cast<double>(r.attempted));
    e["corrupt_pages"] = static_cast<double>(r.corruptPages);
    e["host.cmds"] = static_cast<double>(r.hostCmds);
    e["host.cmds_failed"] = static_cast<double>(r.hostCmdsFailed);
    e["ftl.host_pages"] = static_cast<double>(s1.hostPages - s0.hostPages);
    e["ftl.gc_pages"] = static_cast<double>(s1.gcPages - s0.gcPages);
    e["ftl.gc_runs"] = static_cast<double>(s1.gcRuns - s0.gcRuns);
    e["ftl.erases"] = static_cast<double>(s1.erases - s0.erases);
    e["ftl.write_amp"] =
        written == 0 ? 1.0
                     : static_cast<double>(s1.totalPages - s0.totalPages) /
                           static_cast<double>(written);
    e["sched.tx_submitted"] =
        static_cast<double>(s1.txSubmitted - s0.txSubmitted);
    e["sched.max_queue_depth"] = static_cast<double>(s1.maxQueueDepth);
    e["engine.events"] = static_cast<double>(s1.events - s0.events);
    e["flash.result_mib"] = static_cast<double>(r.resultBytes) / kMiB;
    e["log.warnings"] = static_cast<double>(g_log.warnings - log0.warnings);
    e["log.errors"] = static_cast<double>(g_log.errors - log0.errors);
    e["model.sim_end_ms"] = parabit::ticks::toMs(r.simEnd);
    e["model.lat_p50_us"] =
        parabit::ticks::toUs(static_cast<Tick>(quantile(r.latencies, 0.50)));
    e["model.lat_p99_us"] =
        parabit::ticks::toUs(static_cast<Tick>(quantile(r.latencies, 0.99)));

    // Free the samples: memory must not grow with the number of passes.
    rec.res.latencies = std::vector<Tick>();

    if (traced) {
        const auto &c = registry.counters();
        const auto counter = [&](const char *name) {
            const auto it = c.find(name);
            return it == c.end() ? 0.0 : static_cast<double>(it->second);
        };
        Figures &t = rec.tracedExact;
        t["controller.sense_ops"] = counter("parabit.sense_ops");
        t["controller.page_programs"] = counter("parabit.realloc.programs");
        t["controller.realloc_mib"] = counter("parabit.realloc.bytes") / kMiB;
        t["controller.host_fallbacks"] =
            counter("parabit.ladder.host_fallbacks");
        t["obs.trace_events"] = static_cast<double>(
            parabit::obs::TraceSink::global()->eventCount());
        if (!spans_out.empty() && !ctx.spans.writeChromeJson(spans_out))
            std::cerr << "perfbench: cannot write " << spans_out << "\n";
        parabit::obs::TraceSink::disableGlobal();
        parabit::obs::Profiler::disableGlobal();
        registry.setEnabled(false);
    }
    rec.measuredS = ctx.measuredS;
    rec.spans = ctx.spans.summarize();
    rec.profile = ctx.profile;
    return rec;
}

/** Report the first key where @p got differs from @p want. */
bool
sameFigures(const Figures &want, const Figures &got, std::size_t pass)
{
    for (const auto &[k, v] : want) {
        const auto it = got.find(k);
        if (it == got.end() || it->second != v) {
            std::cerr << "perfbench: determinism error: pass " << pass
                      << " " << k << " = "
                      << (it == got.end() ? NAN : it->second)
                      << ", first pass " << v << "\n";
            return false;
        }
    }
    return true;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    /** False for figures printed for the reader but not in the result
     *  line (the untraced run's failure figures, which can be 0). */
    bool inResult = true;
};

/** Peak resident set size of this process image, from VmHWM.  Not
 *  getrusage(): its ru_maxrss survives exec, so it would report the
 *  launching process's peak when that is larger. */
double
peakRssMiB()
{
    std::ifstream in("/proc/self/status");
    std::string key;
    while (in >> key) {
        if (key == "VmHWM:") {
            double kib = 0.0;
            in >> kib;
            return kib * 1024.0 / kMiB;
        }
        in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
    return 0.0;
}

std::vector<Metric>
endToEnd(const std::vector<PassRecord> &passes)
{
    // Every pass does the same work (main() checks its figures repeat),
    // so pass-to-pass variation is host noise, which on a shared host
    // comes in phases of a few seconds that slow everything down by up
    // to ~1.7x.  A median moves with the mix of phases in a run; the
    // fastest pass is the least disturbed measurement of that work.  So
    // goodput comes from the fastest measured region, and set-up time
    // from the fastest set-up.
    double goodput = 0.0;
    double setup = std::numeric_limits<double>::infinity();
    for (const PassRecord &p : passes) {
        goodput = std::max(
            goodput, ratio(static_cast<double>(p.res.attempted - p.res.failed),
                           p.measuredS));
        setup = std::min(setup, p.setupS);
    }
    const Figures &e = passes.front().exact;
    return {
        {"goodput_ops_per_s", goodput, "ops/s"},
        {"failed_share", e.at("failed_share"), "ratio", false},
        {"corrupt_pages", e.at("corrupt_pages"), "pages", false},
        {"peak_rss_mb", peakRssMiB(), "MiB"},
        {"setup_s", setup, "s"},
    };
}

std::vector<Metric>
perLayer(const std::vector<PassRecord> &passes, const Figures &defects)
{
    std::vector<double> untracedS, tracedS;
    std::map<std::string, std::vector<double>> timed;
    std::vector<double> pumpMs;
    for (const PassRecord &p : passes) {
        if (!p.traced) {
            untracedS.push_back(p.measuredS);
            continue;
        }
        tracedS.push_back(p.measuredS);
        const SpanSummary &s = p.spans;
        const auto &prof = p.profile.seconds;
        const auto self = [&](Subsystem sub) {
            return prof[static_cast<std::size_t>(sub)];
        };
        timed["host.pump_s"].push_back(s.total(SpanName::kPump));
        timed["host.submit_s"].push_back(s.total(SpanName::kSubmit) +
                                         s.total(SpanName::kReap));
        timed["device.op_s.prealloc"].push_back(
            s.total(SpanName::kOpPrealloc));
        timed["device.op_s.locfree"].push_back(s.total(SpanName::kOpLocfree));
        timed["device.op_s.realloc"].push_back(s.total(SpanName::kOpRealloc));
        timed["bench.verify_s"].push_back(s.total(SpanName::kVerify));
        timed["bench.round_self_s"].push_back(s.self(SpanName::kRound));
        timed["ftl.self_s"].push_back(self(Subsystem::kFtl));
        timed["sched.self_s"].push_back(self(Subsystem::kSched));
        timed["engine.self_s"].push_back(self(Subsystem::kEngine));
        timed["flash.self_s"].push_back(self(Subsystem::kFlashArray));
        timed["obs.self_s"].push_back(self(Subsystem::kObs));
        timed["profiler.other_share"].push_back(
            ratio(self(Subsystem::kOther), p.profile.totalSeconds()));
        pumpMs.insert(pumpMs.end(), s.pumpMs.begin(), s.pumpMs.end());
    }
    const auto t = [&](const char *name) { return median(timed[name]); };
    const PassRecord &first_traced =
        *std::find_if(passes.begin(), passes.end(),
                      [](const PassRecord &p) { return p.traced; });
    const Figures &e = first_traced.exact;
    const Figures &x = first_traced.tracedExact;
    return {
        {"host.pump_s", t("host.pump_s"), "s"},
        {"host.pump_ms_p50", quantile(pumpMs, 0.50), "ms"},
        {"host.pump_ms_p99", quantile(pumpMs, 0.99), "ms"},
        {"host.submit_s", t("host.submit_s"), "s"},
        {"host.cmds", e.at("host.cmds"), "count"},
        {"host.cmds_failed", e.at("host.cmds_failed"), "count"},
        {"device.op_s.prealloc", t("device.op_s.prealloc"), "s"},
        {"device.op_s.locfree", t("device.op_s.locfree"), "s"},
        {"device.op_s.realloc", t("device.op_s.realloc"), "s"},
        {"controller.sense_ops", x.at("controller.sense_ops"), "count"},
        {"controller.page_programs", x.at("controller.page_programs"),
         "count"},
        {"controller.realloc_mib", x.at("controller.realloc_mib"), "MiB"},
        {"controller.host_fallbacks", x.at("controller.host_fallbacks"),
         "count"},
        {"ftl.host_pages", e.at("ftl.host_pages"), "pages"},
        {"ftl.gc_pages", e.at("ftl.gc_pages"), "pages"},
        {"ftl.gc_runs", e.at("ftl.gc_runs"), "count"},
        {"ftl.erases", e.at("ftl.erases"), "count"},
        {"ftl.write_amp", e.at("ftl.write_amp"), "ratio"},
        {"ftl.self_s", t("ftl.self_s"), "s"},
        {"sched.tx_submitted", e.at("sched.tx_submitted"), "count"},
        {"sched.max_queue_depth", e.at("sched.max_queue_depth"), "count"},
        {"sched.self_s", t("sched.self_s"), "s"},
        {"engine.events", e.at("engine.events"), "count"},
        {"engine.events_per_s", ratio(e.at("engine.events"), median(untracedS)),
         "1/s"},
        {"engine.self_s", t("engine.self_s"), "s"},
        {"flash.self_s", t("flash.self_s"), "s"},
        {"flash.result_mib", e.at("flash.result_mib"), "MiB"},
        {"obs.overhead_ratio", ratio(median(tracedS), median(untracedS)),
         "ratio"},
        {"obs.self_s", t("obs.self_s"), "s"},
        {"obs.trace_events", x.at("obs.trace_events"), "count"},
        {"profiler.other_share", t("profiler.other_share"), "ratio"},
        {"log.warnings", e.at("log.warnings"), "count"},
        {"log.errors", e.at("log.errors"), "count"},
        {"model.sim_end_ms", e.at("model.sim_end_ms"), "ms"},
        {"model.lat_p50_us", e.at("model.lat_p50_us"), "us"},
        {"model.lat_p99_us", e.at("model.lat_p99_us"), "us"},
        {"failed_share", e.at("failed_share"), "ratio"},
        {"corrupt_pages", e.at("corrupt_pages"), "pages"},
        {"defect.failed_share", defects.at("failed_share"), "ratio"},
        {"defect.corrupt_pages", defects.at("corrupt_pages"), "pages"},
        {"bench.verify_s", t("bench.verify_s"), "s"},
        {"bench.round_self_s", t("bench.round_self_s"), "s"},
    };
}

void
writeFigures(std::ostream &os, const Figures &f)
{
    os << "{";
    const char *sep = "";
    for (const auto &[k, v] : f) {
        os << sep << "\"" << k << "\": " << v;
        sep = ", ";
    }
    os << "}";
}

bool
writeReport(const std::string &path, const std::vector<PassRecord> &passes)
{
    std::ofstream os(path);
    os.precision(17);
    os << "{\"exact\": ";
    writeFigures(os, passes.front().exact);
    os << ", \"traced_exact\": ";
    const auto it = std::find_if(passes.begin(), passes.end(),
                                 [](const PassRecord &p) { return p.traced; });
    writeFigures(os, it == passes.end() ? Figures{} : it->tracedExact);
    os << "}\n";
    return static_cast<bool>(os);
}

int
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " --workload NAME --seed N --seconds S --trace 0|1"
                 " [--spans-out FILE] [--report FILE]\n  workloads:";
    for (const std::string &n : workloadNames())
        std::cerr << " " << n;
    std::cerr << "\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, spans_out, report;
    std::uint64_t seed = 0;
    double seconds = -1.0;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string arg = argv[i];
        const char *val = argv[i + 1];
        if (arg == "--workload")
            workload = val;
        else if (arg == "--seed")
            seed = std::strtoull(val, nullptr, 10);
        else if (arg == "--seconds")
            seconds = std::strtod(val, nullptr);
        else if (arg == "--trace")
            trace = std::atoi(val);
        else if (arg == "--spans-out")
            spans_out = val;
        else if (arg == "--report")
            report = val;
        else
            return usage(argv[0]);
    }
    if (argc % 2 == 0 || seconds < 0 || (trace != 0 && trace != 1))
        return usage(argv[0]);
    std::unique_ptr<Workload> wl =
        makeWorkload(workload, seed, Layout::kMeasured);
    if (!wl)
        return usage(argv[0]);

    parabit::setLogSink([](parabit::LogLevel level, const std::string &) {
        if (level == parabit::LogLevel::kWarn)
            ++g_log.warnings;
        else if (level == parabit::LogLevel::kError)
            ++g_log.errors;
    });

    // Whole passes until the budget is spent; at least three untraced
    // passes, or two untraced/traced pairs, so medians have a middle.
    // Each pass is checked against the first of its kind as it ends;
    // only those first passes keep their figures, so memory stays flat
    // however many passes fit.
    const bool traced = trace == 1;
    std::vector<PassRecord> passes;
    std::size_t first_traced = 0;
    bool correct = true;
    std::uint64_t attempted = 0, failed = 0;
    const auto check = [&](PassRecord p) {
        const std::size_t i = passes.size();
        attempted += p.res.attempted;
        failed += p.res.failed;
        if (p.res.harnessErrors != 0) {
            std::cerr << "perfbench: pass " << i << ": "
                      << p.res.harnessErrors
                      << " submissions without a matching completion\n";
            correct = false;
        }
        if (i == 0) {
            passes.push_back(std::move(p));
            return;
        }
        correct = sameFigures(passes.front().exact, p.exact, i) && correct;
        if (p.traced && first_traced == 0) {
            first_traced = i; // pass 0 is untraced, so 0 means "none yet"
        } else {
            if (p.traced)
                correct = sameFigures(passes[first_traced].tracedExact,
                                      p.tracedExact, i) &&
                          correct;
            p.exact.clear();
            p.tracedExact.clear();
        }
        passes.push_back(std::move(p));
    };
    const Clock::time_point start = Clock::now();
    for (int n = 0; n < (traced ? 2 : 3) || secondsSince(start) < seconds;
         ++n) {
        check(runPass(*wl, false, ""));
        if (traced)
            check(runPass(*wl, true, spans_out));
    }
    if (attempted == 0) {
        std::cerr << "perfbench: no op was attempted\n";
        correct = false;
    }
    // One pass in the defects layout, off the clock.  Its ops are not
    // the measured workload's, so they stay out of "attempted" and
    // "failed".
    Figures defects;
    if (traced)
        defects =
            runPass(*makeWorkload(workload, seed, Layout::kDefects), false, "")
                .exact;
    if (!report.empty() && !writeReport(report, passes)) {
        std::cerr << "perfbench: cannot write " << report << "\n";
        correct = false;
    }

    const std::vector<Metric> metrics =
        traced ? perLayer(passes, defects) : endToEnd(passes);
    std::printf("perfbench %s seed %llu: %zu passes (%s), %.1f s\n",
                workload.c_str(), static_cast<unsigned long long>(seed),
                passes.size(), traced ? "untraced/traced pairs" : "untraced",
                secondsSince(start));
    for (const Metric &m : metrics)
        std::printf("  %-28s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    const char *sep = "";
    for (const Metric &m : metrics) {
        if (!m.inResult)
            continue;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                    m.name.c_str(), m.value, m.unit.c_str());
        sep = ", ";
    }
    std::printf("}}\n");
    return correct ? 0 : 3;
}
