/**
 * @file
 * Simulator self-benchmark: how fast does the simulator itself run?
 *
 * Every other bench measures the *simulated device*; this one measures
 * the *simulator* — host events processed per wall second, retired NVMe
 * commands per wall second, peak RSS, and the self-profiler's
 * attribution of CPU time to subsystems (event engine, scheduler,
 * flash array, FTL, observability).  The workload is a fixed seeded
 * mix of reads, writes, XOR formulas and flushes through the full
 * HostInterface/controller/FTL/timing stack, so a regression anywhere
 * in the hot path shows up here.
 *
 *   bench_simspeed [--json FILE] [--check BASELINE] [--min-ratio F]
 *                  [--rounds N]
 *
 * `--check` compares this run's events_per_sec against the baseline
 * JSON (the committed BENCH_simspeed.json) and exits nonzero when it
 * falls below min-ratio x baseline — the CI perf-regression gate.  The
 * default ratio is deliberately loose (0.2): CI machines vary widely,
 * and the gate exists to catch order-of-magnitude slips (an
 * accidentally quadratic queue scan), not 10% noise.
 *
 * Observability: --metrics-out/--trace-out/--snapshots-out (see
 * bench/common/obs_args.hpp).  The trace produced here carries the
 * NVMe command flow events and is what CI feeds to parabit-trace for
 * flow-linkage validation.
 *
 * This bench reads std::chrono::steady_clock directly — benches are
 * exempt from the parabit-lint wall-clock rule; nothing here feeds
 * back into simulated state.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "bench/common/obs_args.hpp"
#include "bench/common/report.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "obs/profiler.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "parabit/host_interface.hpp"
#include "ssd/event_engine.hpp"

namespace {

using namespace parabit;
using core::HostInterface;
using core::Mode;
using core::OpClass;
using core::ParaBitDevice;

constexpr std::uint16_t kQueues = 2;
constexpr std::uint16_t kDepth = 32;
constexpr int kWarmupRounds = 4;
constexpr int kDefaultRounds = 768;
constexpr std::uint64_t kPageSeed = 0x51335BEE;

std::vector<BitVector>
pages(const ssd::SsdConfig &cfg, int n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<BitVector> out;
    for (int p = 0; p < n; ++p) {
        BitVector v(cfg.geometry.pageBits());
        for (auto &w : v.words())
            w = rng.next();
        v.maskTail();
        out.push_back(std::move(v));
    }
    return out;
}

/** One round of the fixed mix; @return commands retired by pump(). */
std::size_t
mixRound(HostInterface &host, int r)
{
    for (std::uint16_t q = 0; q < kQueues; ++q) {
        for (nvme::Lpn l = 0; l < 12; ++l)
            host.submitRead(q, (l + static_cast<nvme::Lpn>(r)) % 32);
        for (nvme::Lpn l = 0; l < 4; ++l)
            host.submitWrite(q, 32 + ((l + static_cast<nvme::Lpn>(r)) % 16));
    }
    nvme::Formula f;
    f.terms.push_back(nvme::Formula::Term{nvme::OperandRef::logical(200, 4),
                                          nvme::OperandRef::logical(300, 4),
                                          flash::BitwiseOp::kXor});
    host.submitFormula(0, f);
    if (r % 8 == 7)
        host.submitFlush(1);
    const std::size_t retired = host.pump();
    for (std::uint16_t q = 0; q < kQueues; ++q)
        while (host.reap(q))
            ;
    return retired;
}

struct RunOut
{
    std::uint64_t events = 0;   ///< event-engine callbacks dispatched
    std::uint64_t commands = 0; ///< NVMe commands retired
    double wallSec = 0;
    obs::Profiler::Totals prof;
};

RunOut
run(int rounds, bench::ObsOptions &obs)
{
    using Clock = std::chrono::steady_clock;

    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const auto d = pages(dev.ssd().config(), 1, kPageSeed);
    for (nvme::Lpn l = 0; l < 48; ++l)
        dev.writeData(l, d);
    const auto x = pages(dev.ssd().config(), 4, kPageSeed + 1);
    const auto y = pages(dev.ssd().config(), 4, kPageSeed + 2);
    dev.writeData(200, x);
    dev.writeData(300, y);

    HostInterface host(dev, kQueues, kDepth, Mode::kReAllocate);

    // SLO smoke: exercised here so the metrics/snapshot artifacts the
    // bench can emit carry the obs.slo.* series.
    // The mix keeps queues deep, so command latency is dominated by
    // queue wait (seconds of simulated time); a 2 s target splits the
    // population instead of flagging everything.
    obs::SloConfig slo;
    slo.target = ticks::fromMs(2000);
    slo.objective = 0.99;
    slo.window = ticks::fromMs(500);
    host.setSlo(OpClass::kRead, slo);
    host.setSlo(OpClass::kFormula, slo);

    for (int r = 0; r < kWarmupRounds; ++r)
        (void)mixRound(host, r);

    obs::Profiler &prof = obs::Profiler::enableGlobal();
    prof.reset();
    const std::uint64_t events0 = ssd::EventEngine::processExecuted();
    const Clock::time_point t0 = Clock::now();

    RunOut out;
    for (int r = 0; r < rounds; ++r) {
        out.commands += mixRound(host, kWarmupRounds + r);
        if (obs.snapshotsWanted())
            obs.snapshots.record(dev.now());
    }

    out.wallSec = std::chrono::duration<double>(Clock::now() - t0).count();
    out.events = ssd::EventEngine::processExecuted() - events0;
    out.prof = prof.totals();
    obs::Profiler::disableGlobal();

    host.finalizeSlo();
    return out;
}

std::size_t
peakRssBytes()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage ru = {};
    if (getrusage(RUSAGE_SELF, &ru) == 0) {
#if defined(__APPLE__)
        return static_cast<std::size_t>(ru.ru_maxrss); // bytes
#else
        return static_cast<std::size_t>(ru.ru_maxrss) * 1024; // KiB
#endif
    }
#endif
    return 0;
}

/** events_per_sec of a baseline report; -1 when it is unreadable. */
double
baselineEventsPerSec(const std::string &text)
{
    json::Value doc;
    std::string err;
    if (!json::parse(text, doc, err))
        return -1.0;
    const json::Value *v = doc.field("events_per_sec");
    return v && v->kind == json::Value::Kind::kNumber
               ? std::strtod(v->text.c_str(), nullptr)
               : -1.0;
}

void
writeJson(const std::string &path, int rounds, const RunOut &r,
          double events_per_sec, double cmds_per_sec, std::size_t rss)
{
    json::Writer w;
    w.beginObject();
    w.field("schema_version", 1);
    w.field("tool", "bench_simspeed");
    w.key("config").beginObject();
    w.field("rounds", rounds);
    w.field("warmup_rounds", kWarmupRounds);
    w.field("queues", kQueues);
    w.field("depth", kDepth);
    w.field("page_seed", kPageSeed);
    w.endObject();
    w.field("events", r.events);
    w.field("commands", r.commands);
    w.field("wall_seconds", r.wallSec);
    w.field("events_per_sec", events_per_sec);
    w.field("sim_ops_per_sec", cmds_per_sec);
    w.field("peak_rss_bytes", rss);
    w.key("subsystems").beginObject();
    const double total = r.prof.totalSeconds();
    for (std::size_t s = 0; s < obs::kNumSubsystems; ++s) {
        w.key(obs::subsystemName(static_cast<obs::Subsystem>(s)));
        w.beginObject();
        w.field("seconds", r.prof.seconds[s]);
        w.field("share", total > 0 ? r.prof.seconds[s] / total : 0.0);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    (void)json::writeFile(path, w.str());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    std::string baseline_path;
    double min_ratio = 0.2;
    int rounds = kDefaultRounds;
    bench::ObsOptions obs;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--check" && i + 1 < argc) {
            baseline_path = argv[++i];
        } else if (arg == "--min-ratio" && i + 1 < argc) {
            min_ratio = std::strtod(argv[++i], nullptr);
        } else if (arg == "--rounds" && i + 1 < argc) {
            rounds = std::atoi(argv[++i]);
        } else if (obs.consume(argc, argv, i)) {
            continue;
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--json FILE] [--check BASELINE]"
                         " [--min-ratio F] [--rounds N]\n"
                      << bench::ObsOptions::help() << "\n";
            return 2;
        }
    }
    // Before the device exists: the scheduler binds its trace sink and
    // the metric handles bind their registry slots at construction.
    obs.enableMetrics();
    if (obs.traceWanted())
        obs::TraceSink::enableGlobal();

    bench::banner("Simulator self-profile: events/sec, CPU attribution");

    const RunOut r = run(rounds, obs);
    const double events_per_sec =
        r.wallSec > 0 ? static_cast<double>(r.events) / r.wallSec : 0.0;
    const double cmds_per_sec =
        r.wallSec > 0 ? static_cast<double>(r.commands) / r.wallSec : 0.0;
    const std::size_t rss = peakRssBytes();

    bench::section("throughput");
    std::printf("  rounds                          %12d\n", rounds);
    std::printf("  engine events dispatched        %12llu\n",
                static_cast<unsigned long long>(r.events));
    std::printf("  commands retired                %12llu\n",
                static_cast<unsigned long long>(r.commands));
    std::printf("  wall seconds                    %12.3f\n", r.wallSec);
    std::printf("  events / sec                    %12.0f\n",
                events_per_sec);
    std::printf("  simulated ops / sec             %12.0f\n", cmds_per_sec);
    std::printf("  peak RSS (MiB)                  %12.1f\n",
                static_cast<double>(rss) / (1024.0 * 1024.0));

    bench::section("self-time by subsystem");
    const double total = r.prof.totalSeconds();
    for (std::size_t s = 0; s < obs::kNumSubsystems; ++s) {
        std::printf("  %-14s %10.4f s  %6.1f %%  %12llu entries\n",
                    obs::subsystemName(static_cast<obs::Subsystem>(s)),
                    r.prof.seconds[s],
                    total > 0 ? 100.0 * r.prof.seconds[s] / total : 0.0,
                    static_cast<unsigned long long>(r.prof.entries[s]));
    }
    bench::note("self time: nested scopes charge the innermost subsystem; "
                "\"other\" is everything outside a PROFILE_SCOPE (host "
                "loop, NVMe encode/decode, bitvector math)");

    if (!json_path.empty())
        writeJson(json_path, rounds, r, events_per_sec, cmds_per_sec, rss);

    int rc = 0;
    if (!baseline_path.empty()) {
        std::ifstream in(baseline_path);
        std::stringstream ss;
        ss << in.rdbuf();
        const double base = baselineEventsPerSec(ss.str());
        bench::section("regression gate");
        if (!in || base <= 0) {
            std::printf("  cannot read baseline %s\n",
                        baseline_path.c_str());
            rc = 1;
        } else {
            const double ratio = base > 0 ? events_per_sec / base : 0.0;
            std::printf("  baseline events/sec             %12.0f\n", base);
            std::printf("  this run / baseline             %12.2f\n",
                        ratio);
            std::printf("  minimum allowed ratio           %12.2f\n",
                        min_ratio);
            if (ratio < min_ratio) {
                std::printf("  REGRESSION: below gate\n");
                rc = 1;
            } else {
                std::printf("  ok\n");
            }
        }
    }

    return obs.finish() && rc == 0 ? 0 : (rc ? rc : 2);
}
