/**
 * @file
 * Chaos / graceful-degradation benchmark: seeded correlated fault
 * storms through the full NVMe queue path, with the health state
 * machine, bounded retries, and the admission controller armed.
 *
 * Each seeded run replays the chaos-soak shape (baseline -> storm ->
 * recovery) and reports how the device degraded and came back: health
 * transitions taken, deepest state reached, commands shed / timed out /
 * requeued / write-rejected, quiet rounds until the machine returned to
 * healthy, and — the hard acceptance bar — commands lost (a cid handed
 * to the host that never reached a terminal completion; must be zero).
 *
 * `--json FILE` writes the machine-readable report (the CI trajectory
 * file `BENCH_degradation.json`).  `--trace-out FILE` re-runs one seed
 * with the Perfetto sink attached so the health state spans and
 * per-command async spans land in the trace.
 */

#include <chrono>
#include <cstdio>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bench/common/obs_args.hpp"
#include "bench/common/report.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "parabit/host_interface.hpp"
#include "ssd/fault_injector.hpp"
#include "ssd/health.hpp"

namespace {

using namespace parabit;
using core::HostInterface;

constexpr std::uint16_t kQueues = 2;
constexpr std::uint16_t kDepth = 16;
constexpr int kPreloadedLpns = 16;

ssd::SsdConfig
chaosCfg(std::uint64_t audit_interval)
{
    ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    cfg.invariants.auditInterval = audit_interval;
    cfg.media.enabled = true;
    cfg.media.scrubInterval = ticks::fromUs(2);
    cfg.media.scrubWordlinesPerPass = 16;
    cfg.rain.enabled = true;
    cfg.health.enabled = true;
    cfg.health.degradedThreshold = 4.0;
    cfg.health.readOnlyThreshold = 12.0;
    cfg.health.failedThreshold = 1e9; // a storm degrades, never kills
    cfg.health.pressureHalfLife = ticks::fromMs(2);
    cfg.health.minDwell = ticks::fromUs(200);
    cfg.health.weightRetiredBlock = 4.0; // 8 blocks/plane: each one hurts
    return cfg;
}

std::vector<BitVector>
seededPages(const ssd::SsdConfig &cfg, int n, std::uint64_t seed)
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

struct RunOut
{
    double submitted = 0;    ///< cids handed to the host
    double lost = 0;         ///< cids never reaching a completion (bar: 0)
    double sheds = 0;        ///< admission-shed completions
    double timeouts = 0;     ///< watchdog aborts
    double requeues = 0;     ///< bounded-retry resubmissions
    double writeRejects = 0; ///< writes bounced in read-only
    double transitions = 0;  ///< health state changes
    double maxState = 0;     ///< deepest state reached (1 = degraded)
    double quietRounds = 0;  ///< recovery rounds back to healthy
    double wallSec = 0;
    bool recovered = false;  ///< ended healthy
    bool monotone = false;   ///< every transition moved exactly one step
};

RunOut
run(std::uint64_t seed, std::uint64_t audit_interval)
{
    const auto t0 = std::chrono::steady_clock::now();
    const ssd::SsdConfig cfg = chaosCfg(audit_interval);
    core::ParaBitDevice dev(cfg);
    dev.writeData(0, seededPages(cfg, kPreloadedLpns, seed));

    HostInterface host(dev, kQueues, kDepth, core::Mode::kReAllocate);
    core::RetryPolicy rp;
    rp.commandTimeout = ticks::fromMs(2);
    rp.maxRequeues = 2;
    rp.backoffBase = ticks::fromUs(50);
    rp.jitterSeed = seed;
    host.setRetryPolicy(rp);
    host.setAdmissionLimit(12);

    ssd::DeviceHealth *health = dev.ssd().health();
    Rng rng(seed ^ 0xC4A05ull);
    std::set<std::uint16_t> submitted[kQueues];
    std::set<std::uint16_t> reaped[kQueues];

    const auto drainAll = [&] {
        host.pump();
        for (std::uint16_t q = 0; q < kQueues; ++q)
            while (const auto c = host.reap(q))
                reaped[q].insert(c->cid);
    };
    const auto submitSome = [&](int n) {
        for (int i = 0; i < n; ++i) {
            const auto q = static_cast<std::uint16_t>(rng.below(kQueues));
            const std::uint64_t roll = rng.below(100);
            std::optional<std::uint16_t> cid;
            if (roll < 45) {
                cid = host.submitWrite(
                    q, static_cast<nvme::Lpn>(rng.below(32)));
            } else if (roll < 80) {
                cid = host.submitRead(
                    q, static_cast<nvme::Lpn>(rng.below(kPreloadedLpns)));
            } else if (roll < 90) {
                nvme::Formula f;
                const auto a = static_cast<nvme::Lpn>(rng.below(8));
                f.terms.push_back(nvme::Formula::Term{
                    nvme::OperandRef::logical(a, 1),
                    nvme::OperandRef::logical(a + 8, 1),
                    flash::BitwiseOp::kXor});
                cid = host.submitFormula(q, f);
            } else {
                cid = host.submitFlush(q);
            }
            if (cid)
                submitted[q].insert(*cid);
        }
    };

    // Baseline, storm (seeded bursts + one always-failing plane), calm.
    for (int round = 0; round < 4; ++round) {
        submitSome(8);
        drainAll();
    }
    for (const ssd::FaultSpec &f : ssd::FaultInjector::stormSchedule(
             cfg.geometry, seed, ssd::StormConfig{}))
        dev.ssd().injectFault(f);
    ssd::FaultSpec hot;
    hot.cls = ssd::FaultClass::kProgramFailure;
    hot.plane = static_cast<ssd::PlaneIndex>(
        rng.below(cfg.geometry.planesTotal()));
    hot.failPeriod = 1;
    dev.ssd().injectFault(hot);
    for (int round = 0; round < 12; ++round) {
        submitSome(12);
        drainAll();
    }
    dev.ssd().clearTransientFaults();

    RunOut out;
    int quiet = 0;
    for (; health->state() != ssd::HealthState::kHealthy && quiet < 500;
         ++quiet) {
        if (const auto cid = host.submitRead(
                0, static_cast<nvme::Lpn>(rng.below(kPreloadedLpns))))
            submitted[0].insert(*cid);
        if (const auto cid = host.submitFlush(1))
            submitted[1].insert(*cid);
        drainAll();
    }
    drainAll();

    for (std::uint16_t q = 0; q < kQueues; ++q) {
        out.submitted += static_cast<double>(submitted[q].size());
        for (const std::uint16_t cid : submitted[q])
            if (reaped[q].count(cid) == 0)
                ++out.lost;
    }
    out.sheds = static_cast<double>(host.sheds());
    out.timeouts = static_cast<double>(host.timeouts());
    out.requeues = static_cast<double>(host.requeues());
    out.writeRejects = static_cast<double>(host.writeRejects());
    out.transitions = static_cast<double>(health->transitions().size());
    out.maxState = static_cast<double>(
        static_cast<std::uint8_t>(health->maxState()));
    out.quietRounds = quiet;
    out.recovered = health->state() == ssd::HealthState::kHealthy;
    out.monotone = true;
    for (const ssd::HealthTransition &t : health->transitions()) {
        const int step = static_cast<int>(t.to) - static_cast<int>(t.from);
        out.monotone = out.monotone && (step == 1 || step == -1) &&
                       !t.powerLost;
    }
    out.wallSec = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    std::uint64_t seeds = 16;
    bench::ObsOptions obs;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--seeds" && i + 1 < argc) {
            seeds = std::strtoull(argv[++i], nullptr, 10);
        } else if (obs.consume(argc, argv, i)) {
            continue;
        } else {
            std::fprintf(stderr, "usage: %s [--json FILE] [--seeds N]\n%s\n",
                         argv[0], bench::ObsOptions::help());
            return 2;
        }
    }
    obs.enableMetrics(); // before any device is constructed

    bench::banner("chaos storms: health machine + admission control + "
                  "bounded retries");

    std::vector<RunOut> rows;
    RunOut sum;
    sum.recovered = true;
    sum.monotone = true;
    double deepest = 0;
    for (std::uint64_t s = 0; s < seeds; ++s) {
        const RunOut r = run(s, obs.auditInterval);
        rows.push_back(r);
        sum.submitted += r.submitted;
        sum.lost += r.lost;
        sum.sheds += r.sheds;
        sum.timeouts += r.timeouts;
        sum.requeues += r.requeues;
        sum.writeRejects += r.writeRejects;
        sum.transitions += r.transitions;
        sum.quietRounds += r.quietRounds;
        sum.wallSec += r.wallSec;
        sum.recovered = sum.recovered && r.recovered;
        sum.monotone = sum.monotone && r.monotone;
        deepest = std::max(deepest, r.maxState);
    }

    bench::section("per-seed runs");
    std::printf("%-6s %9s %6s %6s %8s %8s %8s %7s %6s %9s\n", "seed",
                "submit", "lost", "shed", "timeout", "requeue", "wrrej",
                "transit", "depth", "recovery");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const RunOut &r = rows[i];
        std::printf("%-6zu %9.0f %6.0f %6.0f %8.0f %8.0f %8.0f %7.0f "
                    "%6.0f %9.0f\n",
                    i, r.submitted, r.lost, r.sheds, r.timeouts,
                    r.requeues, r.writeRejects, r.transitions, r.maxState,
                    r.quietRounds);
    }

    bench::section("aggregate");
    std::printf("  commands submitted              %12.0f\n", sum.submitted);
    std::printf("  commands lost (bar: 0)          %12.0f\n", sum.lost);
    std::printf("  admission sheds                 %12.0f\n", sum.sheds);
    std::printf("  watchdog timeouts               %12.0f\n", sum.timeouts);
    std::printf("  bounded requeues                %12.0f\n", sum.requeues);
    std::printf("  read-only write rejects         %12.0f\n",
                sum.writeRejects);
    std::printf("  health transitions              %12.0f\n",
                sum.transitions);
    std::printf("  deepest state reached           %12.0f\n", deepest);
    std::printf("  all transitions one-step        %12s\n",
                sum.monotone ? "yes" : "NO");
    std::printf("  all seeds recovered healthy     %12s\n",
                sum.recovered ? "yes" : "NO");
    bench::note("depth: 1 = degraded, 2 = read-only; recovery = quiet "
                "rounds until the machine stepped back to healthy; the "
                "acceptance bar is zero lost commands, one-step "
                "transitions, and full recovery");

    if (!json_path.empty()) {
        json::Writer w;
        w.beginObject();
        w.field("schema_version", 1);
        w.field("tool", "bench_chaos");
        w.key("config").beginObject();
        w.field("seeds", seeds);
        w.field("queues", kQueues);
        w.field("depth", kDepth);
        w.field("preloaded_lpns", kPreloadedLpns);
        w.field("audit_interval", obs.auditInterval);
        w.endObject();
        w.field("seeds", seeds);
        w.field("commands_submitted", sum.submitted);
        w.field("commands_lost", sum.lost);
        w.field("admission_sheds", sum.sheds);
        w.field("watchdog_timeouts", sum.timeouts);
        w.field("bounded_requeues", sum.requeues);
        w.field("readonly_write_rejects", sum.writeRejects);
        w.field("health_transitions", sum.transitions);
        w.field("deepest_state", deepest);
        w.field("all_transitions_one_step", sum.monotone);
        w.field("all_recovered", sum.recovered);
        w.key("rows").beginArray();
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const RunOut &r = rows[i];
            w.beginObject();
            w.field("seed", i);
            w.field("submitted", r.submitted);
            w.field("lost", r.lost);
            w.field("sheds", r.sheds);
            w.field("timeouts", r.timeouts);
            w.field("requeues", r.requeues);
            w.field("write_rejects", r.writeRejects);
            w.field("transitions", r.transitions);
            w.field("max_state", r.maxState);
            w.field("quiet_rounds", r.quietRounds);
            w.field("recovered", r.recovered);
            w.field("wall_sec", r.wallSec);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        if (!json::writeFile(json_path, w.str()))
            return 2;
    }

    // One extra traced run so the health state spans and per-command
    // async spans land in the Perfetto file.
    if (obs.traceWanted()) {
        obs::TraceSink::enableGlobal();
        (void)run(0, obs.auditInterval);
    }

    const int bad =
        sum.lost > 0 || !sum.recovered || !sum.monotone || deepest < 1;
    return obs.finish() && !bad ? 0 : 1;
}
