/**
 * @file
 * Shared --metrics-out / --trace-out / --snapshots-out plumbing for the
 * bench binaries.
 *
 * Benches opt into the observability layer from the command line:
 *
 *   --metrics-out FILE    dump the metrics registry as JSON at exit
 *   --trace-out FILE      write a Chrome trace-event JSON (open in
 *                         ui.perfetto.dev; validate with parabit-trace)
 *   --snapshots-out FILE  write the periodic counter snapshots the
 *                         bench records (JSON time series)
 *   --audit-interval N    run the device's registered invariant suites
 *                         every N transaction drains (0 = off); a
 *                         violation aborts the bench with full context.
 *                         Benches that build an SsdDevice copy this
 *                         into SsdConfig::invariants.auditInterval.
 *
 * enableMetrics() must run before any device/scheduler is constructed:
 * instruments bind to registry slots at construction time and stay
 * local-only (near-zero cost) when the registry is disabled.  Tracing
 * is enabled lazily by the bench around exactly one traced run — the
 * trace model gives each channel and die its own track, so two
 * simulated devices writing the same tracks would interleave spans.
 */

#ifndef PARABIT_BENCH_COMMON_OBS_ARGS_HPP_
#define PARABIT_BENCH_COMMON_OBS_ARGS_HPP_

#include <cstdint>
#include <cstdlib>
#include <string>

#include "common/json.hpp"
#include "common/logging.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"

namespace parabit::bench {

/** Parsed observability options plus the snapshot series benches fill. */
struct ObsOptions
{
    std::string metricsOut;
    std::string traceOut;
    std::string snapshotsOut;
    /** Invariant audit cadence (drains between audits; 0 = off). */
    std::uint64_t auditInterval = 0;
    obs::SnapshotSeries snapshots;

    /** Try to consume argv[i] (and a value) as an obs flag. */
    bool
    consume(int argc, char **argv, int &i)
    {
        const std::string arg = argv[i];
        if (arg == "--metrics-out" && i + 1 < argc) {
            metricsOut = argv[++i];
            return true;
        }
        if (arg == "--trace-out" && i + 1 < argc) {
            traceOut = argv[++i];
            return true;
        }
        if (arg == "--snapshots-out" && i + 1 < argc) {
            snapshotsOut = argv[++i];
            return true;
        }
        if (arg == "--audit-interval" && i + 1 < argc) {
            auditInterval = std::strtoull(argv[++i], nullptr, 10);
            return true;
        }
        return false;
    }

    /** Usage text fragment for the bench's own usage message. */
    static const char *
    help()
    {
        return "  [--metrics-out FILE] [--trace-out FILE] "
               "[--snapshots-out FILE] [--audit-interval N]";
    }

    bool traceWanted() const { return !traceOut.empty(); }
    bool snapshotsWanted() const { return !snapshotsOut.empty(); }

    /** Turn the registry on if any metrics/snapshot output is wanted.
     *  Call before constructing devices or schedulers. */
    void
    enableMetrics() const
    {
        if (!metricsOut.empty() || !snapshotsOut.empty())
            obs::MetricsRegistry::global().setEnabled(true);
    }

    /** Write every requested artefact.  @return false on I/O trouble. */
    bool
    finish() const
    {
        bool ok = true;
        if (!metricsOut.empty())
            ok &= json::writeFile(metricsOut,
                                  obs::MetricsRegistry::global().toJson());
        if (!traceOut.empty()) {
            const obs::TraceSink *sink = obs::TraceSink::global();
            if (!sink)
                logError("obs: no trace recorded for " + traceOut);
            ok &= sink && json::writeFile(traceOut, sink->toJson());
        }
        if (!snapshotsOut.empty())
            ok &= json::writeFile(snapshotsOut, snapshots.toJson());
        return ok;
    }
};

} // namespace parabit::bench

#endif // PARABIT_BENCH_COMMON_OBS_ARGS_HPP_
