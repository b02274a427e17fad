/**
 * @file
 * Periodic registry snapshots: a time series of every counter/gauge in
 * the global MetricsRegistry, dumped as CSV or JSON.
 *
 * The column set is frozen at the first record() — instruments
 * registered later are ignored, which keeps every row the same width.
 * Benches either record() at their own natural cadence (per round, per
 * workload) or let scheduleSampler() plant records on an EventEngine at
 * a fixed logical period; the helper is a template so this library
 * needs nothing from ssd/ — any engine with
 * `schedule(Tick, std::function<void()>)` works.
 */

#ifndef PARABIT_OBS_SNAPSHOT_HPP_
#define PARABIT_OBS_SNAPSHOT_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace parabit::obs {

/** See file comment. */
class SnapshotSeries
{
  public:
    /** Append one row sampled from the global registry at logical time
     *  @p at (no-op width-wise if the registry has no instruments). */
    void record(Tick at);

    std::size_t size() const { return rows_.size(); }
    const std::vector<std::string> &columns() const { return columns_; }

    /** "tick,<col>,..." header plus one row per record(). */
    std::string toCsv() const;

    /** {"columns": [...], "rows": [{"tick": t, "values": [...]}]} */
    std::string toJson() const;

  private:
    struct Row
    {
        Tick at = 0;
        std::vector<std::uint64_t> counters;
        std::vector<double> gauges;
    };

    std::vector<std::string> columns_; ///< counter names then gauge names
    std::size_t counterCols_ = 0;
    std::vector<Row> rows_;
};

/**
 * Plant record() calls on @p eng every @p period ticks, from
 * @p period up to and including @p horizon.  The horizon is explicit —
 * a self-rescheduling sampler would keep an EventEngine::run() loop
 * alive forever.  @p series must outlive the engine run.
 */
template <typename Engine>
void
scheduleSampler(Engine &eng, SnapshotSeries &series, Tick period,
                Tick horizon)
{
    if (period == 0)
        return;
    for (Tick t = period; t <= horizon; t += period)
        eng.schedule(t, [&series, t] { series.record(t); });
}

} // namespace parabit::obs

#endif // PARABIT_OBS_SNAPSHOT_HPP_
