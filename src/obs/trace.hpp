/**
 * @file
 * TraceSink: Chrome trace-event JSON emission (Perfetto compatible),
 * driven from the deterministic logical clock.
 *
 * Track model (see DESIGN.md "Observability"):
 *  - tracks are (process, thread) pairs; a process groups related
 *    resources ("channels", "dies", "device", "host") and each thread
 *    is one resource ("channel 3", "ch0 chip1 die0 plane1", ...);
 *  - complete "X" spans are used where occupancy is exclusive by
 *    construction (scheduler bookings on a channel/plane, the recovery
 *    scan) — the parabit-trace validator rejects overlap there;
 *  - async "b"/"e" pairs (matched by category + id within a process)
 *    are used for logically concurrent work (in-flight host commands,
 *    ParaBit formulas), which may overlap freely;
 *  - flow events ("s"/"t"/"f", matched globally by category + id) link
 *    one NVMe command's async span to every DeviceTransaction span that
 *    served it: the host emits the start at submission and the finish
 *    at completion, the scheduler emits one step per booked phase on
 *    the resource track that executed it.  parabit-trace's
 *    flow-linkage check validates the stitching.
 *
 * Timestamps: the simulator Tick is a picosecond count; Chrome expects
 * microseconds.  ts/dur are rendered with pure integer arithmetic at
 * nanosecond precision (three decimals of a microsecond), so a trace is
 * byte-identical across runs of the same seed and config — float
 * formatting never enters the picture.
 */

#ifndef PARABIT_OBS_TRACE_HPP_
#define PARABIT_OBS_TRACE_HPP_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace parabit::obs {

/** Flow category/name binding one NVMe command's async span to the
 *  DeviceTransaction spans that served it (host emits s/f, scheduler
 *  emits t; the id is the host-allocated attribution token). */
inline constexpr const char *kNvmeFlowCat = "nvme_flow";
inline constexpr const char *kNvmeFlowName = "nvme_cmd";

/** One (process, thread) pair; value type, cheap to copy. */
struct TrackId
{
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;
};

/** See file comment. */
class TraceSink
{
  public:
    /** One "args" entry; @p quoted false emits the value as a bare JSON
     *  number/literal instead of a string. */
    struct Arg
    {
        std::string key;
        std::string value;
        bool quoted = true;
    };

    /** The process-wide sink, or nullptr while tracing is off.  Like
     *  the metrics registry, benches enable it *before* building the
     *  device so constructors can wire their tracks. */
    static TraceSink *global();
    static TraceSink &enableGlobal();
    static void disableGlobal();

    /**
     * Track for @p thread of @p process, creating it (and emitting the
     * process_name/thread_name metadata) on first use.  Pids and tids
     * are assigned in first-use order, so a deterministic caller
     * sequence yields a deterministic trace.
     */
    TrackId track(const std::string &process, const std::string &thread);

    /** Complete "X" span [@p start, @p end) on @p t. */
    void span(TrackId t, const std::string &name, Tick start, Tick end,
              std::vector<Arg> args = {});

    /** Async "b" / "e" pair, matched by (@p cat, @p id) within t.pid. */
    void asyncBegin(TrackId t, const std::string &cat,
                    const std::string &name, std::uint64_t id, Tick at,
                    std::vector<Arg> args = {});
    void asyncEnd(TrackId t, const std::string &cat,
                  const std::string &name, std::uint64_t id, Tick at);

    /**
     * Flow events "s" (start) / "t" (step) / "f" (finish), matched by
     * (@p cat, @p id) across every process.  One start, any number of
     * steps with non-decreasing timestamps, one finish; a step placed
     * at the ts of an "X" span binds the flow to that span.
     */
    void flowStart(TrackId t, const std::string &cat,
                   const std::string &name, std::uint64_t id, Tick at);
    void flowStep(TrackId t, const std::string &cat,
                  const std::string &name, std::uint64_t id, Tick at);
    void flowEnd(TrackId t, const std::string &cat,
                 const std::string &name, std::uint64_t id, Tick at);

    std::size_t eventCount() const { return events_.size(); }
    std::size_t trackCount() const { return tids_.size(); }

    /** Render the whole trace as {"traceEvents": [...]}. */
    std::string toJson() const;

    /** Drop all events and tracks. */
    void clear();

  private:
    enum class Kind : std::uint8_t
    {
        kMeta = 0,
        kComplete,
        kAsyncBegin,
        kAsyncEnd,
        kFlowStart,
        kFlowStep,
        kFlowEnd,
    };

    void flowEvent(Kind kind, TrackId t, const std::string &cat,
                   const std::string &name, std::uint64_t id, Tick at);

    struct Event
    {
        Kind kind = Kind::kComplete;
        std::uint32_t pid = 0;
        std::uint32_t tid = 0;
        Tick ts = 0;
        Tick dur = 0;
        std::uint64_t id = 0;
        std::string name;
        std::string cat;
        std::vector<Arg> args;
    };

    void appendEvent(std::string &out, const Event &e) const;

    std::map<std::string, std::uint32_t> pids_;
    std::map<std::pair<std::uint32_t, std::string>, std::uint32_t> tids_;
    std::vector<Event> events_;
};

} // namespace parabit::obs

#endif // PARABIT_OBS_TRACE_HPP_
