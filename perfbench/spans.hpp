/**
 * @file
 * The benchmark's own wall-clock spans, recorded from outside the
 * simulator around the calls into each layer's public functions.
 *
 * Spans nest (single thread), stay in memory while a pass runs, and
 * are summarised — and optionally written as Chrome trace JSON — once
 * the pass ends.  A span's self time is its duration minus the time its
 * direct children cover.  A disabled log records nothing and reads no
 * clock, so untraced passes pay one branch per span.
 */

#ifndef PERFBENCH_SPANS_HPP_
#define PERFBENCH_SPANS_HPP_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Span names: the host-interface calls, one per ParaBitDevice mode,
 *  the closed-loop round around them, and off-the-clock verification. */
enum class SpanName : std::uint8_t
{
    kRound = 0,
    kSubmit,
    kPump,
    kReap,
    kOpPrealloc,
    kOpLocfree,
    kOpRealloc,
    kVerify,
};

inline constexpr std::size_t kNumSpanNames = 8;

const char *spanNameText(SpanName n);

/** Per-name totals of one pass's spans. */
struct SpanSummary
{
    std::array<double, kNumSpanNames> totalS{};
    std::array<double, kNumSpanNames> selfS{};
    /** Duration of every pump span, in ms (for its quantiles). */
    std::vector<double> pumpMs;

    double
    total(SpanName n) const
    {
        return totalS[static_cast<std::size_t>(n)];
    }
    double
    self(SpanName n) const
    {
        return selfS[static_cast<std::size_t>(n)];
    }
};

/** In-memory span log for one pass; see file comment. */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    /** RAII span; no-op when the log is disabled. */
    class Scope
    {
      public:
        Scope(SpanLog &log, SpanName name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog &log_;
        std::int64_t index_ = -1;
    };

    SpanSummary summarize() const;

    /** Write the spans as Chrome trace-event JSON; false on I/O error. */
    bool writeChromeJson(const std::string &path) const;

  private:
    struct Span
    {
        SpanName name;
        std::int64_t parent; ///< index of the enclosing span, or -1
        Clock::time_point start;
        Clock::time_point end;
    };

    bool enabled_;
    std::vector<Span> spans_;
    std::int64_t open_ = -1; ///< innermost open span
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HPP_
