#include "spans.hpp"

#include <fstream>

namespace perfbench {

const char *
spanNameText(SpanName n)
{
    switch (n) {
      case SpanName::kRound: return "round";
      case SpanName::kSubmit: return "submit";
      case SpanName::kPump: return "pump";
      case SpanName::kReap: return "reap";
      case SpanName::kOpPrealloc: return "op.prealloc";
      case SpanName::kOpLocfree: return "op.locfree";
      case SpanName::kOpRealloc: return "op.realloc";
      case SpanName::kVerify: return "verify";
    }
    return "?";
}

SpanLog::Scope::Scope(SpanLog &log, SpanName name) : log_(log)
{
    if (!log_.enabled_)
        return;
    index_ = static_cast<std::int64_t>(log_.spans_.size());
    log_.spans_.push_back(Span{name, log_.open_, Clock::now(), {}});
    log_.open_ = index_;
}

SpanLog::Scope::~Scope()
{
    if (index_ < 0)
        return;
    Span &s = log_.spans_[static_cast<std::size_t>(index_)];
    s.end = Clock::now();
    log_.open_ = s.parent;
}

SpanSummary
SpanLog::summarize() const
{
    SpanSummary out;
    std::vector<double> childS(spans_.size(), 0.0);
    for (const Span &s : spans_) {
        const double d = std::chrono::duration<double>(s.end - s.start).count();
        const auto n = static_cast<std::size_t>(s.name);
        out.totalS[n] += d;
        if (s.parent >= 0)
            childS[static_cast<std::size_t>(s.parent)] += d;
        if (s.name == SpanName::kPump)
            out.pumpMs.push_back(d * 1e3);
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const double d = std::chrono::duration<double>(s.end - s.start).count();
        out.selfS[static_cast<std::size_t>(s.name)] += d - childS[i];
    }
    return out;
}

bool
SpanLog::writeChromeJson(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    const Clock::time_point t0 =
        spans_.empty() ? Clock::time_point{} : spans_.front().start;
    const auto us = [&](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - t0).count();
    };
    os << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << (i ? ",\n" : "") << "{\"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
           << "\"name\": \"" << spanNameText(s.name) << "\", \"ts\": "
           << us(s.start) << ", \"dur\": " << us(s.end) - us(s.start)
           << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
           << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
