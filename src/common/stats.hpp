/**
 * @file
 * Lightweight statistics accumulators used by the simulator and benches.
 */

#ifndef PARABIT_COMMON_STATS_HPP_
#define PARABIT_COMMON_STATS_HPP_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace parabit {

/** Streaming scalar accumulator: count / sum / min / max / mean. */
class ScalarStat
{
  public:
    void
    sample(double v)
    {
        ++count_;
        sum_ += v;
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }

    void
    reset()
    {
        count_ = 0;
        sum_ = 0.0;
        min_ = std::numeric_limits<double>::infinity();
        max_ = -std::numeric_limits<double>::infinity();
    }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/** Fixed-width histogram over [lo, hi) with overflow/underflow buckets. */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t buckets);

    void sample(double v);

    std::size_t buckets() const { return counts_.size(); }
    std::uint64_t bucketCount(std::size_t i) const { return counts_[i]; }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }
    std::uint64_t total() const { return total_; }

    /** Lower edge of bucket @p i. */
    double bucketLo(std::size_t i) const;

    /** Render a terse textual summary for bench output. */
    std::string summary() const;

    /** Zero every bucket and the under/overflow tallies; the bucket
     *  layout (lo/hi/width) is preserved. */
    void reset();

  private:
    double lo_, hi_, width_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
};

} // namespace parabit

#endif // PARABIT_COMMON_STATS_HPP_
