#include "common/stats.hpp"

#include <sstream>

#include "common/invariant.hpp"

namespace parabit {

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(buckets)),
      counts_(buckets, 0)
{
    PARABIT_CHECK(hi > lo && buckets > 0,
                  "Histogram: bad range [" + std::to_string(lo) + ", " +
                      std::to_string(hi) + ") / " + std::to_string(buckets) +
                      " buckets");
}

void
Histogram::sample(double v)
{
    ++total_;
    if (v < lo_) {
        ++underflow_;
    } else if (v >= hi_) {
        ++overflow_;
    } else {
        auto idx = static_cast<std::size_t>((v - lo_) / width_);
        if (idx >= counts_.size())
            idx = counts_.size() - 1; // guard FP edge at hi_
        ++counts_[idx];
    }
}

double
Histogram::bucketLo(std::size_t i) const
{
    return lo_ + width_ * static_cast<double>(i);
}

void
Histogram::reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    underflow_ = 0;
    overflow_ = 0;
    total_ = 0;
}

std::string
Histogram::summary() const
{
    std::ostringstream os;
    os << "hist[" << lo_ << "," << hi_ << ") n=" << total_;
    if (underflow_)
        os << " under=" << underflow_;
    if (overflow_)
        os << " over=" << overflow_;
    return os.str();
}

} // namespace parabit
