#include "ssd/allocator.hpp"

#include "common/logging.hpp"

namespace parabit::ssd {

PlaneCoord
planeCoord(const flash::FlashGeometry &g, PlaneIndex idx)
{
    PlaneCoord c;
    c.plane = idx % g.planesPerDie;
    idx /= g.planesPerDie;
    c.die = idx % g.diesPerChip;
    idx /= g.diesPerChip;
    c.chip = idx % g.chipsPerChannel;
    idx /= g.chipsPerChannel;
    c.channel = idx;
    return c;
}

PlaneIndex
planeIndex(const flash::FlashGeometry &g, const PlaneCoord &c)
{
    PlaneIndex idx = c.channel;
    idx = idx * g.chipsPerChannel + c.chip;
    idx = idx * g.diesPerChip + c.die;
    idx = idx * g.planesPerDie + c.plane;
    return idx;
}

flash::PhysPageAddr
planeAddr(const flash::FlashGeometry &g, PlaneIndex idx)
{
    const PlaneCoord c = planeCoord(g, idx);
    flash::PhysPageAddr a;
    a.channel = c.channel;
    a.chip = c.chip;
    a.die = c.die;
    a.plane = c.plane;
    return a;
}

Allocator::Allocator(const flash::FlashGeometry &geom)
    : geom_(geom), planes_(geom.planesTotal())
{
    for (auto &ps : planes_)
        for (std::uint32_t b = 0; b < geom_.blocksPerPlane; ++b)
            ps.freePool.push_back(b);
}

PlaneIndex
Allocator::nextPlane()
{
    // Channel-first striping: consecutive allocations land on different
    // channels, then different chips, maximising bus-level parallelism.
    // The flat index is channel-major, so striding by planesPerChannel
    // and wrapping with an offset visits channels round-robin.
    const PlaneIndex count = planeCount();
    const PlaneIndex planes_per_channel = count / geom_.channels;
    const PlaneIndex step = rrCursor_++;
    const PlaneIndex channel = step % geom_.channels;
    const PlaneIndex within = (step / geom_.channels) % planes_per_channel;
    return channel * planes_per_channel + within;
}

std::uint32_t
Allocator::freeBlocks(PlaneIndex plane) const
{
    return static_cast<std::uint32_t>(planes_.at(plane).freePool.size());
}

void
Allocator::noteErased(PlaneIndex plane, std::uint32_t block)
{
    if (isRetired(plane, block) || isReserved(plane, block))
        return;
    planes_.at(plane).freePool.push_back(block);
}

void
Allocator::retireBlock(PlaneIndex plane, std::uint32_t block)
{
    PlaneState &ps = planes_.at(plane);
    if (ps.retired.empty())
        ps.retired.assign(geom_.blocksPerPlane, false);
    if (ps.retired.at(block))
        return;
    ps.retired.at(block) = true;
    ++retiredCount_;
    std::erase(ps.freePool, block);
    const auto sb = static_cast<std::int64_t>(block);
    if (ps.interleaved.block == sb)
        ps.interleaved.block = -1;
    if (ps.lsbOnly.block == sb)
        ps.lsbOnly.block = -1;
}

bool
Allocator::isRetired(PlaneIndex plane, std::uint32_t block) const
{
    const PlaneState &ps = planes_.at(plane);
    return !ps.retired.empty() && ps.retired.at(block);
}

void
Allocator::reserveBlock(PlaneIndex plane, std::uint32_t block)
{
    PlaneState &ps = planes_.at(plane);
    if (ps.reserved.empty())
        ps.reserved.assign(geom_.blocksPerPlane, false);
    if (ps.reserved.at(block))
        return;
    ps.reserved.at(block) = true;
    std::erase(ps.freePool, block);
    const auto sb = static_cast<std::int64_t>(block);
    if (ps.interleaved.block == sb)
        ps.interleaved.block = -1;
    if (ps.lsbOnly.block == sb)
        ps.lsbOnly.block = -1;
}

bool
Allocator::isReserved(PlaneIndex plane, std::uint32_t block) const
{
    const PlaneState &ps = planes_.at(plane);
    return !ps.reserved.empty() && ps.reserved.at(block);
}

void
Allocator::rebuild(PlaneIndex plane,
                   const std::vector<std::uint32_t> &free_blocks)
{
    PlaneState &ps = planes_.at(plane);
    ps.freePool.clear();
    ps.interleaved = Cursor{};
    ps.lsbOnly = Cursor{};
    for (std::uint32_t b : free_blocks)
        if (!isRetired(plane, b) && !isReserved(plane, b))
            ps.freePool.push_back(b);
}

std::vector<std::uint32_t>
Allocator::poolBlocks(PlaneIndex plane) const
{
    const PlaneState &ps = planes_.at(plane);
    return {ps.freePool.begin(), ps.freePool.end()};
}

bool
Allocator::ensureBlock(PlaneState &ps, Cursor &cur)
{
    if (cur.block >= 0 && cur.wordline < geom_.wordlinesPerBlock)
        return true;
    if (ps.freePool.empty()) {
        cur.block = -1;
        return false;
    }
    cur.block = ps.freePool.front();
    ps.freePool.pop_front();
    cur.wordline = 0;
    cur.msbPhase = false;
    return true;
}

flash::PhysPageAddr
Allocator::makeAddr(PlaneIndex plane, const Cursor &cur, bool msb) const
{
    flash::PhysPageAddr a = planeAddr(geom_, plane);
    a.block = static_cast<std::uint32_t>(cur.block);
    a.wordline = cur.wordline;
    a.msb = msb;
    return a;
}

std::optional<flash::PhysPageAddr>
Allocator::nextPage(PlaneIndex plane)
{
    PlaneState &ps = planes_.at(plane);
    Cursor &cur = ps.interleaved;
    if (!ensureBlock(ps, cur))
        return std::nullopt;
    const flash::PhysPageAddr a = makeAddr(plane, cur, cur.msbPhase);
    if (cur.msbPhase) {
        cur.msbPhase = false;
        ++cur.wordline;
    } else {
        cur.msbPhase = true;
    }
    return a;
}

std::optional<PagePair>
Allocator::nextPair(PlaneIndex plane)
{
    PlaneState &ps = planes_.at(plane);
    Cursor &cur = ps.interleaved;
    // A pair needs a fresh wordline; if the cursor is mid-wordline the
    // pending MSB page is skipped (it stays free but unreachable, a
    // small accepted waste of pairing).
    if (cur.block >= 0 && cur.msbPhase) {
        cur.msbPhase = false;
        ++cur.wordline;
    }
    if (!ensureBlock(ps, cur))
        return std::nullopt;
    PagePair pair{makeAddr(plane, cur, false), makeAddr(plane, cur, true)};
    ++cur.wordline;
    return pair;
}

std::optional<flash::PhysPageAddr>
Allocator::nextLsbOnly(PlaneIndex plane)
{
    PlaneState &ps = planes_.at(plane);
    Cursor &cur = ps.lsbOnly;
    if (!ensureBlock(ps, cur))
        return std::nullopt;
    const flash::PhysPageAddr a = makeAddr(plane, cur, false);
    ++cur.wordline;
    return a;
}

bool
Allocator::isActiveBlock(PlaneIndex plane, std::uint32_t block) const
{
    const PlaneState &ps = planes_.at(plane);
    return (ps.interleaved.block >= 0 &&
            ps.interleaved.block == static_cast<std::int64_t>(block)) ||
           (ps.lsbOnly.block >= 0 &&
            ps.lsbOnly.block == static_cast<std::int64_t>(block));
}

} // namespace parabit::ssd
