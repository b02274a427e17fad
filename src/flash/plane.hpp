/**
 * @file
 * A flash plane: an independently operable array of blocks sharing one
 * set of bitlines and one latching-circuit column (data register L1 +
 * cache register L2).
 *
 * Blocks are materialised lazily so that device-scale geometries (half a
 * million blocks) cost nothing until touched; untouched blocks behave as
 * fully erased.
 */

#ifndef PARABIT_FLASH_PLANE_HPP_
#define PARABIT_FLASH_PLANE_HPP_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/bitvector.hpp"
#include "flash/block.hpp"
#include "flash/geometry.hpp"

namespace parabit::flash {

/** A bitline whose sense amplifier is stuck at a fixed value. */
struct StuckBitline
{
    std::size_t bitline = 0;
    bool value = false;

    bool operator==(const StuckBitline &) const = default;
};

/** One plane; see file comment. */
class Plane
{
  public:
    Plane(const FlashGeometry &geom, bool store_data)
        : blocksPerPlane_(geom.blocksPerPlane),
          wordlinesPerBlock_(geom.wordlinesPerBlock),
          pageBits_(geom.pageBits()), storeData_(store_data)
    {}

    /** Access (and lazily create) block @p b. */
    Block &block(std::uint32_t b);

    /** Block @p b if it has ever been touched, else nullptr. */
    const Block *blockIfExists(std::uint32_t b) const;

    bool storesData() const { return storeData_; }

    /** @name Fault state (driven by ssd::FaultInjector). */
    /// @{

    /** A dead plane rejects every array operation (sense/program/erase). */
    void setDead(bool dead) { dead_ = dead; }
    bool dead() const { return dead_; }

    /** Pin @p bitline's sense amplifier output to @p value. */
    void
    addStuckBitline(std::size_t bitline, bool value)
    {
        if (bitline < pageBits_)
            stuck_.push_back(StuckBitline{bitline, value});
    }

    /** Replace the stuck set wholesale (out-of-range entries dropped). */
    void
    setStuckBitlines(const std::vector<StuckBitline> &lines)
    {
        stuck_.clear();
        for (const StuckBitline &s : lines)
            addStuckBitline(s.bitline, s.value);
    }

    bool hasStuckBitlines() const { return !stuck_.empty(); }
    const std::vector<StuckBitline> &stuckBitlines() const { return stuck_; }

    /** Force stuck bitlines onto a freshly sensed SO vector. */
    void
    applyStuckBits(BitVector &so) const
    {
        for (const StuckBitline &s : stuck_)
            so.set(s.bitline, s.value);
    }
    /// @}

  private:
    // Geometry fields are held by value so Plane (and its owning Chip)
    // stays safely movable inside containers.
    std::uint32_t blocksPerPlane_;
    std::uint32_t wordlinesPerBlock_;
    std::size_t pageBits_;
    bool storeData_;
    bool dead_ = false;
    std::vector<StuckBitline> stuck_;
    std::unordered_map<std::uint32_t, Block> blocks_;
};

} // namespace parabit::flash

#endif // PARABIT_FLASH_PLANE_HPP_
