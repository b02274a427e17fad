#include "flash/plane.hpp"

#include "common/logging.hpp"

namespace parabit::flash {

Block &
Plane::block(std::uint32_t b)
{
    if (b >= blocksPerPlane_)
        panic("Plane::block: index out of range");
    auto it = blocks_.find(b);
    if (it == blocks_.end()) {
        it = blocks_
                 .try_emplace(b, wordlinesPerBlock_, pageBits_, storeData_)
                 .first;
    }
    return it->second;
}

const Block *
Plane::blockIfExists(std::uint32_t b) const
{
    auto it = blocks_.find(b);
    return it == blocks_.end() ? nullptr : &it->second;
}

} // namespace parabit::flash
