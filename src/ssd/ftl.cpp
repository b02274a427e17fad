#include "ssd/ftl.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/logging.hpp"
#include "obs/profiler.hpp"
#include "ssd/health.hpp"
#include "ssd/rain.hpp"

namespace parabit::ssd {

namespace {

/** Fraction of blocks held back as over-provisioning. */
constexpr double kOverProvisioning = 0.07;

/** GC trigger: a plane starts garbage collection when its free-block
 *  count drops below this fraction of blocksPerPlane. */
constexpr double kGcFreeBlockThreshold = 0.05;

} // namespace

Ftl::Ftl(const SsdConfig &cfg, std::vector<flash::Chip> &chips)
    : cfg_(cfg), chips_(&chips), alloc_(cfg.geometry),
      scrambler_(cfg.seed ^ 0x5C4A3B2E1D0FULL)
{
    double usable_blocks = cfg_.geometry.blocksPerPlane;
    if (cfg_.recovery.enabled) {
        if (kReservedBlocksPerPlane + 2 >= cfg_.geometry.blocksPerPlane)
            fatal("Ftl: recovery needs more than kReservedBlocksPerPlane + "
                  "2 blocks per plane to leave room for data blocks");
        // The top blocks of every plane become the SLC checkpoint +
        // journal region, split into two ping-pong halves.
        for (PlaneIndex p = 0; p < alloc_.planeCount(); ++p)
            for (std::uint32_t i = 0; i < kReservedBlocksPerPlane; ++i)
                alloc_.reserveBlock(p, cfg_.geometry.blocksPerPlane - 1 - i);
        usable_blocks -= kReservedBlocksPerPlane;
    }
    const double usable = (1.0 - kOverProvisioning) * usable_blocks /
                          cfg_.geometry.blocksPerPlane;
    logicalPages_ = static_cast<std::uint64_t>(
        std::floor(static_cast<double>(cfg_.geometry.totalPages()) * usable));
    gcThresholdBlocks_ = std::max<std::uint32_t>(
        2, static_cast<std::uint32_t>(kGcFreeBlockThreshold *
                                      cfg_.geometry.blocksPerPlane));
}

flash::Chip &
Ftl::chipAt(const flash::PhysPageAddr &a)
{
    const std::size_t idx =
        static_cast<std::size_t>(a.channel) * cfg_.geometry.chipsPerChannel +
        a.chip;
    return (*chips_).at(idx);
}

flash::ChipPageAddr
Ftl::chipAddr(const flash::PhysPageAddr &a) const
{
    return flash::ChipPageAddr{a.die, a.plane, a.block, a.wordline, a.msb};
}

void
Ftl::invalidatePhys(const flash::PhysPageAddr &a)
{
    if (rain_)
        rain_->willInvalidate(a);
    chipAt(a).plane(a.die, a.plane).block(a.block).invalidate(a.wordline,
                                                              a.msb);
}

OobTag
Ftl::relocationTag(const flash::PhysPageAddr &src, Lpn lpn)
{
    if (!isInternal(lpn))
        return OobTag::kGcRelocated;
    const flash::PageOob *oob = chipAt(src).pageOob(chipAddr(src));
    return oob ? static_cast<OobTag>(oob->tag) : OobTag::kGcRelocated;
}

Lpn
Ftl::lpnAt(const flash::PhysPageAddr &a) const
{
    auto it = reverse_.find(flash::linearPageIndex(cfg_.geometry, a));
    return it == reverse_.end() ? kNoLpn : it->second;
}

flash::PhysPageAddr
Ftl::planeAt(PlaneIndex plane) const
{
    return planeAddr(cfg_.geometry, plane);
}

bool
Ftl::programPhys(const flash::PhysPageAddr &a, const BitVector *data,
                 bool for_gc, std::vector<PhysOp> &ops, Lpn lpn, OobTag tag,
                 bool scrambled)
{
    const PowerCut cut = powerBoundary(true);
    if (cut == PowerCut::kBeforeOp)
        return false; // power was cut before tPROG started
    // The attempt costs program time whether or not it sticks.
    ops.push_back(PhysOp{PhysOp::Kind::kPageProgram, a, for_gc});
    const flash::PageOob oob{lpn, seq_++, static_cast<std::uint8_t>(tag),
                             scrambled};
    if (!chipAt(a).programPage(chipAddr(a), data,
                               lpn == kNoLpn ? nullptr : &oob)) {
        ++programFailures_;
        const PlaneIndex p = planeIndex(
            cfg_.geometry, PlaneCoord{a.channel, a.chip, a.die, a.plane});
        alloc_.retireBlock(p, a.block);
        if (health_)
            health_->noteRetiredBlock();
        journalAppend(JournalRecord{JournalRecord::Kind::kRetire, 0, 0,
                                    linearBlockId(p, a.block)},
                      ops);
        logWarn("Ftl: program failure, retired block " +
                std::to_string(a.block) + " of plane " + std::to_string(p));
        return false;
    }
    if (cut == PowerCut::kMidProgram) {
        // tPROG was interrupted: the shared-wordline cells are left in
        // indeterminate states, corrupting the paired page as well.
        chipAt(a).markTornWordline(chipAddr(a));
        return false;
    }
    ++programsSinceCkpt_;
    if (recoveryEnabled() && lpn != kNoLpn) {
        // Paired-page protection: an interleaved LSB write stays in the
        // controller's PLP buffer until its partner MSB program
        // completes untorn (see PlpEntry).  ParaBit LSB-only layouts
        // are excluded — their free MSBs are filled via the explicit
        // backup protocol of writeIntoFreeMsb() instead.
        flash::PhysPageAddr lsb = a;
        lsb.msb = false;
        const std::uint64_t key = flash::linearPageIndex(cfg_.geometry, lsb);
        if (a.msb) {
            plpBuffer_.erase(key);
        } else if (tag == OobTag::kHostData || tag == OobTag::kGcRelocated) {
            flash::PhysPageAddr msb = a;
            msb.msb = true;
            if (chipAt(a).pageState(chipAddr(msb)) == flash::PageState::kFree) {
                PlpEntry e;
                e.lpn = lpn;
                e.seq = oob.seq;
                e.scrambled = scrambled;
                if (data)
                    e.data = *data;
                plpBuffer_[key] = std::move(e);
            }
        }
    }
    if (rain_)
        rain_->onProgram(a, ops);
    return true;
}

bool
Ftl::planeAlive(PlaneIndex plane)
{
    const flash::PhysPageAddr at = planeAt(plane);
    return chipAt(at).planeOperational(at.die, at.plane);
}

PlaneIndex
Ftl::pickAlivePlane()
{
    for (std::uint32_t i = 0; i < alloc_.planeCount(); ++i) {
        const PlaneIndex p = alloc_.nextPlane();
        if (planeAlive(p))
            return p;
    }
    fatal("Ftl: no operational plane left");
    return 0;
}

void
Ftl::mapLpn(Lpn lpn, const flash::PhysPageAddr &a)
{
    const auto [it, fresh] = map_.try_emplace(lpn, a);
    if (!fresh) {
        // Invalidate the previous copy of this LPN.
        invalidatePhys(it->second);
        reverse_.erase(flash::linearPageIndex(cfg_.geometry, it->second));
        it->second = a;
    }
    reverse_[flash::linearPageIndex(cfg_.geometry, a)] = lpn;
}

void
Ftl::unmapLpn(Lpn lpn)
{
    const auto it = map_.find(lpn);
    if (it == map_.end())
        return;
    invalidatePhys(it->second);
    reverse_.erase(flash::linearPageIndex(cfg_.geometry, it->second));
    map_.erase(it);
}

std::optional<flash::PhysPageAddr>
Ftl::programInPlane(PlaneIndex plane, bool lsb_only, const BitVector *data,
                    bool for_gc, std::vector<PhysOp> &ops, Lpn lpn,
                    OobTag tag, bool scrambled)
{
    // A program failure retires the destination block, so retrying
    // simply walks to the next pooled block.
    const auto next = [&] {
        return lsb_only ? alloc_.nextLsbOnly(plane) : alloc_.nextPage(plane);
    };
    auto a = next();
    while (a && !powerLost_ &&
           !programPhys(*a, data, for_gc, ops, lpn, tag, scrambled)) {
        ++programRetries_;
        a = next();
    }
    if (powerLost_)
        return std::nullopt;
    return a;
}

bool
Ftl::evacuateBlock(PlaneIndex plane, std::uint32_t block,
                   std::vector<PhysOp> &ops)
{
    flash::PhysPageAddr src = planeAt(plane);
    src.block = block;
    flash::Chip &chip = chipAt(src);
    const flash::Block &blk = chip.plane(src.die, src.plane).block(block);
    for (std::uint32_t wl = 0; wl < cfg_.geometry.wordlinesPerBlock; ++wl) {
        for (const bool msb : {false, true}) {
            if (blk.pageState(wl, msb) != flash::PageState::kValid)
                continue;
            src.wordline = wl;
            src.msb = msb;
            const Lpn lpn = lpnAt(src);
            if (powerBoundary(false) != PowerCut::kNone)
                return false; // power cut: the block keeps its valid pages
            BitVector data = chip.readPage(chipAddr(src));
            ops.push_back(PhysOp{PhysOp::Kind::kPageRead, src, true});

            // Out of relocation targets (full, or its blocks retired by
            // faults) or power cut: the block must NOT be erased — its
            // unmoved pages are still the only copy.  Degraded, not
            // corrupted.
            const auto dst = programInPlane(
                plane, false, cfg_.storeData ? &data : nullptr, true, ops, lpn,
                relocationTag(src, lpn),
                lpn != kNoLpn && scrambledLpns_.count(lpn) > 0);
            if (!dst) {
                if (!powerLost_)
                    logWarn("Ftl: no space to relocate block " +
                            std::to_string(block) + " of plane " +
                            std::to_string(plane) + "; block kept");
                return false;
            }
            ++gcWrites_;
            if (lpn == kNoLpn)
                invalidatePhys(src); // an unmapped copy just moves
            else
                mapLpn(lpn, *dst); // invalidates src
        }
    }
    // Journal the erase ahead of issuing it: after a checkpoint this
    // block would otherwise be outside the bounded recovery scan even
    // though it may be reused for fresh data.
    const std::uint64_t id = linearBlockId(plane, block);
    if (!journalAppend(JournalRecord{JournalRecord::Kind::kErase, 0, 0, id},
                       ops) ||
        powerBoundary(false) != PowerCut::kNone)
        return false; // power cut: the block stays unerased (all invalid)
    src.wordline = 0;
    src.msb = false;
    ops.push_back(PhysOp{PhysOp::Kind::kBlockErase, src, true});
    if (chip.eraseBlock(src.die, src.plane, block)) {
        ++erases_;
        alloc_.noteErased(plane, block);
    } else {
        ++eraseFailures_;
        alloc_.retireBlock(plane, block);
        if (health_)
            health_->noteRetiredBlock();
        journalAppend(JournalRecord{JournalRecord::Kind::kRetire, 0, 0, id},
                      ops);
        logWarn("Ftl: erase failure, retired block " + std::to_string(block) +
                " of plane " + std::to_string(plane));
    }
    return true;
}

void
Ftl::collectGarbage(PlaneIndex plane, std::vector<PhysOp> &ops)
{
    if (inGc_)
        return; // GC relocations must not recurse
    inGc_ = true;
    ++gcRuns_;

    const flash::PhysPageAddr at = planeAt(plane);
    const flash::Plane &pl = chipAt(at).plane(at.die, at.plane);

    // Greedy victim selection: the touched, non-active block with the
    // fewest valid pages (untouched blocks are still free).
    std::int64_t victim = -1;
    std::uint32_t best_valid = cfg_.geometry.pagesPerBlock() + 1;
    for (std::uint32_t b = 0; b < cfg_.geometry.blocksPerPlane; ++b) {
        const flash::Block *blk = pl.blockIfExists(b);
        if (!blk || alloc_.isActiveBlock(plane, b) ||
            alloc_.isReserved(plane, b))
            continue;
        // Only consider blocks that are fully written or hold garbage.
        if (blk->freePages() == cfg_.geometry.pagesPerBlock())
            continue; // erased / never used: not a GC victim
        if (blk->validPages() < best_valid) {
            best_valid = blk->validPages();
            victim = b;
        }
    }
    if (victim >= 0)
        evacuateBlock(plane, static_cast<std::uint32_t>(victim), ops);
    inGc_ = false;
}

std::uint32_t
Ftl::eraseSpread(PlaneIndex plane)
{
    const flash::PhysPageAddr at = planeAt(plane);
    const flash::Plane &pl = chipAt(at).plane(at.die, at.plane);
    std::uint32_t lo = UINT32_MAX, hi = 0;
    for (std::uint32_t b = 0; b < cfg_.geometry.blocksPerPlane; ++b) {
        const flash::Block *blk = pl.blockIfExists(b);
        const std::uint32_t e = blk ? blk->eraseCount() : 0;
        lo = std::min(lo, e);
        hi = std::max(hi, e);
    }
    return hi - lo;
}

void
Ftl::maybeWearLevel(PlaneIndex plane, std::vector<PhysOp> &ops)
{
    if (cfg_.wearLevelThreshold == 0 || inGc_)
        return;

    const flash::PhysPageAddr at = planeAt(plane);
    const flash::Plane &pl = chipAt(at).plane(at.die, at.plane);

    // Find the coldest block holding static (fully valid) data and the
    // overall wear range.
    std::int64_t coldest = -1;
    std::uint32_t cold_erases = UINT32_MAX, hottest = 0;
    for (std::uint32_t b = 0; b < cfg_.geometry.blocksPerPlane; ++b) {
        if (alloc_.isReserved(plane, b))
            continue; // the log region does not take part in leveling
        const flash::Block *blk = pl.blockIfExists(b);
        const std::uint32_t e = blk ? blk->eraseCount() : 0;
        hottest = std::max(hottest, e);
        if (!blk || alloc_.isActiveBlock(plane, b))
            continue;
        if (blk->validPages() == 0)
            continue; // no data worth migrating
        if (e < cold_erases) {
            cold_erases = e;
            coldest = b;
        }
    }
    if (coldest < 0 || hottest - cold_erases < cfg_.wearLevelThreshold)
        return;
    if (alloc_.freeBlocks(plane) == 0)
        return;

    // Migrate the cold block's valid pages onto a pooled (well-worn,
    // thanks to FIFO recycling) free block, then recycle the cold one.
    inGc_ = true; // reuse the recursion guard: migration must not nest
    ++wearMoves_;
    evacuateBlock(plane, static_cast<std::uint32_t>(coldest), ops);
    inGc_ = false;
}

std::optional<flash::PhysPageAddr>
Ftl::allocateOrGc(PlaneIndex plane, bool lsb_only, std::vector<PhysOp> &ops)
{
    if (alloc_.freeBlocks(plane) < gcThresholdBlocks_) {
        collectGarbage(plane, ops);
        maybeWearLevel(plane, ops);
    }
    auto a = lsb_only ? alloc_.nextLsbOnly(plane) : alloc_.nextPage(plane);
    if (!a) {
        collectGarbage(plane, ops);
        a = lsb_only ? alloc_.nextLsbOnly(plane) : alloc_.nextPage(plane);
    }
    return a;
}

std::optional<PagePair>
Ftl::allocatePairOrGc(PlaneIndex plane, std::vector<PhysOp> &ops)
{
    if (alloc_.freeBlocks(plane) < gcThresholdBlocks_)
        collectGarbage(plane, ops);
    auto p = alloc_.nextPair(plane);
    if (!p) {
        collectGarbage(plane, ops);
        p = alloc_.nextPair(plane);
    }
    return p;
}

std::optional<flash::PhysPageAddr>
Ftl::placePage(std::optional<PlaneIndex> plane, bool lsb_only,
               const BitVector *data, bool for_gc, std::vector<PhysOp> &ops,
               Lpn lpn, OobTag tag, bool scrambled)
{
    for (int attempt = 0; attempt < kMaxProgramRetries; ++attempt) {
        if (powerLost_)
            return std::nullopt;
        // A plane full even after GC (e.g. fault-retired blocks) or a
        // failed program costs a retry; unpinned, the next attempt
        // strides to another plane.
        const PlaneIndex p = plane ? *plane : pickAlivePlane();
        const auto a = allocateOrGc(p, lsb_only, ops);
        if (a && programPhys(*a, data, for_gc, ops, lpn, tag, scrambled))
            return a;
        ++programRetries_;
    }
    if (!powerLost_)
        logWarn("Ftl: program retries exhausted for LPN " +
                std::to_string(lpn));
    return std::nullopt;
}

bool
Ftl::writePage(Lpn lpn, const BitVector *data, std::vector<PhysOp> &ops)
{
    PROFILE_SCOPE(obs::Subsystem::kFtl);
    if (lpn >= logicalPages_)
        fatal("Ftl::writePage: LPN beyond logical capacity");
    BitVector whitened;
    const BitVector *payload = data;
    const bool scramble = cfg_.scrambleHostData && data;
    if (scramble) {
        whitened = *data;
        scrambler_.apply(whitened, lpn);
        payload = &whitened;
    }
    const auto a = placePage(std::nullopt, false, payload, false, ops, lpn,
                             OobTag::kHostData, scramble);
    if (!a)
        return false; // a cut or exhausted retries: never acknowledged
    if (scramble)
        scrambledLpns_.insert(lpn);
    else
        scrambledLpns_.erase(lpn);
    ++hostWrites_;
    mapLpn(lpn, *a);
    maybeCheckpoint(ops);
    return true;
}

BitVector
Ftl::readPage(Lpn lpn, std::vector<PhysOp> &ops)
{
    PROFILE_SCOPE(obs::Subsystem::kFtl);
    auto it = map_.find(lpn);
    if (it == map_.end())
        fatal("Ftl::readPage: unmapped LPN");
    const flash::PhysPageAddr &a = it->second;
    if (powerBoundary(false) != PowerCut::kNone)
        return BitVector(cfg_.geometry.pageBits(), false); // power is down
    ops.push_back(PhysOp{PhysOp::Kind::kPageRead, a, false});
    BitVector page = chipAt(a).readPage(chipAddr(a));
    if (cfg_.scrambleHostData && scrambledLpns_.count(lpn))
        scrambler_.apply(page, lpn);
    return page;
}

std::optional<flash::PhysPageAddr>
Ftl::lookup(Lpn lpn) const
{
    auto it = map_.find(lpn);
    if (it == map_.end())
        return std::nullopt;
    return it->second;
}

bool
Ftl::pageAccessible(Lpn lpn)
{
    auto it = map_.find(lpn);
    if (it == map_.end())
        return false;
    const flash::PhysPageAddr &a = it->second;
    return chipAt(a).planeOperational(a.die, a.plane);
}

bool
Ftl::trim(Lpn lpn, std::vector<PhysOp> *ops)
{
    if (powerLost_)
        return false;
    if (map_.count(lpn) == 0)
        return true;
    // Write-ahead: the trim record must be durable before the mapping
    // is dropped, otherwise recovery would resurrect the page (its OOB
    // entry is still the newest mapping on flash).
    std::vector<PhysOp> local;
    std::vector<PhysOp> &o = ops ? *ops : local;
    if (!journalAppend(JournalRecord{JournalRecord::Kind::kTrim, 0, lpn, 0},
                       o))
        return false; // cut before the record flushed: trim not acked
    unmapLpn(lpn);
    scrambledLpns_.erase(lpn);
    // A buffered unpaired-LSB copy of this LPN must die with the trim,
    // or a later capacitor flush would resurrect the trimmed page.
    for (auto pit = plpBuffer_.begin(); pit != plpBuffer_.end();) {
        if (pit->second.lpn == lpn)
            pit = plpBuffer_.erase(pit);
        else
            ++pit;
    }
    return true;
}

void
Ftl::releaseInternal(Lpn lpn)
{
    if (!powerLost_)
        unmapLpn(lpn);
}

std::optional<PagePair>
Ftl::writePair(Lpn lpn_x, Lpn lpn_y, const BitVector *data_x,
               const BitVector *data_y, std::vector<PhysOp> &ops,
               std::optional<PlaneIndex> plane)
{
    if (plane && !planeAlive(*plane))
        return std::nullopt;
    for (int attempt = 0; attempt < kMaxProgramRetries; ++attempt) {
        if (powerLost_)
            break;
        const PlaneIndex p = plane ? *plane : pickAlivePlane();
        const auto pair = allocatePairOrGc(p, ops);
        if (!pair) {
            ++programRetries_;
            continue;
        }
        if (!programPhys(pair->lsb, data_x, false, ops, lpn_x,
                         OobTag::kParabitPair)) {
            ++programRetries_;
            continue;
        }
        if (!programPhys(pair->msb, data_y, false, ops, lpn_y,
                         OobTag::kParabitPair)) {
            // The block was retired (or the program torn by a power
            // cut); the LSB half just written goes with it — mark it
            // garbage so GC never relocates it.  Until both halves are
            // durable neither LPN's mapping moves (copy-then-remap), so
            // a cut here fully rolls the pair placement back.
            invalidatePhys(pair->lsb);
            ++programRetries_;
            continue;
        }
        parabitWrites_ += 2;
        // ParaBit operands are stored raw (scrambling off, Sec 4.3.2).
        scrambledLpns_.erase(lpn_x);
        scrambledLpns_.erase(lpn_y);
        mapLpn(lpn_x, pair->lsb);
        mapLpn(lpn_y, pair->msb);
        maybeCheckpoint(ops);
        return *pair;
    }
    if (!powerLost_)
        logWarn("Ftl::writePair: program retries exhausted");
    return std::nullopt;
}

std::optional<flash::PhysPageAddr>
Ftl::writeLsbOnly(Lpn lpn, const BitVector *data, std::vector<PhysOp> &ops,
                  std::optional<PlaneIndex> plane)
{
    if (plane && !planeAlive(*plane))
        return std::nullopt;
    const auto a =
        placePage(plane, true, data, false, ops, lpn, OobTag::kParabitLsbOnly);
    if (!a)
        return std::nullopt;
    ++parabitWrites_;
    scrambledLpns_.erase(lpn);
    mapLpn(lpn, *a);
    maybeCheckpoint(ops);
    return a;
}

bool
Ftl::writeIntoFreeMsb(Lpn lpn, const flash::PhysPageAddr &lsb_addr,
                      const BitVector *data, std::vector<PhysOp> &ops)
{
    flash::PhysPageAddr msb = lsb_addr;
    msb.msb = true;
    flash::Chip &chip = chipAt(msb);
    if (chip.pageState(chipAddr(msb)) != flash::PageState::kFree)
        return false;

    // Crash hazard: a power cut mid-tPROG of this MSB tears the
    // wordline and takes the *already acknowledged* LSB page with it.
    // In recovery mode, first copy that LSB aside (backup, higher
    // sequence number, mapping untouched); after the MSB is durable a
    // journaled remap re-asserts the original location and releases the
    // copy.  Whatever prefix of that protocol a cut leaves behind,
    // arbitration resolves to intact data (copy-then-remap).
    std::optional<flash::PhysPageAddr> backup;
    Lpn lsb_lpn = kNoLpn;
    if (recoveryEnabled()) {
        auto rit = reverse_.find(flash::linearPageIndex(cfg_.geometry,
                                                        lsb_addr));
        if (rit != reverse_.end()) {
            lsb_lpn = rit->second;
            if (powerBoundary(false) != PowerCut::kNone)
                return false;
            BitVector copy = chip.readPage(chipAddr(lsb_addr));
            ops.push_back(PhysOp{PhysOp::Kind::kPageRead, lsb_addr, false});
            const PlaneIndex p = planeIndex(
                cfg_.geometry, PlaneCoord{lsb_addr.channel, lsb_addr.chip,
                                          lsb_addr.die, lsb_addr.plane});
            // Placed without GC, so no GC run can relocate the very LSB
            // we are protecting out from under the caller's placement
            // decision.
            const auto a = programInPlane(
                p, true, cfg_.storeData ? &copy : nullptr, false, ops,
                lsb_lpn, OobTag::kPairBackup,
                scrambledLpns_.count(lsb_lpn) > 0);
            if (!a)
                return false; // cannot protect the LSB: refuse the drop
            backup = *a;
            ++parabitWrites_; // protocol overhead traffic
        }
    }

    if (!programPhys(msb, data, false, ops, lpn, OobTag::kParabitChainMsb)) {
        // Block retired or power cut; roll the protocol back.
        if (backup && !powerLost_)
            invalidatePhys(*backup);
        return false;
    }
    if (backup) {
        // MSB durable: journal the drop itself (its block may be
        // outside the bounded scan set) and re-assert the original LSB
        // location with a sequence number above the backup's, then drop
        // the copy.  A cut between these steps leaves the backup as the
        // arbitration winner — same data, different page.
        journalAppend(
            JournalRecord{JournalRecord::Kind::kRemap, 0, lpn,
                          flash::linearPageIndex(cfg_.geometry, msb)},
            ops);
        journalAppend(
            JournalRecord{JournalRecord::Kind::kRemap, 0, lsb_lpn,
                          flash::linearPageIndex(cfg_.geometry, lsb_addr)},
            ops);
        if (!powerLost_)
            invalidatePhys(*backup);
    } else if (recoveryEnabled()) {
        journalAppend(
            JournalRecord{JournalRecord::Kind::kRemap, 0, lpn,
                          flash::linearPageIndex(cfg_.geometry, msb)},
            ops);
    }
    ++parabitWrites_;
    scrambledLpns_.erase(lpn);
    mapLpn(lpn, msb);
    maybeCheckpoint(ops);
    return true;
}

bool
Ftl::refreshWordline(const flash::PhysPageAddr &wl, std::vector<PhysOp> &ops)
{
    if (powerLost_)
        return false;
    flash::PhysPageAddr lsb = wl;
    lsb.msb = false;
    flash::PhysPageAddr msb = wl;
    msb.msb = true;
    flash::Chip &chip = chipAt(wl);
    const bool lsb_valid =
        chip.pageState(chipAddr(lsb)) == flash::PageState::kValid;
    const bool msb_valid =
        chip.pageState(chipAddr(msb)) == flash::PageState::kValid;
    const Lpn lsb_lpn = lsb_valid ? lpnAt(lsb) : kNoLpn;
    const Lpn msb_lpn = msb_valid ? lpnAt(msb) : kNoLpn;

    auto tag_of = [&](const flash::PhysPageAddr &a) {
        const flash::PageOob *oob = chip.pageOob(chipAddr(a));
        return oob ? static_cast<OobTag>(oob->tag) : OobTag::kNone;
    };
    auto is_parabit = [](OobTag t) {
        return t == OobTag::kParabitPair || t == OobTag::kParabitLsbOnly ||
               t == OobTag::kParabitChainMsb;
    };

    // A co-located ParaBit operand pair moves atomically through
    // writePair (copy-then-remap): both operands land on one fresh
    // wordline, so co-location — and mid-refresh readability — hold.
    // ParaBit operands are stored raw, so the writePair path's
    // scrambling reset is a no-op for them.
    if (lsb_valid && msb_valid && lsb_lpn != kNoLpn && msb_lpn != kNoLpn &&
        is_parabit(tag_of(lsb)) && is_parabit(tag_of(msb))) {
        if (powerBoundary(false) != PowerCut::kNone)
            return false;
        BitVector dx = chip.readPage(chipAddr(lsb));
        ops.push_back(PhysOp{PhysOp::Kind::kPageRead, lsb, true});
        BitVector dy = chip.readPage(chipAddr(msb));
        ops.push_back(PhysOp{PhysOp::Kind::kPageRead, msb, true});
        const auto pair =
            writePair(lsb_lpn, msb_lpn, cfg_.storeData ? &dx : nullptr,
                      cfg_.storeData ? &dy : nullptr, ops);
        return pair.has_value();
    }

    // Everything else relocates per page, preserving tag semantics:
    // LSB-only placements keep their free-MSB property, data pages
    // move as GC-style copies with their scrambling flag intact.
    // Unmapped valid pages (pair backups mid-protocol) are left alone.
    bool ok = true;
    for (const bool m : {false, true}) {
        const flash::PhysPageAddr &src = m ? msb : lsb;
        const Lpn lpn = m ? msb_lpn : lsb_lpn;
        if (lpn == kNoLpn)
            continue;
        if (powerBoundary(false) != PowerCut::kNone)
            return false;
        BitVector data = chip.readPage(chipAddr(src));
        ops.push_back(PhysOp{PhysOp::Kind::kPageRead, src, true});
        const bool lsb_only = !m && tag_of(src) == OobTag::kParabitLsbOnly;
        const auto a = placePage(
            std::nullopt, lsb_only, cfg_.storeData ? &data : nullptr, true,
            ops, lpn,
            lsb_only ? OobTag::kParabitLsbOnly : relocationTag(src, lpn),
            scrambledLpns_.count(lpn) > 0);
        if (!a) {
            ok = false;
            continue;
        }
        ++refreshWrites_;
        mapLpn(lpn, *a);
        maybeCheckpoint(ops);
    }
    return ok;
}

bool
Ftl::relocatePage(Lpn lpn, const BitVector *data, std::vector<PhysOp> &ops)
{
    auto it = map_.find(lpn);
    if (it == map_.end())
        return false;
    const auto a =
        placePage(std::nullopt, false, data, true, ops, lpn,
                  relocationTag(it->second, lpn), scrambledLpns_.count(lpn) > 0);
    if (!a)
        return false;
    ++refreshWrites_;
    mapLpn(lpn, *a);
    maybeCheckpoint(ops);
    return true;
}

void
Ftl::auditInvariants(InvariantReport &r) const
{
    const flash::FlashGeometry &g = cfg_.geometry;

    // ftl.map.bijection: map_ and reverse_ are exact inverses.  Equal
    // sizes plus every forward entry round-tripping implies the reverse
    // map holds nothing else.
    if (!r.check(map_.size() == reverse_.size()))
        r.fail("ftl.map.bijection", "table sizes",
               "map has " + std::to_string(map_.size()) +
                   " entries, reverse has " +
                   std::to_string(reverse_.size()));
    for (const auto &[lpn, addr] : map_) {
        const std::uint64_t lin = flash::linearPageIndex(g, addr);
        const auto rit = reverse_.find(lin);
        if (!r.check(rit != reverse_.end() && rit->second == lpn)) {
            r.fail("ftl.map.bijection", "lpn " + std::to_string(lpn),
                   "maps to linear page " + std::to_string(lin) +
                       ", whose reverse entry is " +
                       (rit == reverse_.end()
                            ? std::string("missing")
                            : "lpn " + std::to_string(rit->second)));
            continue; // the OOB checks below would only cascade
        }

        // ftl.map.oob: the mapped page is valid on flash and its OOB
        // metadata agrees with the tables.
        const flash::Chip &chip =
            (*chips_)[static_cast<std::size_t>(addr.channel) *
                          g.chipsPerChannel +
                      addr.chip];
        const flash::Block *blk =
            chip.plane(addr.die, addr.plane).blockIfExists(addr.block);
        const std::string subj = "lpn " + std::to_string(lpn);
        if (!r.check(blk != nullptr &&
                     blk->pageState(addr.wordline, addr.msb) ==
                         flash::PageState::kValid)) {
            r.fail("ftl.map.oob", subj,
                   "mapped physical page is not valid on flash");
            continue;
        }
        const flash::PageOob *oob = blk->pageOob(addr.wordline, addr.msb);
        if (!r.check(oob != nullptr && oob->lpn == lpn)) {
            r.fail("ftl.map.oob", subj,
                   std::string("OOB ") +
                       (oob ? "lpn " + std::to_string(oob->lpn)
                            : "metadata missing") +
                       " does not name the mapped lpn");
            continue;
        }
        if (!r.check(oob->seq < seq_))
            r.fail("ftl.map.oob", subj,
                   "OOB seq " + std::to_string(oob->seq) +
                       " >= next sequence " + std::to_string(seq_));
        if (!r.check(oob->scrambled == (scrambledLpns_.count(lpn) > 0)))
            r.fail("ftl.map.oob", subj,
                   std::string("OOB scrambled flag ") +
                       (oob->scrambled ? "set" : "clear") +
                       " disagrees with the scrambled-LPN table");

        // ftl.host_isolation, first half: an internal LPN is only ever
        // a ParaBit copy.
        const auto tag = static_cast<OobTag>(oob->tag);
        if (isInternal(lpn) &&
            !r.check(tag == OobTag::kParabitPair ||
                     tag == OobTag::kParabitLsbOnly ||
                     tag == OobTag::kParabitChainMsb))
            r.fail("ftl.host_isolation", subj,
                   "internal LPN carries OOB tag " +
                       std::to_string(oob->tag) + ", not a ParaBit tag");
    }

    // One walk over every materialised block: valid-count accounting
    // and the MLC program-order pairing invariant.
    for (PlaneIndex p = 0; p < g.planesTotal(); ++p) {
        const PlaneCoord c = planeCoord(g, p);
        const flash::Chip &chip =
            (*chips_)[static_cast<std::size_t>(c.channel) *
                          g.chipsPerChannel +
                      c.chip];
        const flash::Plane &pl = chip.plane(c.die, c.plane);
        for (std::uint32_t b = 0; b < g.blocksPerPlane; ++b) {
            const flash::Block *blk = pl.blockIfExists(b);
            if (!blk)
                continue;
            const std::string subj = "plane " + std::to_string(p) +
                                     " block " + std::to_string(b);
            std::uint32_t valid = 0;
            for (std::uint32_t wl = 0; wl < blk->wordlines(); ++wl) {
                const flash::PageState lsb = blk->pageState(wl, false);
                const flash::PageState msb = blk->pageState(wl, true);
                valid += (lsb == flash::PageState::kValid) +
                         (msb == flash::PageState::kValid);
                // ftl.host_isolation, second half: host data (written or
                // GC-moved) only ever names a host LPN.
                for (const bool m : {false, true}) {
                    const flash::PageOob *oob = blk->pageOob(wl, m);
                    const auto tag =
                        oob ? static_cast<OobTag>(oob->tag) : OobTag::kNone;
                    if (blk->pageState(wl, m) == flash::PageState::kValid &&
                        (tag == OobTag::kHostData ||
                         tag == OobTag::kGcRelocated) &&
                        !r.check(!isInternal(oob->lpn)))
                        r.fail("ftl.host_isolation",
                               subj + " wordline " + std::to_string(wl),
                               "host-data page names internal LPN " +
                                   std::to_string(oob->lpn));
                }
                // ftl.pair.lsb_msb: an MSB page is only ever programmed
                // over a non-free LSB (interleaved order, writePair,
                // writeIntoFreeMsb all guarantee it).
                if (!r.check(msb == flash::PageState::kFree ||
                             lsb != flash::PageState::kFree))
                    r.fail("ftl.pair.lsb_msb",
                           subj + " wordline " + std::to_string(wl),
                           "MSB page programmed while the LSB page is "
                           "free");
            }
            if (!r.check(valid == blk->validPages()))
                r.fail("ftl.blocks.valid_count", subj,
                       "block counter says " +
                           std::to_string(blk->validPages()) +
                           " valid pages, recount says " +
                           std::to_string(valid));
        }
    }
}

bool
Ftl::debugCorruptMapping(Lpn lpn)
{
    const auto it = map_.find(lpn);
    if (it == map_.end())
        return false;
    // Reroute the forward entry one wordline over; reverse_ still holds
    // the old linear index, so the bijection audit must fire.
    it->second.wordline =
        (it->second.wordline + 1) % cfg_.geometry.wordlinesPerBlock;
    return true;
}

bool
Ftl::debugWriteHostTagged(Lpn lpn)
{
    std::vector<PhysOp> ops;
    const auto a = allocateOrGc(pickAlivePlane(), false, ops);
    if (!a || !programPhys(*a, nullptr, false, ops, lpn, OobTag::kHostData))
        return false;
    mapLpn(lpn, *a);
    return true;
}

} // namespace parabit::ssd
