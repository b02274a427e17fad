/**
 * @file
 * Page-mapping Flash Translation Layer with greedy garbage collection.
 *
 * The FTL is purely functional: it mutates the chip array and appends a
 * log of the physical operations it performed (including GC traffic) so
 * the device layer can book them on the timing model.  Besides the
 * standard read/write/trim path it exposes the placement primitives the
 * ParaBit controller builds on:
 *
 *  - writePair():  place two logical pages on one wordline (operand
 *                  co-location / ReAllocation);
 *  - writeLsbOnly(): LSB-only placement leaving MSBs free (Section 5.5
 *                  pre-allocation);
 *  - writeIntoFreeMsb(): drop a fresh logical page into the free MSB of
 *                  an existing wordline (chained-result placement).
 *
 * With SsdConfig::recovery enabled the FTL is crash-consistent: every
 * program carries OOB metadata (LPN, sequence number, tag), mapping
 * deletions are write-ahead journaled to a reserved SLC log region,
 * periodic checkpoints bound the recovery scan, and powerCycle()
 * rebuilds map/reverse/allocator state after a kPowerLoss fault cut
 * execution at an arbitrary PhysOp boundary.  See DESIGN.md "Crash
 * consistency".
 */

#ifndef PARABIT_SSD_FTL_HPP_
#define PARABIT_SSD_FTL_HPP_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/bitvector.hpp"
#include "common/invariant.hpp"
#include "flash/chip.hpp"
#include "obs/metrics.hpp"
#include "ssd/allocator.hpp"
#include "ssd/config.hpp"
#include "ssd/fault_injector.hpp"
#include "ssd/recovery.hpp"
#include "ssd/scrambler.hpp"

namespace parabit::ssd {

class RainController;
class DeviceHealth;

/** One physical flash operation, for the timing layer. */
struct PhysOp
{
    enum class Kind : std::uint8_t
    {
        kPageRead,    ///< array sense (1 SRO LSB / 2 SRO MSB) + page out
        kPageProgram, ///< page in + program
        kBlockErase,  ///< erase (addr.block significant)
        kScrubRead,   ///< patrol-scrub scan sense (low-priority, no xfer)
    };

    Kind kind;
    flash::PhysPageAddr addr;
    bool forGc = false; ///< true when induced by garbage collection
};

/** Page-mapping FTL; see file comment. */
class Ftl
{
  public:
    /** Re-placements attempted after a program failure before the write
     *  is reported as failed (each failure also retires a block, so
     *  repeated failures walk across fresh blocks, not the same one). */
    static constexpr int kMaxProgramRetries = 4;

    /** Blocks reserved at the top of every plane for the SPOR
     *  checkpoint/journal region when recovery is enabled: two
     *  ping-pong halves of one block each. */
    static constexpr std::uint32_t kReservedBlocksPerPlane = 2;
    static_assert(kReservedBlocksPerPlane >= 2 &&
                      kReservedBlocksPerPlane % 2 == 0,
                  "the log region is two equal ping-pong halves");

    /**
     * @param cfg device configuration
     * @param chips chip array, indexed channel * chipsPerChannel + chip
     */
    Ftl(const SsdConfig &cfg, std::vector<flash::Chip> &chips);

    /** Logical capacity in pages after over-provisioning: the host
     *  LPN range [0, logicalPages()). */
    std::uint64_t logicalPages() const { return logicalPages_; }

    /** True for an internal LPN: one above host capacity, which only
     *  the ParaBit controller's scratch copies use (see
     *  releaseInternal()). */
    bool
    isInternal(Lpn lpn) const
    {
        return lpn >= logicalPages_ && lpn != kNoLpn;
    }

    /** @name Standard host path. */
    /// @{

    /**
     * Write one logical page (data may be null in timing mode); striped
     * placement, interleaved density.  GC may piggyback.  A program
     * failure retires the block and retries on a fresh one; @return
     * false only when the bounded retries are exhausted.
     */
    bool writePage(Lpn lpn, const BitVector *data, std::vector<PhysOp> &ops);

    /** Read a mapped logical page (ECC-clean). */
    BitVector readPage(Lpn lpn, std::vector<PhysOp> &ops);

    /** Current physical location of @p lpn, if mapped. */
    std::optional<flash::PhysPageAddr> lookup(Lpn lpn) const;

    /** True iff @p lpn is mapped and its plane is operational (a dead
     *  plane makes the stored copy unreadable — data loss). */
    bool pageAccessible(Lpn lpn);

    /**
     * Unmap @p lpn and invalidate its physical page.  In recovery mode
     * the trim is write-ahead journaled before the mapping is touched;
     * @return false when a power cut struck before the journal record
     * became durable (the trim is then NOT acknowledged and recovery
     * may legitimately keep the page mapped).  @p ops receives the
     * journal-flush program when provided.
     */
    bool trim(Lpn lpn, std::vector<PhysOp> *ops = nullptr);

    /**
     * Release internal LPN @p lpn (a scratch copy whose op retired):
     * invalidate its page and unmap it.  Writes no journal record —
     * recovery treats any OOB LPN above host capacity as garbage, and
     * checkpoints leave internal LPNs out.  No-op when @p lpn is
     * unmapped or power is lost (recovery then drops the copy).
     */
    void releaseInternal(Lpn lpn);
    /// @}

    /** @name ParaBit placement primitives. */
    /// @{

    /**
     * Place logical pages @p lpn_x (LSB) and @p lpn_y (MSB) on one fresh
     * wordline of @p plane (or a striped plane if nullopt).
     * @return the wordline's pair of physical addresses, or nullopt if
     * the requested plane is dead or program retries were exhausted.
     */
    std::optional<PagePair>
    writePair(Lpn lpn_x, Lpn lpn_y, const BitVector *data_x,
              const BitVector *data_y, std::vector<PhysOp> &ops,
              std::optional<PlaneIndex> plane = std::nullopt);

    /** LSB-only placement of @p lpn in @p plane (or striped); nullopt
     *  under the same failure conditions as writePair(). */
    std::optional<flash::PhysPageAddr>
    writeLsbOnly(Lpn lpn, const BitVector *data, std::vector<PhysOp> &ops,
                 std::optional<PlaneIndex> plane = std::nullopt);

    /**
     * Write @p lpn into the free MSB page of the wordline holding
     * @p lsb_addr.  Fails (returns false) if that MSB is not free.
     */
    bool writeIntoFreeMsb(Lpn lpn, const flash::PhysPageAddr &lsb_addr,
                          const BitVector *data, std::vector<PhysOp> &ops);
    /// @}

    /** @name Media management (patrol scrub / RAIN); see ssd/media.hpp. */
    /// @{

    /**
     * Attach the device's RAIN parity controller.  Every data-page
     * program and invalidation is then reported to it, keeping stripe
     * parity consistent across host writes, GC, wear leveling, trims,
     * refresh relocation and ParaBit reallocation.
     */
    void setRain(RainController *rain) { rain_ = rain; }

    /** Attach the device health machine: every bad-block retirement
     *  then charges its error budget (ssd/health.hpp). */
    void setHealth(DeviceHealth *health) { health_ = health; }

    /** LPN mapped to physical page @p a, or kNoLpn. */
    Lpn lpnAt(const flash::PhysPageAddr &a) const;

    /**
     * Refresh-relocate the wordline of @p wl (patrol scrubber, elevated
     * predicted RBER): every valid mapped page moves to a fresh
     * location with tag and scrambling preserved, old copies are
     * invalidated copy-then-remap style.  A co-located ParaBit operand
     * pair moves through writePair(), keeping both operands on one
     * fresh wordline.  @return false when any page could not be
     * re-placed (it then keeps its old location — degraded, not lost).
     */
    bool refreshWordline(const flash::PhysPageAddr &wl,
                         std::vector<PhysOp> &ops);

    /**
     * Re-place @p lpn's content (e.g. a RAIN rebuild of a dead-die
     * page) on a fresh page of an operational plane and remap; the old
     * copy is invalidated.  @p data may be null in timing mode.
     */
    bool relocatePage(Lpn lpn, const BitVector *data,
                      std::vector<PhysOp> &ops);

    /** Pages re-placed by refresh/repair relocation. */
    std::uint64_t refreshPagesWritten() const { return refreshWrites_.value(); }
    /// @}

    /** @name Crash consistency (SPOR); see file comment. */
    /// @{

    bool recoveryEnabled() const { return cfg_.recovery.enabled; }

    /** Wire the device's fault injector in (power-cut boundaries are
     *  consumed from it; null = no power faults possible). */
    void setFaultInjector(FaultInjector *injector) { injector_ = injector; }

    /** True after a kPowerLoss fault fired: every subsequent flash op
     *  is suppressed until powerCycle(). */
    bool powerLost() const { return powerLost_; }

    /**
     * Take a full checkpoint now (NVMe Flush / shutdown notification):
     * the mapping + allocator snapshot is written to the inactive half
     * of the reserved log region and committed, and the journal tail is
     * cleared.  @return false if recovery is disabled, power is lost,
     * or the cut struck before the commit page (the previous checkpoint
     * generation then remains the durable truth).
     */
    bool checkpoint(std::vector<PhysOp> &ops);

    /**
     * Power restoration after a cut: rebuild map_/reverse_/scrambled
     * state by checkpoint load + journal replay + OOB scan with
     * sequence-number arbitration (torn wordlines discarded), rebuild
     * the allocator from physical block occupancy, and take a fresh
     * checkpoint.  With recovery disabled the mapping is simply lost
     * (the device stays usable for new writes).  @p ops receives the
     * scan/replay reads for the timing layer.
     */
    RecoveryReport powerCycle(std::vector<PhysOp> &ops);

    /** The modeled content of the reserved log region (tests). */
    const DurableLog &durableLog() const { return durable_; }

    std::uint64_t checkpointsTaken() const { return checkpoints_.value(); }
    std::uint64_t journalRecordsWritten() const
    {
        return journalWrites_.value();
    }
    /** Next OOB sequence number (monotonic across power cycles). */
    std::uint64_t sequence() const { return seq_; }
    /// @}

    /** @name Statistics (endurance / WAF). */
    /// @{
    std::uint64_t hostPagesWritten() const { return hostWrites_.value(); }
    std::uint64_t gcPagesWritten() const { return gcWrites_.value(); }
    std::uint64_t totalPagesWritten() const
    {
        return hostWrites_.value() + gcWrites_.value() +
               parabitWrites_.value() + refreshWrites_.value();
    }
    /** Pages written by ParaBit reallocation (counted via writePair /
     *  writeLsbOnly / writeIntoFreeMsb). */
    std::uint64_t parabitPagesWritten() const
    {
        return parabitWrites_.value();
    }
    std::uint64_t blockErases() const { return erases_.value(); }
    std::uint64_t gcRuns() const { return gcRuns_.value(); }
    std::uint64_t wearLevelMoves() const { return wearMoves_.value(); }

    /** @name Reliability counters. */
    /// @{
    std::uint64_t programFailures() const { return programFailures_.value(); }
    std::uint64_t eraseFailures() const { return eraseFailures_.value(); }
    /** Program attempts re-placed after a failure. */
    std::uint64_t programRetries() const { return programRetries_.value(); }
    std::uint64_t retiredBlocks() const { return alloc_.retiredBlocks(); }
    /// @}

    /** Max-min block erase-count spread in @p plane (wear skew). */
    std::uint32_t eraseSpread(PlaneIndex plane);
    double
    writeAmplification() const
    {
        const std::uint64_t host = hostWrites_.value() + parabitWrites_.value();
        return host == 0 ? 1.0
                         : static_cast<double>(totalPagesWritten()) /
                               static_cast<double>(host);
    }
    /// @}

    /** @name Invariant audit (common/invariant.hpp). */
    /// @{

    /**
     * Audit the FTL's structural invariants against the chip array,
     * appending violations to @p r:
     *
     *  - ftl.map.bijection: map_ and reverse_ are exact inverses;
     *  - ftl.map.oob: every mapped page is valid on flash and its OOB
     *    metadata (LPN, sequence bound, scrambled flag) agrees with the
     *    mapping tables;
     *  - ftl.blocks.valid_count: every block's incremental valid-page
     *    counter equals a recount of its page states;
     *  - ftl.pair.lsb_msb: no wordline has a programmed MSB page over a
     *    free LSB page (MLC shared-wordline program order, which the
     *    ParaBit pairing/chaining placements rely on);
     *  - ftl.host_isolation: every mapped internal LPN carries a ParaBit
     *    OOB tag, and every valid host-data or GC-relocated page names a
     *    host LPN (internal machinery never writes host-visible LPNs).
     *
     * Pure observation: no flash traffic, no timing effect.
     */
    void auditInvariants(InvariantReport &r) const;

    /**
     * Deliberately corrupt the mapping of @p lpn — the physical address
     * is rerouted without updating reverse_ — so negative tests and the
     * parabit-model counterexample path can prove the audit fires.
     * @return false when @p lpn is unmapped.  Test-only.
     */
    bool debugCorruptMapping(Lpn lpn);

    /**
     * Program a host-tagged page for @p lpn past writePage()'s capacity
     * bound, so negative tests can prove ftl.host_isolation fires on an
     * internal LPN.  @return false when no page could be programmed.
     * Test-only.
     */
    bool debugWriteHostTagged(Lpn lpn);
    /// @}

    /** Direct chip access for the controller layer. */
    flash::Chip &chipAt(const flash::PhysPageAddr &a);

    Allocator &allocator() { return alloc_; }

  private:
    flash::ChipPageAddr chipAddr(const flash::PhysPageAddr &a) const;
    /** Page 0 of block 0 in @p plane (planeAddr for this device). */
    flash::PhysPageAddr planeAt(PlaneIndex plane) const;
    /** Invalidate the physical page at @p a, folding it out of RAIN
     *  parity first (invalidate drops the payload the XOR needs).  The
     *  only invalidation gateway, as programPhys is for programs. */
    void invalidatePhys(const flash::PhysPageAddr &a);
    /** OOB tag for a relocated copy of @p src, which holds @p lpn: a
     *  host page becomes kGcRelocated, an internal one keeps its ParaBit
     *  tag (ftl.host_isolation). */
    OobTag relocationTag(const flash::PhysPageAddr &src, Lpn lpn);
    /** @name The map's only writers (besides the wholesale clears of
     *  recovery and powerCycle, and debugCorruptMapping).  mapLpn
     *  invalidates @p lpn's previous copy; unmapLpn invalidates its
     *  copy and drops it (no-op when unmapped). */
    /// @{
    void mapLpn(Lpn lpn, const flash::PhysPageAddr &a);
    void unmapLpn(Lpn lpn);
    /// @}
    /** Allocate in @p plane, running GC first if needed.  nullopt when
     *  the plane has no space even after GC (full, or its blocks were
     *  retired by faults) — callers retry elsewhere or fail typed. */
    std::optional<flash::PhysPageAddr>
    allocateOrGc(PlaneIndex plane, bool lsb_only, std::vector<PhysOp> &ops);
    std::optional<PagePair> allocatePairOrGc(PlaneIndex plane,
                                             std::vector<PhysOp> &ops);
    /** Greedy GC: evacuate the touched block with the fewest valid
     *  pages. */
    void collectGarbage(PlaneIndex plane, std::vector<PhysOp> &ops);
    /** Static wear leveling: evacuate the coldest data block once the
     *  plane's erase spread reaches cfg_.wearLevelThreshold. */
    void maybeWearLevel(PlaneIndex plane, std::vector<PhysOp> &ops);
    /**
     * Move every valid page of @p block into @p plane's write cursor
     * (relocationTag copies keeping the scrambling flag, remapped
     * copy-then-remap), journal the erase ahead, then erase the block —
     * an erase failure retires it instead.  @return false, leaving the
     * block unerased with its unmoved pages still valid, on a power cut
     * or when the plane runs out of relocation targets (one warning).
     */
    bool evacuateBlock(PlaneIndex plane, std::uint32_t block,
                       std::vector<PhysOp> &ops);
    /**
     * The placement retry loop: up to kMaxProgramRetries attempts, each
     * on @p plane (or the next operational striped plane), allocating
     * through allocateOrGc and programming with programPhys; a full
     * plane or a failed program counts a retry and tries again.
     * @return the programmed address, or nullopt when power is lost or
     * the retries are exhausted (one warning).
     */
    std::optional<flash::PhysPageAddr>
    placePage(std::optional<PlaneIndex> plane, bool lsb_only,
              const BitVector *data, bool for_gc, std::vector<PhysOp> &ops,
              Lpn lpn, OobTag tag, bool scrambled = false);
    /** Program into @p plane's next page (LSB-only cursor when
     *  @p lsb_only) without running GC, walking past every block a
     *  program failure retires.  nullopt when the plane runs out of
     *  pages or power is lost. */
    std::optional<flash::PhysPageAddr>
    programInPlane(PlaneIndex plane, bool lsb_only, const BitVector *data,
                   bool for_gc, std::vector<PhysOp> &ops, Lpn lpn, OobTag tag,
                   bool scrambled);
    /** Program @p a (attempt is charged to @p ops either way) with OOB
     *  {@p lpn, fresh seq, @p tag, @p scrambled}; on an injected
     *  program failure the block is retired and false returned; on a
     *  mid-program power cut the wordline is torn and false returned. */
    bool programPhys(const flash::PhysPageAddr &a, const BitVector *data,
                     bool for_gc, std::vector<PhysOp> &ops, Lpn lpn,
                     OobTag tag, bool scrambled = false);
    bool planeAlive(PlaneIndex plane);
    /** Next striped plane that is still operational (fatal if none). */
    PlaneIndex pickAlivePlane();

    /** @name Crash-consistency internals (ftl_recovery.cpp). */
    /// @{
    /** Consume one PhysOp boundary from the injector; latches
     *  powerLost_ on a cut.  kNone means the op may proceed. */
    PowerCut powerBoundary(bool is_program);
    /** Write-ahead append @p r: the record is durable (and pushed to
     *  durable_) only if its log-page program completed pre-cut. */
    bool journalAppend(JournalRecord r, std::vector<PhysOp> &ops);
    /** Program the next free SLC log page (skipping bad pages); when
     *  the active half is full, rotates via checkpoint() unless
     *  @p allow_rotate is false (checkpoint's own pages). */
    bool logProgram(std::vector<PhysOp> &ops, bool allow_rotate = true);
    bool eraseHalf(int half, std::vector<PhysOp> &ops);
    flash::PhysPageAddr logAddr(int half, std::uint32_t idx) const;
    /** SLC log pages per ping-pong half, device-wide. */
    std::uint32_t halfPages() const;
    std::uint64_t linearBlockId(PlaneIndex plane, std::uint32_t block) const;
    void maybeCheckpoint(std::vector<PhysOp> &ops);
    RecoveryReport recover(std::vector<PhysOp> &ops);
    /** Re-pool fully-free blocks per plane from physical occupancy. */
    void rebuildAllocator();
    /** Capacitor flush: dump the unpaired-LSB buffer to the durable
     *  log (called exactly when a power cut latches, and on a clean
     *  power cycle).  See PlpEntry. */
    void plpFlush();
    /** Re-program capacitor-flushed LSB copies whose flash page did
     *  not survive the torn wordline. */
    void restorePlpEntries(RecoveryReport &rep, std::vector<PhysOp> &ops);
    /// @}

    SsdConfig cfg_;
    std::vector<flash::Chip> *chips_;
    Allocator alloc_;
    Scrambler scrambler_;
    std::uint64_t logicalPages_;
    std::unordered_map<Lpn, flash::PhysPageAddr> map_;
    /** Reverse map: linear physical page index -> LPN (for GC). */
    std::unordered_map<std::uint64_t, Lpn> reverse_;
    /** LPNs whose stored bits are whitened (host path with scrambling);
     *  ParaBit placements store raw data and clear membership. */
    std::unordered_set<Lpn> scrambledLpns_;

    /** @name Registered instruments (obs/metrics.hpp); value() feeds
     *  the accessor API, the registry feeds snapshots and dumps. */
    /// @{
    obs::Counter hostWrites_{"ftl.pages.host_written"};
    obs::Counter gcWrites_{"ftl.pages.gc_written"};
    obs::Counter parabitWrites_{"ftl.pages.parabit_written"};
    obs::Counter erases_{"ftl.block_erases"};
    obs::Counter gcRuns_{"ftl.gc.runs"};
    obs::Counter wearMoves_{"ftl.wear_level.moves"};
    obs::Counter programFailures_{"ftl.program.failures"};
    obs::Counter eraseFailures_{"ftl.erase.failures"};
    obs::Counter programRetries_{"ftl.program.retries"};
    obs::Counter refreshWrites_{"ftl.pages.refresh_written"};
    /// @}
    RainController *rain_ = nullptr;
    DeviceHealth *health_ = nullptr;
    std::uint32_t gcThresholdBlocks_;
    bool inGc_ = false;

    /** @name Crash-consistency state. */
    /// @{
    FaultInjector *injector_ = nullptr;
    bool powerLost_ = false;
    /** Monotonic OOB/journal sequence stream (0 = never assigned). */
    std::uint64_t seq_ = 1;
    DurableLog durable_;
    int logHalf_ = 0;          ///< half holding the committed generation
    std::uint32_t logHead_ = 0; ///< next free log page in logHalf_
    std::uint32_t programsSinceCkpt_ = 0;
    bool inCheckpoint_ = false;
    obs::Counter checkpoints_{"ftl.ckpt.taken"};
    obs::Counter journalWrites_{"ftl.journal.records"};
    obs::Counter logErases_{"ftl.log.erases"};
    /** Unpaired interleaved LSB writes awaiting their partner MSB
     *  program, keyed by the LSB page's linear index (PLP-protected
     *  controller RAM; at most one entry per plane write cursor). */
    std::unordered_map<std::uint64_t, PlpEntry> plpBuffer_;
    /// @}
};

} // namespace parabit::ssd

#endif // PARABIT_SSD_FTL_HPP_
