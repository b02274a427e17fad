/**
 * @file
 * Die-level RAIN (Redundant Array of Independent NAND) parity.
 *
 * A stripe is the set of pages at one (plane, block, wordline, page
 * kind) position across every die of a channel (chipsPerChannel x
 * diesPerChip members), so a whole-die failure — FaultClass::kDieFail,
 * or the narrower kDeadPlane/kDeadChip — leaves at most one member of
 * each stripe unreadable.  The controller keeps one XOR parity page per
 * stripe in its battery-backed stripe buffer:
 *
 *  - onProgram() folds every data-page program into its stripe's parity
 *    (the FTL calls it from its single program gateway) and, unless
 *    the device is degraded, books one parity-destage program on the
 *    timing model;
 *  - willInvalidate() folds a page back *out* before the FTL drops it
 *    (the simulator's invalidate() releases the payload, so the XOR
 *    must happen first);
 *  - rebuildPage() recovers an unreadable member as parity XOR the
 *    surviving members — it fails (data loss) only when a second
 *    member of the same stripe is also unreadable;
 *  - recomputeAll() rebuilds the whole parity map from flash contents
 *    after a power cycle (the stripe buffer is volatile RAM).
 *
 * Invariant: each stripe's parity equals the XOR of the stored payloads
 * of its members (pages whose payload was dropped — invalidated, torn,
 * erased — contribute nothing).  Between a mid-program power cut and
 * the subsequent powerCycle() the invariant may be violated; no reads
 * are possible in that window and recomputeAll() restores it.
 *
 * Functional parity needs stored payloads (SsdConfig::storeData); in
 * timing mode the controller still counts updates and books destage
 * traffic, but rebuildPage() reports failure.
 */

#ifndef PARABIT_SSD_RAIN_HPP_
#define PARABIT_SSD_RAIN_HPP_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/bitvector.hpp"
#include "common/invariant.hpp"
#include "obs/metrics.hpp"
#include "ssd/ftl.hpp"

namespace parabit::ssd {

class DeviceHealth;

/** Die-level parity controller; see file comment. */
class RainController
{
  public:
    RainController(const SsdConfig &cfg, std::vector<flash::Chip> &chips);

    /**
     * Attach the device health machine (ssd/health.hpp): in degraded
     * states parity-destage programs stop being booked on the timing
     * model (the stripe buffer is battery-backed, so deferring destage
     * bandwidth is safe), freeing the channels for distressed
     * foreground I/O.  Parity itself stays exactly consistent.
     */
    void setHealth(const DeviceHealth *health) { health_ = health; }

    /** Fold the just-programmed page at @p a into its stripe's parity;
     *  books the parity-destage program on @p ops unless degraded. */
    void onProgram(const flash::PhysPageAddr &a, std::vector<PhysOp> &ops);

    /** Fold the page at @p a back out of its stripe's parity.  Must be
     *  called before the page's payload is dropped (invalidate). */
    void willInvalidate(const flash::PhysPageAddr &a);

    /**
     * Recover the content of the (unreadable) page at @p a: stripe
     * parity XOR every *readable* member payload.  nullopt when the
     * stripe has no parity (timing mode / nothing ever programmed) or a
     * second member is unreadable too — genuine data loss.
     */
    std::optional<BitVector> rebuildPage(const flash::PhysPageAddr &a);

    /** Rebuild the parity map from flash contents (power cycle). */
    void recomputeAll();

    /** @name Invariant audit (common/invariant.hpp). */
    /// @{

    /**
     * Audit rain.parity.stripe_xor: every tracked stripe's parity page
     * equals the XOR of its members' stored payloads, recomputed from
     * flash (a stripe whose members all dropped their payloads must
     * hold all-zero parity).  Stripes with a member on a dead plane are
     * skipped: their buffers deliberately diverge from the survivors'
     * XOR — that difference IS the lost data, until rebuild.  Only
     * meaningful with stored data; in timing mode the audit contributes
     * no checks.  Violations are appended to @p r.
     */
    void auditParity(InvariantReport &r) const;

    /**
     * Deliberately flip a bit of one tracked parity page so negative
     * tests can prove the audit fires.  @return false when no stripe
     * holds parity yet.  Test-only.
     */
    bool debugCorruptParity();
    /// @}

    /** @name Introspection / metrics accessors. */
    /// @{
    std::size_t stripesTracked() const { return parity_.size(); }
    std::uint64_t parityUpdates() const { return updates_.value(); }
    std::uint64_t destagePrograms() const { return destages_.value(); }
    std::uint64_t rebuildsSucceeded() const { return rebuilds_.value(); }
    std::uint64_t rebuildsFailed() const { return rebuildFails_.value(); }
    /// @}

  private:
    std::uint64_t stripeKey(const flash::PhysPageAddr &a) const;

    /** Rotating destage target: the parity page of @p a's stripe lives
     *  on die (block + wordline) mod diesPerChannel, spreading parity
     *  write wear evenly across the stripe's dies. */
    flash::PhysPageAddr parityAddr(const flash::PhysPageAddr &a) const;

    /** Stored payload of @p a, or nullptr (timing mode, untouched
     *  block, or payload dropped). */
    const BitVector *payloadAt(const flash::PhysPageAddr &a) const;

    bool planeAlive(const flash::PhysPageAddr &a) const;

    void xorInto(std::uint64_t key, const BitVector &v);

    /** XOR every stored payload into @p out by stripe key (the ground
     *  truth recomputeAll() and auditParity() share). */
    void
    computeParityFromFlash(std::unordered_map<std::uint64_t, BitVector> &out)
        const;

    flash::FlashGeometry geom_;
    bool storeData_;
    std::vector<flash::Chip> *chips_;
    const DeviceHealth *health_ = nullptr;
    /** Stripe key -> parity page (store-data mode only). */
    std::unordered_map<std::uint64_t, BitVector> parity_;

    obs::Counter updates_{"rain.parity_updates"};
    obs::Counter destages_{"rain.parity_destage_programs"};
    obs::Counter rebuilds_{"rain.rebuilds_ok"};
    obs::Counter rebuildFails_{"rain.rebuilds_failed"};
    obs::Counter recomputes_{"rain.recomputes"};
};

} // namespace parabit::ssd

#endif // PARABIT_SSD_RAIN_HPP_
