/**
 * @file
 * Block evacuation under failure, for both of its triggers — greedy GC
 * and static wear leveling.  When the plane runs out of relocation
 * targets mid-evacuation the block must be kept (its unmoved pages are
 * the only copy), every mapped LPN must still read back, the FTL
 * invariants must hold and exactly one warning must name the abort.
 * When the final erase fails the block must be retired instead of
 * re-pooled.
 *
 * The rig is one plane of 16 blocks (16 pages each).  An LSB-only
 * placement opens the LSB-only cursor first, so the trigger — another
 * LSB-only write — still finds a page after the evacuation and runs
 * exactly one GC and one wear-level check.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "ssd/ssd.hpp"

namespace parabit::ssd {
namespace {

enum class Trigger { kGc, kWearLevel };

class Rig
{
  public:
    explicit Rig(Trigger t) : trigger_(t)
    {
        cfg_ = SsdConfig::tiny();
        cfg_.geometry.channels = 1;
        cfg_.geometry.chipsPerChannel = 1;
        cfg_.geometry.planesPerDie = 1;
        cfg_.geometry.blocksPerPlane = 16;
        cfg_.wearLevelThreshold = t == Trigger::kWearLevel ? 4 : 0;
        dev_ = std::make_unique<SsdDevice>(cfg_);
        previous_ = setLogSink([this](LogLevel l, const std::string &m) {
            if (l >= LogLevel::kWarn)
                warnings_.push_back(m);
        });
    }

    ~Rig() { setLogSink(std::move(previous_)); }
    Rig(const Rig &) = delete;
    Rig &operator=(const Rig &) = delete;

    Ftl &ftl() { return dev_->ftl(); }

    const flash::Block &
    block(std::uint32_t b)
    {
        return *dev_->chipAt(0, 0).plane(0, 0).blockIfExists(b);
    }

    std::uint32_t
    blockOf(Lpn lpn)
    {
        return ftl().lookup(lpn)->block;
    }

    void
    write(Lpn lpn)
    {
        BitVector v(cfg_.geometry.pageBits());
        for (auto &w : v.words())
            w = rng_.next();
        v.maskTail();
        data_[lpn] = v;
        ASSERT_TRUE(ftl().writePage(lpn, &data_[lpn], ops_));
    }

    /** One LSB-only write into plane 0: opens the LSB-only cursor the
     *  first time, triggers GC (and the wear-level check) later. */
    void
    writeLsbOnly(Lpn lpn)
    {
        BitVector v(cfg_.geometry.pageBits(), (lpn & 1) != 0);
        data_[lpn] = v;
        ASSERT_TRUE(ftl().writeLsbOnly(lpn, &data_[lpn], ops_, 0));
    }

    /**
     * Build the state right before the trigger and @return the block
     * the trigger evacuates.  The pool keeps @p pool_blocks blocks;
     * the others are withdrawn.  For the GC trigger the victim is the
     * full block C with 8 free pages left in the write cursor; for the
     * wear-level trigger GC first reclaims an all-invalid block and
     * the leveler then picks C (erase count 0) against a pool block
     * pre-aged to 5 erases.
     */
    std::uint32_t
    prepare(std::uint32_t pool_blocks)
    {
        writeLsbOnly(0);
        for (Lpn l = 1; l <= 16; ++l)
            write(l);
        const std::uint32_t cold = blockOf(1);
        if (trigger_ == Trigger::kGc) {
            for (Lpn l = 17; l <= 24; ++l)
                write(l);
        } else {
            for (Lpn l = 17; l <= 32; ++l)
                write(l);
            garbage_ = blockOf(17);
            for (Lpn l = 17; l <= 32; ++l)
                write(l);
        }
        Allocator &alloc = ftl().allocator();
        const std::vector<std::uint32_t> pool = alloc.poolBlocks(0);
        for (std::size_t i = pool_blocks; i < pool.size(); ++i)
            alloc.reserveBlock(0, pool[i]);
        if (trigger_ == Trigger::kWearLevel)
            for (int e = 0; e < 5; ++e)
                dev_->chipAt(0, 0).eraseBlock(0, 0, pool.front());
        return cold;
    }

    void
    trigger()
    {
        writeLsbOnly(40);
    }

    void
    injectFault(FaultClass cls, std::uint32_t block)
    {
        FaultSpec f;
        f.cls = cls;
        f.plane = 0;
        f.block = block;
        f.failPeriod = 1;
        dev_->injectFault(f);
    }

    /** Every written LPN reads back its data, and the FTL audit is
     *  clean. */
    void
    expectIntact()
    {
        for (const auto &[lpn, d] : data_) {
            std::vector<PhysOp> r;
            EXPECT_EQ(ftl().readPage(lpn, r), d) << "lpn " << lpn;
        }
        InvariantReport rep;
        ftl().auditInvariants(rep);
        EXPECT_TRUE(rep.ok()) << rep.violations.front().id;
    }

    std::size_t
    warningsContaining(const std::string &needle) const
    {
        std::size_t n = 0;
        for (const std::string &w : warnings_)
            n += w.find(needle) != std::string::npos;
        return n;
    }

    const std::vector<std::string> &warnings() const { return warnings_; }

    /** Wear-level trigger: the all-invalid block GC reclaims first. */
    std::uint32_t garbageBlock() const { return garbage_; }

  private:
    Trigger trigger_;
    SsdConfig cfg_;
    std::unique_ptr<SsdDevice> dev_;
    LogSink previous_;
    std::vector<std::string> warnings_;
    std::map<Lpn, BitVector> data_;
    std::vector<PhysOp> ops_;
    Rng rng_{11};
    std::uint32_t garbage_ = 0;
};

class EvacuationTest : public ::testing::TestWithParam<Trigger>
{
};

TEST_P(EvacuationTest, OutOfTargetsKeepsTheBlock)
{
    Rig rig(GetParam());
    std::uint32_t victim = 0;
    if (GetParam() == Trigger::kGc) {
        // No pooled block at all: 8 pages move into the cursor, the
        // ninth finds no target.
        victim = rig.prepare(0);
    } else {
        // The wear leveler only starts with a pooled block, so the
        // targets run out through retirements: every program into the
        // pooled block (and the one GC frees first) fails.
        victim = rig.prepare(1);
        const std::vector<std::uint32_t> pool =
            rig.ftl().allocator().poolBlocks(0);
        ASSERT_EQ(pool.size(), 1u);
        rig.injectFault(FaultClass::kProgramFailure, pool.front());
        rig.injectFault(FaultClass::kProgramFailure, rig.garbageBlock());
    }
    const std::uint64_t erases_before = rig.ftl().blockErases();
    rig.trigger();

    if (GetParam() == Trigger::kGc) {
        EXPECT_EQ(rig.ftl().gcRuns(), 1u);
        EXPECT_EQ(rig.ftl().gcPagesWritten(), 8u);
        EXPECT_EQ(rig.ftl().blockErases(), erases_before);
    } else {
        EXPECT_EQ(rig.ftl().wearLevelMoves(), 1u);
        EXPECT_EQ(rig.ftl().gcPagesWritten(), 0u);
        EXPECT_EQ(rig.ftl().programFailures(), 2u);
        // Only GC's all-invalid victim was erased.
        EXPECT_EQ(rig.ftl().blockErases(), erases_before + 1);
    }
    EXPECT_EQ(rig.block(victim).eraseCount(), 0u) << "victim erased";
    EXPECT_GT(rig.block(victim).validPages(), 0u);
    EXPECT_EQ(rig.warningsContaining("no space to relocate"), 1u);
    EXPECT_EQ(rig.warnings().size(), rig.ftl().programFailures() + 1);
    rig.expectIntact();
}

TEST_P(EvacuationTest, EraseFailureRetiresTheBlock)
{
    Rig rig(GetParam());
    const std::uint32_t victim = rig.prepare(1);
    rig.injectFault(FaultClass::kEraseFailure, victim);
    rig.trigger();

    EXPECT_EQ(GetParam() == Trigger::kGc ? rig.ftl().gcRuns()
                                         : rig.ftl().wearLevelMoves(),
              1u);
    EXPECT_EQ(rig.ftl().gcPagesWritten(), 16u);
    EXPECT_EQ(rig.ftl().eraseFailures(), 1u);
    EXPECT_EQ(rig.ftl().retiredBlocks(), 1u);
    EXPECT_TRUE(rig.ftl().allocator().isRetired(0, victim));
    EXPECT_EQ(rig.block(victim).validPages(), 0u);
    EXPECT_EQ(rig.warningsContaining("erase failure"), 1u);
    EXPECT_EQ(rig.warnings().size(), 1u);
    rig.expectIntact();
}

INSTANTIATE_TEST_SUITE_P(Triggers, EvacuationTest,
                         ::testing::Values(Trigger::kGc, Trigger::kWearLevel),
                         [](const auto &info) {
                             return info.param == Trigger::kGc
                                        ? std::string("GarbageCollection")
                                        : std::string("WearLeveling");
                         });

} // namespace
} // namespace parabit::ssd
