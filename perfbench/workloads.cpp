#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <utility>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "parabit/host_interface.hpp"

namespace perfbench {

using parabit::BitVector;
using parabit::Rng;
using parabit::core::ExecResult;
using parabit::core::ExecStatus;
using parabit::core::HostInterface;
using parabit::core::Mode;
using parabit::core::ParaBitDevice;
using parabit::core::QueuedCompletion;
using parabit::flash::BitwiseOp;
using parabit::nvme::Formula;
using parabit::nvme::Lpn;
using parabit::nvme::OperandRef;
using parabit::obs::Profiler;
using parabit::ssd::SsdConfig;

Round::Round(PassContext &ctx)
    : ctx_(ctx), span_(ctx.spans, SpanName::kRound),
      prof0_(ctx.profiler ? ctx.profiler->totals() : Profiler::Totals{}),
      t0_(Clock::now())
{
}

Round::~Round()
{
    ctx_.measuredS += secondsSince(t0_);
    if (ctx_.profiler == nullptr)
        return;
    const Profiler::Totals t1 = ctx_.profiler->totals();
    for (std::size_t s = 0; s < parabit::obs::kNumSubsystems; ++s)
        ctx_.profile.seconds[s] += t1.seconds[s] - prof0_.seconds[s];
}

namespace {

/** Closed loop: at most two queue pairs, each deep enough for a
 *  round's whole batch. */
constexpr std::uint16_t kQueues = 2;
constexpr std::uint16_t kDepth = 64;

std::vector<BitVector>
randomPages(std::size_t bits, std::size_t n, Rng &rng)
{
    std::vector<BitVector> out;
    out.reserve(n);
    for (std::size_t p = 0; p < n; ++p) {
        BitVector v(bits);
        for (auto &w : v.words())
            w = rng.next();
        v.maskTail();
        out.push_back(std::move(v));
    }
    return out;
}

/** The reference model of one binary op, computed on the host CPU. */
BitVector
reference(BitwiseOp op, const BitVector &a, const BitVector &b)
{
    switch (op) {
      case BitwiseOp::kAnd: return a & b;
      case BitwiseOp::kOr: return a | b;
      case BitwiseOp::kXor: return a ^ b;
      case BitwiseOp::kXnor: return ~(a ^ b);
      default: break;
    }
    parabit::fatal("perfbench: no reference for this op");
}

std::uint64_t
logicalPagesOf(const SsdConfig &cfg)
{
    return ParaBitDevice(cfg).ssd().ftl().logicalPages();
}

/** A command or formula submitted in the current round. */
struct Submitted
{
    std::uint16_t qid = 0;
    std::optional<std::uint16_t> cid; ///< nullopt: the ring was full
    std::size_t item = 0;             ///< index into the round's script
    bool completed = false;
};

/**
 * One closed-loop host round: @p submit queues the round's batch, then
 * the device pumps and the host reaps every queue.  All three calls are
 * on the clock; matching completions to submissions is not.
 */
template <class SubmitFn>
std::vector<QueuedCompletion>
hostRound(PassContext &ctx, HostInterface &host, PassResult &res,
          SubmitFn &&submit)
{
    std::vector<QueuedCompletion> done;
    Round round(ctx);
    {
        SpanLog::Scope s(ctx.spans, SpanName::kSubmit);
        submit();
    }
    {
        SpanLog::Scope s(ctx.spans, SpanName::kPump);
        res.hostCmds += host.pump();
    }
    {
        SpanLog::Scope s(ctx.spans, SpanName::kReap);
        for (std::uint16_t q = 0; q < kQueues; ++q)
            while (auto c = host.reap(q))
                done.push_back(std::move(*c));
    }
    return done;
}

/** Pair each completion with its submission; @return the submission or
 *  null (a harness error, as is a submission left without one). */
Submitted *
match(std::vector<Submitted> &subs, const QueuedCompletion &c)
{
    for (Submitted &s : subs) {
        if (!s.completed && s.cid && s.qid == c.qid && *s.cid == c.cid) {
            s.completed = true;
            return &s;
        }
    }
    return nullptr;
}

std::uint64_t
unmatched(const std::vector<Submitted> &subs)
{
    return static_cast<std::uint64_t>(std::count_if(
        subs.begin(), subs.end(),
        [](const Submitted &s) { return !s.completed; }));
}

// ---------------------------------------------------------------------
// io_tiny: plain reads and metadata-only writes, uniform over a
// prefilled span of a `tiny` device's logical range, plus a flush every
// few rounds.  FTL GC, the scheduler and the host pump do the work; the
// controller and latch array do none.  The measured span is the share
// of the range a full device can still overwrite; the defects layout
// spans the whole advertised range, where host writes stop landing.

class IoTiny final : public Workload
{
  public:
    IoTiny(std::uint64_t seed, Layout layout)
        : logicalPages_(logicalPagesOf(SsdConfig::tiny())),
          span_(layout == Layout::kDefects
                    ? logicalPages_
                    : logicalPages_ * kMeasuredSpanPercent / 100)
    {
        Rng rng(seed);
        script_.resize(kRounds);
        for (int r = 0; r < kRounds; ++r) {
            for (std::uint16_t q = 0; q < kQueues; ++q) {
                for (int i = 0; i < kCmdsPerQueue; ++i) {
                    const Kind k = i % 2 ? Kind::kWrite : Kind::kRead;
                    script_[r].push_back(Cmd{k, q, rng.below(span_)});
                }
            }
            if (r % kFlushEvery == kFlushEvery - 1)
                script_[r].push_back(Cmd{Kind::kFlush, 1, 0});
        }
    }

    void
    setup() override
    {
        dev_ = std::make_unique<ParaBitDevice>(SsdConfig::tiny());
        dev_->writeMeta(0, static_cast<std::uint32_t>(span_));
        host_ = std::make_unique<HostInterface>(*dev_, kQueues, kDepth);
        acked_.assign(span_, true);
    }

    std::vector<ParaBitDevice *> devices() override { return {dev_.get()}; }

    void
    run(PassContext &ctx, PassResult &res) override
    {
        std::vector<Submitted> subs;
        for (const std::vector<Cmd> &cmds : script_) {
            subs.clear();
            // HostInterface stamps every submission with the device
            // clock, which pumping does not advance.
            const parabit::Tick submitted = dev_->now();
            auto done = hostRound(ctx, *host_, res, [&] {
                for (std::size_t i = 0; i < cmds.size(); ++i) {
                    const Cmd &c = cmds[i];
                    std::optional<std::uint16_t> cid;
                    switch (c.kind) {
                      case Kind::kRead:
                        cid = host_->submitRead(c.qid, c.lpn);
                        break;
                      case Kind::kWrite:
                        cid = host_->submitWrite(c.qid, c.lpn);
                        break;
                      case Kind::kFlush:
                        cid = host_->submitFlush(c.qid);
                        break;
                    }
                    subs.push_back(Submitted{c.qid, cid, i});
                }
            });
            SpanLog::Scope verify(ctx.spans, SpanName::kVerify);
            for (const QueuedCompletion &c : done) {
                const Submitted *s = match(subs, c);
                if (s == nullptr) {
                    ++res.harnessErrors;
                    continue;
                }
                const Cmd &cmd = cmds[s->item];
                ++res.attempted;
                res.latencies.push_back(c.latency);
                res.simEnd = std::max(res.simEnd, submitted + c.latency);
                if (!c.ok()) {
                    ++res.failed;
                    ++res.hostCmdsFailed;
                }
                // A failed write leaves the page undefined: the
                // read-back check skips it until it is written again.
                if (cmd.kind == Kind::kWrite)
                    acked_[cmd.lpn] = c.ok();
            }
            res.harnessErrors += unmatched(subs);
        }
    }

    void
    finish(PassContext &ctx, PassResult &res) override
    {
        {
            // Writes carry no payload, so read-back checks that every
            // acknowledged page is still mapped and readable.
            SpanLog::Scope verify(ctx.spans, SpanName::kVerify);
            auto &ftl = dev_->ssd().ftl();
            for (Lpn l = 0; l < span_; ++l)
                if (acked_[l] && !ftl.pageAccessible(l))
                    ++res.corruptPages;
        }
        host_.reset();
        dev_.reset();
    }

  private:
    enum class Kind : std::uint8_t { kRead, kWrite, kFlush };
    struct Cmd
    {
        Kind kind;
        std::uint16_t qid;
        Lpn lpn;
    };

    static constexpr int kRounds = 1024;
    static constexpr int kCmdsPerQueue = 16;
    static constexpr int kFlushEvery = 4;
    /** Share of the logical range the measured layout prefills and
     *  addresses.  Past about three quarters a full `tiny` device runs
     *  out of blocks GC can free, and host writes start to fail. */
    static constexpr std::uint64_t kMeasuredSpanPercent = 70;

    std::uint64_t logicalPages_;
    std::uint64_t span_; ///< LPNs [0, span_) are prefilled and addressed
    std::vector<std::vector<Cmd>> script_;
    std::unique_ptr<ParaBitDevice> dev_;
    std::unique_ptr<HostInterface> host_;
    /** Reference model: the page holds an acknowledged write. */
    std::vector<bool> acked_;
};

// ---------------------------------------------------------------------
// formula_tiny: 2-4-operand AND/OR/XOR/XNOR formulas over a few pages
// each, plus plain reads, through HostInterface in its default
// kReAllocate mode on `tiny` devices with data on.  Operands are
// written at set-up and never rewritten, so each formula's expected
// result is fixed by the seed.  The measured layout spreads them below
// the LPNs the controller's reallocation copies take; the defects
// layout spreads them over the whole range, its highest LPNs included.
// A pass drives several devices in turn, each with its own script, so a
// pass averages over many operand choices.

class FormulaTiny final : public Workload
{
  public:
    FormulaTiny(std::uint64_t seed, Layout layout)
        : logicalPages_(logicalPagesOf(SsdConfig::tiny())),
          slotSpan_(layout == Layout::kDefects
                        ? logicalPages_
                        : logicalPages_ - kScratchReserve)
    {
        const SsdConfig cfg = SsdConfig::tiny();
        pageBytes_ = cfg.geometry.pageBytes;
        Rng rng(seed);
        for (int s = 0; s < kSlots; ++s)
            slotData_.push_back(
                randomPages(cfg.geometry.pageBits(), kSlotPages, rng));
        scripts_.resize(kDevices);
        for (Script &sc : scripts_)
            makeScript(sc, rng);
    }

    void
    setup() override
    {
        for (int d = 0; d < kDevices; ++d) {
            devs_[d] = std::make_unique<ParaBitDevice>(SsdConfig::tiny());
            for (int s = 0; s < kSlots; ++s)
                devs_[d]->writeData(slotLpn(s), slotData_[s]);
            hosts_[d] =
                std::make_unique<HostInterface>(*devs_[d], kQueues, kDepth);
        }
    }

    std::vector<ParaBitDevice *>
    devices() override
    {
        std::vector<ParaBitDevice *> out;
        for (auto &d : devs_)
            out.push_back(d.get());
        return out;
    }

    void
    run(PassContext &ctx, PassResult &res) override
    {
        for (int d = 0; d < kDevices; ++d)
            runScript(ctx, res, *devs_[d], *hosts_[d], scripts_[d]);
    }

    void
    finish(PassContext &ctx, PassResult &res) override
    {
        {
            SpanLog::Scope verify(ctx.spans, SpanName::kVerify);
            for (auto &dev : devs_) {
                for (int s = 0; s < kSlots; ++s) {
                    for (int p = 0; p < kSlotPages; ++p) {
                        const Lpn l = slotLpn(s) + static_cast<Lpn>(p);
                        if (!dev->ssd().ftl().lookup(l) ||
                            dev->readData(l, 1).front() != slotData_[s][p])
                            ++res.corruptPages;
                    }
                }
            }
        }
        for (int d = 0; d < kDevices; ++d) {
            hosts_[d].reset();
            devs_[d].reset();
        }
    }

  private:
    struct FormulaItem
    {
        Formula formula;
        std::vector<BitVector> expected; ///< reference result pages
    };
    struct Step
    {
        std::uint16_t qid;
        bool formula; ///< else a plain read
        std::size_t index;
    };
    /** One device's rounds. */
    struct Script
    {
        std::vector<std::vector<Step>> rounds;
        std::vector<FormulaItem> formulas;
        std::vector<Lpn> reads;
    };

    static constexpr int kDevices = 64;
    static constexpr int kSlots = 48;
    static constexpr int kSlotPages = 4;
    static constexpr int kFormulasPerQueue = 2;
    /**
     * ReAllocate page ops (one operand-pair copy each) per device.  Each
     * takes two scratch LPNs, and today the scratch cursor walks
     * down from the top of the logical range and is never given back.
     * Near 450 ops the device runs out of space and page ops fail; a
     * chain whose earlier step failed then re-programs the empty
     * intermediate page and the process aborts, which no in-process
     * benchmark can measure.  256 ops stop short of that; the cursor
     * then has walked over the top 512 LPNs.  See README.md, "Known
     * failures".
     */
    static constexpr std::size_t kPageOpBudget = 256;
    /** LPNs at the top of the range left to the controller's copies:
     *  two per page op, plus 64 for its one-off self-test (two per
     *  plane, 16 on `tiny`) with room to spare. */
    static constexpr std::uint64_t kScratchReserve = 2 * kPageOpBudget + 64;

    /** First LPN of operand slot @p s; slots spread evenly over
     *  [0, slotSpan_) and the last one ends at its top. */
    Lpn
    slotLpn(int s) const
    {
        return static_cast<Lpn>(s) * (slotSpan_ - kSlotPages) / (kSlots - 1);
    }

    /** Rounds until the next one would pass the page-op budget.  Shapes
     *  (operand and page counts) cycle in a fixed order, so every seed
     *  does the same amount of work; operands and ops come from @p rng. */
    void
    makeScript(Script &sc, Rng &rng)
    {
        std::size_t page_ops = 0;
        for (;;) {
            std::vector<Step> round;
            std::size_t round_ops = 0;
            for (std::uint16_t q = 0; q < kQueues; ++q) {
                for (int i = 0; i < kFormulasPerQueue; ++i) {
                    const std::size_t n = sc.formulas.size();
                    const int operands = 2 + static_cast<int>(n % 3);
                    const auto pages =
                        static_cast<std::uint32_t>(1 + (n / 3) % kSlotPages);
                    round.push_back(Step{q, true, n});
                    sc.formulas.push_back(makeFormula(rng, operands, pages));
                    round_ops += static_cast<std::size_t>(operands - 1) * pages;
                    round.push_back(Step{q, false, sc.reads.size()});
                    sc.reads.push_back(
                        slotLpn(static_cast<int>(rng.below(kSlots))) +
                        rng.below(kSlotPages));
                }
            }
            if (page_ops + round_ops > kPageOpBudget)
                break;
            page_ops += round_ops;
            sc.rounds.push_back(std::move(round));
        }
    }

    FormulaItem
    makeFormula(Rng &rng, int operands, std::uint32_t pages)
    {
        constexpr std::array<BitwiseOp, 4> kOps = {
            BitwiseOp::kAnd, BitwiseOp::kOr, BitwiseOp::kXor,
            BitwiseOp::kXnor};
        std::vector<int> slots;
        while (static_cast<int>(slots.size()) < operands) {
            const int s = static_cast<int>(rng.below(kSlots));
            if (std::find(slots.begin(), slots.end(), s) == slots.end())
                slots.push_back(s);
        }
        FormulaItem f;
        for (int i = 1; i < operands; ++i) {
            const BitwiseOp op = kOps[rng.below(kOps.size())];
            const OperandRef second =
                OperandRef::logical(slotLpn(slots[i]), pages);
            // Terms after the first fold the running result (batch
            // i - 2 is the previous term) with one more operand.
            const OperandRef first =
                i == 1 ? OperandRef::logical(slotLpn(slots[0]), pages)
                       : OperandRef::resultOf(
                             static_cast<std::uint32_t>(i - 2), pages);
            f.formula.terms.push_back(Formula::Term{first, second, op});
            for (std::uint32_t p = 0; p < pages; ++p) {
                const BitVector &y = slotData_[slots[i]][p];
                if (i == 1)
                    f.expected.push_back(
                        reference(op, slotData_[slots[0]][p], y));
                else
                    f.expected[p] = reference(op, f.expected[p], y);
            }
        }
        return f;
    }

    void
    runScript(PassContext &ctx, PassResult &res, ParaBitDevice &dev,
              HostInterface &host, const Script &sc)
    {
        std::vector<Submitted> subs;
        for (const std::vector<Step> &steps : sc.rounds) {
            subs.clear();
            // HostInterface stamps every submission with the device
            // clock, which pumping does not advance.
            const parabit::Tick submitted = dev.now();
            auto done = hostRound(ctx, host, res, [&] {
                for (std::size_t i = 0; i < steps.size(); ++i) {
                    const Step &st = steps[i];
                    const auto cid =
                        st.formula
                            ? host.submitFormula(st.qid,
                                                 sc.formulas[st.index].formula)
                            : host.submitRead(st.qid, sc.reads[st.index]);
                    subs.push_back(Submitted{st.qid, cid, i});
                }
            });
            SpanLog::Scope verify(ctx.spans, SpanName::kVerify);
            for (const QueuedCompletion &c : done) {
                const Submitted *s = match(subs, c);
                if (s == nullptr) {
                    ++res.harnessErrors;
                    continue;
                }
                const Step &st = steps[s->item];
                ++res.attempted;
                res.latencies.push_back(c.latency);
                res.simEnd = std::max(res.simEnd, submitted + c.latency);
                if (!c.ok())
                    ++res.hostCmdsFailed;
                bool ok = c.ok();
                if (st.formula) {
                    res.resultBytes += c.pages.size() * pageBytes_;
                    ok = ok && c.pages == sc.formulas[st.index].expected;
                }
                if (!ok)
                    ++res.failed;
            }
            res.harnessErrors += unmatched(subs);
        }
    }

    std::uint64_t logicalPages_;
    std::uint64_t slotSpan_; ///< operand slots lie in [0, slotSpan_)
    parabit::Bytes pageBytes_ = 0;
    std::vector<std::vector<BitVector>> slotData_;
    std::vector<Script> scripts_;
    std::array<std::unique_ptr<ParaBitDevice>, kDevices> devs_;
    std::array<std::unique_ptr<HostInterface>, kDevices> hosts_;
};

// ---------------------------------------------------------------------
// bulk_paper: ParaBitDevice called directly at the paper's geometry
// (8ch x 16chip x 2die x 4plane, 8 KB pages) with data on.  Operands
// are 8 MB, one page per plane.  Each round runs a PreAllocated XOR, a
// LocationFree XOR and a 3-operand ReAllocate chain.  The measured
// layout packs all operand sets at the bottom of the logical range; the
// defects layout moves the chain's last operand to its top, where the
// controller's reallocation copies land.  No host interface, no GC.

class BulkPaper final : public Workload
{
  public:
    BulkPaper(std::uint64_t seed, Layout layout)
        : logicalPages_(logicalPagesOf(config())), layout_(layout)
    {
        const SsdConfig cfg = config();
        pageBytes_ = cfg.geometry.pageBytes;
        Rng rng(seed);
        for (auto &set : data_)
            set = randomPages(cfg.geometry.pageBits(), kPages, rng);

        preXor_ = pageWise(BitwiseOp::kXor, data_[kPreX], data_[kPreY]);
        locXor_ = pageWise(BitwiseOp::kXor, data_[kLocX], data_[kLocY]);
        for (std::size_t r = 0; r < kChainOps.size(); ++r) {
            const BitwiseOp op = kChainOps[r];
            chainRef_[r] =
                pageWise(op, pageWise(op, data_[kChainA], data_[kChainB]),
                         data_[kChainC]);
        }
    }

    void
    setup() override
    {
        dev_ = std::make_unique<ParaBitDevice>(config());
        // PreAllocated: page i of X and Y share one wordline.
        dev_->writeOperandPair(lpn(kPreX), lpn(kPreY), data_[kPreX],
                               data_[kPreY]);
        // LocationFree: page i of X and Y share plane i's bitlines.
        for (std::uint32_t i = 0; i < kPages; ++i) {
            dev_->writeDataLsbOnlyInPlane(lpn(kLocX) + i, {data_[kLocX][i]},
                                          i);
            dev_->writeDataLsbOnlyInPlane(lpn(kLocY) + i, {data_[kLocY][i]},
                                          i);
        }
        // ReAllocate: wherever the FTL's striping puts them.
        for (const int s : {kChainA, kChainB, kChainC})
            dev_->writeData(lpn(s), data_[s]);
    }

    std::vector<ParaBitDevice *> devices() override { return {dev_.get()}; }

    void
    run(PassContext &ctx, PassResult &res) override
    {
        for (std::size_t r = 0; r < kChainOps.size(); ++r) {
            std::array<ExecResult, 3> out;
            {
                Round round(ctx);
                {
                    SpanLog::Scope s(ctx.spans, SpanName::kOpPrealloc);
                    out[0] = dev_->bitwise(BitwiseOp::kXor, lpn(kPreX),
                                           lpn(kPreY), kPages,
                                           Mode::kPreAllocated);
                }
                {
                    SpanLog::Scope s(ctx.spans, SpanName::kOpLocfree);
                    out[1] = dev_->bitwise(BitwiseOp::kXor, lpn(kLocX),
                                           lpn(kLocY), kPages,
                                           Mode::kLocationFree);
                }
                {
                    SpanLog::Scope s(ctx.spans, SpanName::kOpRealloc);
                    out[2] = dev_->bitwiseChain(
                        kChainOps[r],
                        {lpn(kChainA), lpn(kChainB), lpn(kChainC)},
                        kPages, Mode::kReAllocate);
                }
            }
            SpanLog::Scope verify(ctx.spans, SpanName::kVerify);
            const std::array<const std::vector<BitVector> *, 3> expected = {
                &preXor_, &locXor_, &chainRef_[r]};
            for (std::size_t i = 0; i < out.size(); ++i) {
                ++res.attempted;
                res.latencies.push_back(out[i].stats.elapsed());
                res.simEnd = std::max(res.simEnd, out[i].stats.end);
                res.resultBytes += out[i].pages.size() * pageBytes_;
                if (out[i].status != ExecStatus::kOk ||
                    out[i].pages != *expected[i])
                    ++res.failed;
            }
        }
    }

    void
    finish(PassContext &ctx, PassResult &res) override
    {
        {
            SpanLog::Scope verify(ctx.spans, SpanName::kVerify);
            for (int s = 0; s < kSets; ++s) {
                for (std::uint32_t i = 0; i < kPages; ++i) {
                    const Lpn l = lpn(s) + i;
                    if (!dev_->ssd().ftl().lookup(l) ||
                        dev_->readData(l, 1).front() != data_[s][i])
                        ++res.corruptPages;
                }
            }
        }
        dev_.reset();
    }

  private:
    /** Operand sets, in LPN order. */
    enum : int
    {
        kPreX = 0,
        kPreY,
        kLocX,
        kLocY,
        kChainA,
        kChainB,
        kChainC,
        kSets,
    };

    static constexpr std::uint32_t kPages = 1024; ///< 8 MB, one per plane
    /** One round per ReAllocate chain op. */
    static constexpr std::array<BitwiseOp, 4> kChainOps = {
        BitwiseOp::kAnd, BitwiseOp::kOr, BitwiseOp::kXor, BitwiseOp::kXnor};

    static SsdConfig
    config()
    {
        SsdConfig c = SsdConfig::paperSsd();
        c.storeData = true;
        return c;
    }

    Lpn
    lpn(int set) const
    {
        return set == kChainC && layout_ == Layout::kDefects
                   ? logicalPages_ - kPages
                   : static_cast<Lpn>(set) * kPages;
    }

    static std::vector<BitVector>
    pageWise(BitwiseOp op, const std::vector<BitVector> &a,
             const std::vector<BitVector> &b)
    {
        std::vector<BitVector> out;
        out.reserve(a.size());
        for (std::size_t i = 0; i < a.size(); ++i)
            out.push_back(reference(op, a[i], b[i]));
        return out;
    }

    std::uint64_t logicalPages_;
    Layout layout_;
    parabit::Bytes pageBytes_ = 0;
    std::array<std::vector<BitVector>, kSets> data_;
    std::vector<BitVector> preXor_;
    std::vector<BitVector> locXor_;
    std::array<std::vector<BitVector>, kChainOps.size()> chainRef_;
    std::unique_ptr<ParaBitDevice> dev_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"io_tiny", "formula_tiny",
                                                   "bulk_paper"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed, Layout layout)
{
    if (name == "io_tiny")
        return std::make_unique<IoTiny>(seed, layout);
    if (name == "formula_tiny")
        return std::make_unique<FormulaTiny>(seed, layout);
    if (name == "bulk_paper")
        return std::make_unique<BulkPaper>(seed, layout);
    return nullptr;
}

} // namespace perfbench
