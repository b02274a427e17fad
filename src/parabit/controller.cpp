#include "parabit/controller.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "flash/latch_array.hpp"
#include "flash/read_retry.hpp"
#include "nvme/parser.hpp"

namespace parabit::core {

const char *
modeName(Mode m)
{
    switch (m) {
      case Mode::kPreAllocated: return "ParaBit";
      case Mode::kReAllocate: return "ParaBit-ReAlloc";
      case Mode::kLocationFree: return "ParaBit-LocFree";
    }
    return "?";
}

const char *
execStatusName(ExecStatus s)
{
    switch (s) {
      case ExecStatus::kOk: return "ok";
      case ExecStatus::kUncorrectable: return "uncorrectable";
      case ExecStatus::kDataLoss: return "data-loss";
      case ExecStatus::kLbaOutOfRange: return "lba-out-of-range";
    }
    return "?";
}

Controller::Controller(ssd::SsdDevice &ssd) : ssd_(&ssd)
{
    resetScratch();
    // One registered counter per (mode, op) pair, e.g.
    // "parabit.ops.ParaBit-ReAlloc.XOR".
    opCounters_.reserve(static_cast<std::size_t>(kNumModes) *
                        flash::kNumBitwiseOps);
    for (int m = 0; m < kNumModes; ++m) {
        for (int o = 0; o < flash::kNumBitwiseOps; ++o) {
            opCounters_.emplace_back(
                std::string("parabit.ops.") +
                modeName(static_cast<Mode>(m)) + "." +
                flash::opName(static_cast<flash::BitwiseOp>(o)));
        }
    }
}

void
Controller::noteOps(Mode mode, flash::BitwiseOp op, std::uint64_t n)
{
    const std::size_t idx =
        static_cast<std::size_t>(mode) * flash::kNumBitwiseOps +
        static_cast<std::size_t>(op);
    opCounters_[idx] += n;
}

void
Controller::noteExec(const ExecStats &stats)
{
    ++formulas_;
    senseOps_ += stats.senseOps;
    reallocPrograms_ += stats.pagePrograms;
    reallocBytes_ += stats.reallocBytes;
    ladderSelfTests_ += stats.selfTests;
    ladderParityChecks_ += stats.parityChecks;
    ladderDetections_ += stats.detections;
    ladderVoteEscalations_ += stats.voteEscalations;
    ladderRetries_ += stats.retries;
    ladderHostFallbacks_ += stats.hostFallbacks;
    ladderRetiredBlocks_ += stats.retiredBlocks;
    if (obs::TraceSink *sink = obs::TraceSink::global()) {
        // Formulas overlap in logical time, so they go out as async
        // spans (matched by id), not complete events.
        const std::uint64_t id = nextFormulaSpanId_++;
        const obs::TrackId t = sink->track("host", "formulas");
        sink->asyncBegin(t, "parabit", "formula", id, stats.start,
                         {{"sense_ops", std::to_string(stats.senseOps),
                           false}});
        sink->asyncEnd(t, "parabit", "formula", id,
                       std::max(stats.end, stats.start));
    }
}

namespace {

flash::ChipPageAddr
chipAddr(const flash::PhysPageAddr &a)
{
    return flash::ChipPageAddr{a.die, a.plane, a.block, a.wordline, a.msb};
}

/** Host-CPU reference computation for the fallback path; NOT inverts
 *  its one operand, @p y. */
BitVector
cpuBitwise(flash::BitwiseOp op, const BitVector &x, const BitVector &y)
{
    switch (op) {
      case flash::BitwiseOp::kAnd: return x & y;
      case flash::BitwiseOp::kOr: return x | y;
      case flash::BitwiseOp::kXor: return x ^ y;
      case flash::BitwiseOp::kXnor: return ~(x ^ y);
      case flash::BitwiseOp::kNand: return ~(x & y);
      case flash::BitwiseOp::kNor: return ~(x | y);
      case flash::BitwiseOp::kNotLsb:
      case flash::BitwiseOp::kNotMsb: return ~y;
    }
    return {};
}

/** Result parity predicted from the operand payloads, for the ops whose
 *  parity follows from theirs (parity(~v) = parity(v) ^ (bits & 1)). */
std::optional<bool>
predictParity(flash::BitwiseOp op, const BitVector &x, const BitVector &y)
{
    const bool odd_width = (y.size() & 1) != 0;
    switch (op) {
      case flash::BitwiseOp::kXor: return x.oddParity() != y.oddParity();
      case flash::BitwiseOp::kXnor:
        return (x.oddParity() != y.oddParity()) != odd_width;
      case flash::BitwiseOp::kNotLsb:
      case flash::BitwiseOp::kNotMsb: return y.oddParity() != odd_width;
      case flash::BitwiseOp::kAnd:
      case flash::BitwiseOp::kOr:
      case flash::BitwiseOp::kNand:
      case flash::BitwiseOp::kNor: return std::nullopt;
    }
    return std::nullopt;
}

} // namespace

void
Controller::releaseScratch()
{
    ssd::Ftl &ftl = ssd_->ftl();
    for (nvme::Lpn l = ftl.logicalPages(); l < scratchNext_; ++l)
        ftl.releaseInternal(l);
    resetScratch();
}

bool
Controller::planeComputeTrusted(const flash::PhysPageAddr &loc, Tick &ready,
                                ExecStats &stats)
{
    const ssd::PlaneIndex p = ssd::planeIndex(
        ssd_->geometry(), {loc.channel, loc.chip, loc.die, loc.plane});
    auto it = planeTrust_.find(p);
    if (it != planeTrust_.end())
        return it->second;

    ++stats.selfTests;
    ssd::Ftl &ftl = ssd_->ftl();
    const std::size_t bits = ssd_->geometry().pageBits();

    // Deterministic known-answer patterns for this plane.
    Rng rng(ssd_->config().seed ^ (0x5E1F7E57ull + p));
    BitVector a(bits), b(bits);
    for (auto &w : a.words())
        w = rng.next();
    for (auto &w : b.words())
        w = rng.next();
    a.maskTail();
    b.maskTail();

    std::vector<ssd::PhysOp> ops;
    const nvme::Lpn sx = takeScratchLpn();
    const nvme::Lpn sy = takeScratchLpn();
    const auto pair = ftl.writePair(sx, sy, &a, &b, ops, p);
    stats.pagePrograms += 2;
    ready = ssd_->scheduleOps(ops, ready);
    if (!pair) {
        // Cannot even place the test pattern there; don't compute there.
        planeTrust_[p] = false;
        return false;
    }

    // XOR and XNOR of the pair check every bitline against both an
    // expected 0 and an expected 1, so a stuck column must show in one
    // of them no matter which value it is pinned to.  Each is 3-vote
    // majority so random sensing errors don't condemn a healthy plane.
    const flash::ChipPageAddr ca = chipAddr(pair->lsb);
    flash::Chip &chip = ssd_->chipAt(pair->lsb.channel, pair->lsb.chip);
    int sense_total = 0;
    auto voted = [&](flash::BitwiseOp op) {
        std::vector<BitVector> runs;
        for (int k = 0; k < 3; ++k) {
            int e = 0;
            runs.push_back(chip.opCoLocated(op, ca, &e));
            stats.bitErrors += static_cast<std::uint64_t>(e);
        }
        sense_total += 3 * flash::coLocatedProgram(op).senseCount();
        return flash::majorityVote(runs);
    };
    const BitVector vx = voted(flash::BitwiseOp::kXor);
    const BitVector vn = voted(flash::BitwiseOp::kXnor);
    stats.senseOps += static_cast<std::uint64_t>(sense_total);
    ready = ssd_->scheduleArrayJobs(
        {ssd::ArrayJob{pair->lsb, sense_total, 0, 0}}, ready);

    const BitVector ex = a ^ b;
    const bool ok = vx == ex && vn == ~ex;
    if (!ok) {
        ++stats.detections;
        logWarn("ParaBit: plane " + std::to_string(p) +
                " failed the compute self-test; using host fallback");
    }
    planeTrust_[p] = ok; // the test pages go when the op retires
    return ok;
}

Controller::SenseOutcome
Controller::runSense(const SenseRequest &req, Tick ready, ExecStats &stats)
{
    SenseOutcome out;
    const bool functional = ssd_->config().storeData;

    auto book = [&](int executions, bool xfer_result) {
        stats.senseOps +=
            static_cast<std::uint64_t>(req.senseCount) * executions;
        const Bytes rx = xfer_result ? req.resultXfer : 0;
        const Tick done = ssd_->scheduleArrayJobs(
            {ssd::ArrayJob{req.loc, req.senseCount * executions,
                           req.xferIn * executions, rx}},
            ready);
        stats.resultBytes += rx;
        return done;
    };

    if (!policy_.enabled || !functional) {
        // Legacy single execution.  Timing-only runs with the policy on
        // still book initialVotes executions, so redundancy ladders can
        // be timed without payloads.
        const int execs =
            policy_.enabled ? std::max(1, policy_.initialVotes) : 1;
        if (functional && req.execute) {
            int errors = 0;
            out.data = req.execute(&errors);
            stats.bitErrors += static_cast<std::uint64_t>(errors);
        }
        out.done = book(execs, true);
        return out;
    }

    if (!req.execute) {
        // Nothing to verify (no payload producer); book and move on.
        out.done = book(std::max(1, policy_.initialVotes), true);
        return out;
    }

    // Consistent faults (stuck bitlines) make every redundant run agree
    // on the same wrong answer; the known-answer self-test screens them
    // out before any voting is trusted.
    if (!planeComputeTrusted(req.loc, ready, stats))
        return hostFallback(req, ready, stats);

    auto run = [&] {
        int errors = 0;
        BitVector r = req.execute(&errors);
        stats.bitErrors += static_cast<std::uint64_t>(errors);
        return r;
    };
    auto parity_ok = [&](const BitVector &v) {
        if (!req.expectedParity)
            return true;
        ++stats.parityChecks;
        return v.oddParity() == *req.expectedParity;
    };

    constexpr int max_votes = ReliabilityPolicy::kMaxVotes;
    int rung = std::clamp(policy_.initialVotes, 1, max_votes);
    if (rung % 2 == 0)
        ++rung;
    std::vector<BitVector> runs;
    int retries = 0;
    int executions = 0;
    std::optional<BitVector> accepted;

    while (true) {
        while (static_cast<int>(runs.size()) < rung) {
            runs.push_back(run());
            ++executions;
        }
        bool pass;
        BitVector candidate;
        if (rung == 1) {
            candidate = runs[0];
            pass = parity_ok(candidate);
            if (pass) {
                // Duplicate-execution compare: one more run must agree
                // bit for bit (catches what parity alone cannot).
                runs.push_back(run());
                ++executions;
                ++stats.parityChecks;
                pass = runs[1] == runs[0];
            }
        } else {
            candidate = flash::majorityVote(runs);
            const std::size_t weak =
                flash::lowMarginCount(runs, ReliabilityPolicy::kMinMargin);
            pass = weak == 0 && parity_ok(candidate);
        }
        if (pass) {
            accepted = std::move(candidate);
            break;
        }
        ++stats.detections;
        if (rung < max_votes) {
            // Escalate; earlier runs stay in the ballot.
            rung = std::min(rung + 2, max_votes);
            ++stats.voteEscalations;
            continue;
        }
        if (retries < ReliabilityPolicy::kMaxRetries) {
            ++retries;
            ++stats.retries;
            runs.clear();
            ready += flash::kRetryBackoff * static_cast<Tick>(retries);
            continue;
        }
        break;
    }

    const Tick sensed = book(executions, accepted.has_value());
    if (!accepted)
        return hostFallback(req, sensed, stats); // ladder exhausted
    out.data = std::move(*accepted);
    out.done = sensed;
    return out;
}

Controller::SenseOutcome
Controller::hostFallback(const SenseRequest &req, Tick ready,
                         ExecStats &stats)
{
    SenseOutcome out;
    out.status = ExecStatus::kUncorrectable;
    if (req.fallback) {
        if (auto fb = req.fallback(ready)) {
            ++stats.hostFallbacks;
            out.data = std::move(*fb);
            out.status = ExecStatus::kOk;
        } else {
            out.status = ExecStatus::kDataLoss;
        }
    }
    out.done = ready;
    return out;
}

std::optional<flash::PhysPageAddr>
Controller::resolveOperand(nvme::Lpn lpn, Tick at)
{
    ssd::Ftl &ftl = ssd_->ftl();
    if (ftl.isInternal(lpn))
        return std::nullopt; // no host data there, only scratch copies
    auto addr = ftl.lookup(lpn);
    if (addr && !ftl.pageAccessible(lpn)) {
        // A dead plane takes its resident operands with it — unless the
        // device carries RAIN parity, which rebuilds the page on a live
        // plane; only when that fails too is the data genuinely gone.
        ssd_->repairPage(lpn, at);
        addr = ftl.pageAccessible(lpn) ? ftl.lookup(lpn) : std::nullopt;
    }
    return addr;
}

BitVector
Controller::loadOperand(std::optional<nvme::Lpn> lpn, const BitVector *buf,
                        std::vector<ssd::PhysOp> &ops, ExecStats &stats)
{
    if (buf)
        return *buf;
    if (!lpn)
        return {};
    ++stats.pageReads;
    return ssd_->ftl().readPage(*lpn, ops);
}

std::optional<flash::PhysPageAddr>
Controller::stageLsbCopy(nvme::Lpn lpn, std::optional<ssd::PlaneIndex> plane,
                         Tick &ready, ExecStats &stats, BitVector *keep)
{
    std::vector<ssd::PhysOp> ops;
    BitVector data = loadOperand(lpn, nullptr, ops, stats);
    const auto copy = ssd_->ftl().writeLsbOnly(
        takeScratchLpn(), ssd_->config().storeData ? &data : nullptr, ops,
        plane);
    ++stats.pagePrograms;
    stats.reallocBytes += ssd_->geometry().pageBytes;
    ready = ssd_->scheduleOps(ops, ready);
    if (keep)
        *keep = std::move(data);
    return copy;
}

std::optional<flash::PhysPageAddr>
Controller::reallocatePair(std::optional<nvme::Lpn> x_lpn,
                           const BitVector *x_buf, nvme::Lpn y_lpn,
                           Tick &ready, ExecStats &stats, BitVector *x_out,
                           BitVector *y_out)
{
    // Phase 1: read the operands that live in flash, as one scheduler
    // batch: co-plane reads arbitrate against each other (and against
    // co-pending traffic) rather than being booked one call at a time.
    std::vector<ssd::PhysOp> read_ops;
    BitVector x_data = loadOperand(x_lpn, x_buf, read_ops, stats);
    BitVector y_data = loadOperand(y_lpn, nullptr, read_ops, stats);
    ready = ssd_->scheduleOps(read_ops, ready);

    // Phase 2: program both pages onto one fresh wordline.  The pair
    // claims two scratch LPNs so the FTL tracks the copies.
    std::vector<ssd::PhysOp> prog_ops;
    const nvme::Lpn sx = takeScratchLpn();
    const nvme::Lpn sy = takeScratchLpn();
    const bool functional = ssd_->config().storeData;
    const auto pair =
        ssd_->ftl().writePair(sx, sy, functional ? &x_data : nullptr,
                              functional ? &y_data : nullptr, prog_ops);
    stats.pagePrograms += 2;
    stats.reallocBytes += 2 * ssd_->geometry().pageBytes;
    // The program copied the payloads into flash; hand them on.
    if (x_out)
        *x_out = std::move(x_data);
    if (y_out)
        *y_out = std::move(y_data);
    ready = ssd_->scheduleOps(prog_ops, ready);
    if (!pair)
        return std::nullopt;
    return pair->lsb;
}

Controller::SenseOutcome
Controller::executePageOp(flash::BitwiseOp op, std::optional<nvme::Lpn> x_lpn,
                          const BitVector *x_buf, nvme::Lpn y_lpn, Mode mode,
                          Tick at, Bytes result_xfer, ExecStats &stats)
{
    ssd::Ftl &ftl = ssd_->ftl();
    const Bytes page = ssd_->geometry().pageBytes;
    const bool functional = ssd_->config().storeData;
    const bool unary = flash::isUnary(op);
    if (unary) {
        x_lpn.reset();
        x_buf = nullptr;
    }

    // ----- Resolve the operands. ---------------------------------------
    const auto y_addr = resolveOperand(y_lpn, at);
    std::optional<flash::PhysPageAddr> x_addr =
        x_lpn ? resolveOperand(*x_lpn, at) : std::nullopt;
    if (!y_addr || (x_lpn && !x_addr)) {
        noteOps(mode, op, 1);
        SenseOutcome lost;
        lost.status = ExecStatus::kDataLoss;
        lost.done = at;
        return lost;
    }

    SenseRequest req;
    req.loc = *y_addr;
    req.resultXfer = result_xfer;
    // runSense reads the parity prediction and the fallback only under
    // the reliability policy, so only then are they built and operand
    // payloads kept.
    const bool verify = policy_.enabled && functional;
    BitVector x_known, y_known; ///< operand payloads read along the way
    BitVector *x_keep = verify ? &x_known : nullptr;
    BitVector *y_keep = verify ? &y_known : nullptr;
    if (verify) {
        // Host-side fallback: conventional ECC-protected reads of the
        // operands plus CPU bitwise compute — bit-exact by construction.
        req.fallback = [this, &ftl, &stats, op, unary, x_lpn, x_buf,
                        y_lpn](Tick &rdy) -> std::optional<BitVector> {
            std::vector<ssd::PhysOp> ops;
            BitVector x;
            if (!unary) {
                if (!x_buf && !(x_lpn && ftl.pageAccessible(*x_lpn)))
                    return std::nullopt;
                x = loadOperand(x_lpn, x_buf, ops, stats);
            }
            if (!ftl.pageAccessible(y_lpn))
                return std::nullopt;
            const BitVector y = loadOperand(y_lpn, nullptr, ops, stats);
            rdy = ssd_->scheduleOps(ops, rdy);
            return cpuBitwise(op, x, y);
        };
    }
    Tick ready = at;
    // Graceful degradation when operands cannot be staged or paired for
    // in-flash execution at all.
    auto degrade = [&] {
        noteOps(mode, op, 1);
        return hostFallback(req, ready, stats);
    };

    // ----- Stage them per mode and pick the program. -------------------
    const flash::MicroProgram *prog = nullptr;
    if (unary) {
        // NOT senses the operand's own wordline; no co-location is ever
        // needed.  ReAlloc still pays the paper's reallocation, moving
        // the page to an LSB-only copy; if the copy cannot be placed the
        // original is sensed in place.
        if (mode == Mode::kReAllocate) {
            if (const auto moved =
                    stageLsbCopy(y_lpn, std::nullopt, ready, stats, y_keep))
                req.loc = *moved;
        }
        op = req.loc.msb ? flash::BitwiseOp::kNotMsb
                         : flash::BitwiseOp::kNotLsb;
    } else if (mode == Mode::kLocationFree && !x_lpn) {
        // Chain continuation: the running result is re-loaded from the
        // controller buffer through the data-load path while Y is
        // sensed from its cells (paper Section 4.2) — no flash program.
        // The buffer plays an LSB page, so an MSB-resident Y is first
        // copied onto an LSB page.
        if (y_addr->msb) {
            const auto copy =
                stageLsbCopy(y_lpn, std::nullopt, ready, stats, nullptr);
            if (!copy)
                return degrade();
            req.loc = *copy;
        }
        prog = &flash::locationFreeProgram(op, flash::LocFreeVariant::kLsbLsb);
        req.xferIn = page;
        if (functional && x_buf != nullptr)
            req.execute = [this, op, x_buf, loc = req.loc](int *e) {
                return ssd_->chipAt(loc.channel, loc.chip)
                    .opBufferedOperand(op, *x_buf, chipAddr(loc), e);
            };
    } else if (mode == Mode::kLocationFree) {
        // Stage a cross-plane operand into the plane of Y first (rare
        // under a sane layout), and likewise when both are MSB pages,
        // for which no variant is defined: the copy is an LSB page.
        if (!x_addr->sameBitlines(*y_addr) || (x_addr->msb && y_addr->msb)) {
            x_addr = stageLsbCopy(
                *x_lpn,
                ssd::planeIndex(ssd_->geometry(),
                                {y_addr->channel, y_addr->chip, y_addr->die,
                                 y_addr->plane}),
                ready, stats, nullptr);
            if (!x_addr)
                return degrade(); // could not stage into Y's plane
        }
        // Pick the program variant from the physical placement; the
        // operations are commutative, so roles can swap.
        flash::PhysPageAddr m = *x_addr, n = *y_addr;
        flash::LocFreeVariant variant = flash::LocFreeVariant::kMsbLsb;
        if (!m.msb && n.msb)
            std::swap(m, n);
        else if (!m.msb && !n.msb)
            variant = flash::LocFreeVariant::kLsbLsb;
        prog = &flash::locationFreeProgram(op, variant);
        req.loc = n;
        if (functional)
            req.execute = [this, op, m, n, variant](int *e) {
                return ssd_->chipAt(m.channel, m.chip)
                    .opLocationFree(op, chipAddr(m), chipAddr(n), e,
                                    variant);
            };
    } else {
        // ----- Co-located modes. ---------------------------------------
        std::optional<flash::PhysPageAddr> wl;
        std::optional<nvme::Lpn> pair_x = x_lpn; ///< X still in flash
        const BitVector *pair_buf = x_buf;
        BitVector x_data;
        if (mode == Mode::kPreAllocated) {
            if (x_addr && x_addr->sameWordline(*y_addr) &&
                x_addr->msb != y_addr->msb) {
                // Ideal pre-allocation: operands already share the MLCs.
                wl = *y_addr;
            } else if (!y_addr->msb) {
                // Chain continuation: drop X (buffer or flash) into the
                // free MSB of Y's wordline — a single program.
                std::vector<ssd::PhysOp> ops;
                x_data = loadOperand(x_lpn, x_buf, ops, stats);
                if (ftl.writeIntoFreeMsb(takeScratchLpn(), *y_addr,
                                         functional ? &x_data : nullptr,
                                         ops)) {
                    ++stats.pagePrograms;
                    stats.reallocBytes += page;
                    wl = *y_addr;
                } else if (!ops.empty()) {
                    // The read happened but the MSB was taken (or its
                    // block just got retired): re-pair below without
                    // re-reading X.
                    pair_x.reset();
                    pair_buf = functional ? &x_data : nullptr;
                }
                if (!ops.empty())
                    ready = ssd_->scheduleOps(ops, ready);
            }
        }
        if (!wl) {
            // ParaBit-ReAlloc (and PreAllocated fallback): read both
            // operands, re-pair them on a fresh wordline.
            wl = reallocatePair(pair_x, pair_buf, y_lpn, ready, stats, x_keep,
                                y_keep);
            if (!wl)
                return degrade();
        }
        req.loc = *wl;
    }

    // ----- Sense once, through the ladder. -----------------------------
    if (!prog) {
        prog = &flash::coLocatedProgram(op);
        if (functional)
            req.execute = [this, op, loc = req.loc](int *e) {
                return ssd_->chipAt(loc.channel, loc.chip)
                    .opCoLocated(op, chipAddr(loc), e);
            };
    }
    req.senseCount = prog->senseCount();
    if (!y_known.empty()) {
        // Operand payloads are in hand: some result parities are
        // predictable, and the fallback is a free exact recompute.
        req.expectedParity = predictParity(op, x_known, y_known);
        req.fallback = [op, x = std::move(x_known), y = std::move(y_known)](
                           Tick &) -> std::optional<BitVector> {
            return cpuBitwise(op, x, y);
        };
    }
    noteOps(mode, op, 1);
    return runSense(req, ready, stats);
}

ExecResult
Controller::executeBatches(const std::vector<nvme::Batch> &batches, Mode mode,
                           Tick at, bool transfer_results,
                           std::optional<nvme::Lpn> result_lpn)
{
    ExecResult res;
    res.stats.start = at;
    res.stats.end = at;
    const nvme::Lpn capacity = ssd_->ftl().logicalPages();
    if (result_lpn && !batches.empty() &&
        (*result_lpn >= capacity ||
         batches.back().subOps.size() > capacity - *result_lpn)) {
        res.status = ExecStatus::kLbaOutOfRange;
        return res;
    }
    const Bytes page = ssd_->geometry().pageBytes;
    const bool functional = ssd_->config().storeData;
    const std::uint64_t retired_before = ssd_->ftl().retiredBlocks();

    // Per-batch results: the data pages (functional mode) and each
    // page's status, which a chain continuation inherits.
    struct BatchOut
    {
        std::vector<BitVector> pages;
        std::vector<ExecStatus> status;
        Tick done = 0;
    };
    std::vector<BatchOut> outs(batches.size());

    for (std::size_t bi = 0; bi < batches.size(); ++bi) {
        const nvme::Batch &b = batches[bi];
        const bool is_final = bi + 1 == batches.size();
        const Bytes xfer = (is_final && transfer_results) ? page : 0;

        // Resolve the first operand: logical pages or an earlier
        // batch's result (kept in the controller buffer, paper Fig 12).
        const bool x_from_result =
            b.firstOperand.kind == nvme::OperandRef::Kind::kBatchResult;
        const BatchOut *prev = nullptr;
        Tick ready = at;
        if (x_from_result) {
            prev = &outs.at(b.firstOperand.batchId);
            ready = std::max(ready, prev->done);
        }
        if (b.secondOperand.kind == nvme::OperandRef::Kind::kBatchResult)
            fatal("ParaBit: second operand must be a logical range");

        BatchOut &bo = outs[bi];
        for (std::size_t p = 0; p < b.subOps.size(); ++p) {
            const nvme::SubOperation &sub = b.subOps[p];
            std::optional<nvme::Lpn> x_lpn;
            const BitVector *x_buf = nullptr;
            if (!x_from_result) {
                x_lpn = sub.first.lpn;
            } else if (prev->status.at(p) != ExecStatus::kOk) {
                // The step's input page failed: there is nothing to
                // compute on, so the page ends with the input's status.
                bo.done = std::max(bo.done, ready);
                bo.status.push_back(prev->status[p]);
                if (functional)
                    bo.pages.emplace_back();
                continue;
            } else if (functional) {
                x_buf = &prev->pages.at(p);
            }
            SenseOutcome o = executePageOp(b.intraOp, x_lpn, x_buf,
                                           sub.second.lpn, mode, ready, xfer,
                                           res.stats);
            bo.done = std::max(bo.done, o.done);
            bo.status.push_back(o.status);
            res.status = std::max(res.status, o.status);
            if (functional)
                bo.pages.push_back(o.data ? std::move(*o.data) : BitVector());
        }
        res.stats.end = std::max(res.stats.end, bo.done);
    }

    if (!batches.empty()) {
        BatchOut &last = outs.back();
        if (result_lpn) {
            std::vector<ssd::PhysOp> ops;
            for (std::size_t p = 0; p < last.status.size(); ++p) {
                if (last.status[p] != ExecStatus::kOk)
                    continue; // a failed page is never written back
                const BitVector *d =
                    functional ? &last.pages.at(p) : nullptr;
                if (!ssd_->ftl().writePage(*result_lpn + p, d, ops)) {
                    logWarn("ParaBit: result write-back failed at LPN " +
                            std::to_string(*result_lpn + p));
                    res.status =
                        std::max(res.status, ExecStatus::kUncorrectable);
                }
            }
            // The whole result write-back is one scheduler batch.
            res.stats.end = std::max(res.stats.end,
                                     ssd_->scheduleOps(ops, res.stats.end));
        }
        res.pages = std::move(last.pages);
    }
    releaseScratch();
    res.stats.retiredBlocks += ssd_->ftl().retiredBlocks() - retired_before;
    noteExec(res.stats);
    return res;
}

ExecResult
Controller::executeOp(flash::BitwiseOp op, nvme::Lpn x, nvme::Lpn y,
                      std::uint32_t pages, Mode mode, Tick at,
                      bool transfer_results)
{
    nvme::Formula f;
    f.terms.push_back(nvme::Formula::Term{
        nvme::OperandRef::logical(x, pages),
        nvme::OperandRef::logical(y, pages), op});
    nvme::CmdParser parser(ssd_->geometry().pageBytes);
    return executeBatches(parser.buildBatches(f), mode, at, transfer_results);
}

ExecResult
Controller::executeNot(nvme::Lpn x, std::uint32_t pages, Mode mode, Tick at,
                       bool transfer_results)
{
    // NOT x runs as the unary term "x NOT x" of the page-op pipeline.
    return executeOp(flash::BitwiseOp::kNotLsb, x, x, pages, mode, at,
                     transfer_results);
}

} // namespace parabit::core
