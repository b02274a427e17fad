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
    }
    return "?";
}

Controller::Controller(ssd::SsdDevice &ssd)
    : ssd_(&ssd), scratchLpn_(ssd.ftl().logicalPages() - 1)
{
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

/** Host-CPU reference computation for the fallback path. */
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
      case flash::BitwiseOp::kNotMsb: return ~x;
    }
    return {};
}

} // namespace

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
    const nvme::Lpn sx = scratchLpn_--;
    const nvme::Lpn sy = scratchLpn_--;
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
    planeTrust_[p] = ok;
    ftl.trim(sx); // the test pages are garbage now
    ftl.trim(sy);
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
    if (!planeComputeTrusted(req.loc, ready, stats)) {
        if (policy_.hostFallback && req.fallback) {
            if (auto fb = req.fallback(ready)) {
                ++stats.hostFallbacks;
                out.data = std::move(*fb);
                out.done = ready;
                return out;
            }
            out.status = ExecStatus::kDataLoss;
            out.done = ready;
            return out;
        }
        out.status = ExecStatus::kUncorrectable;
        out.done = ready;
        return out;
    }

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

    const int max_votes =
        policy_.maxVotes % 2 == 0 ? policy_.maxVotes - 1 : policy_.maxVotes;
    int rung = std::clamp(policy_.initialVotes, 1, std::max(1, max_votes));
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
            pass = flash::lowMarginCount(runs, policy_.minMargin) == 0 &&
                   parity_ok(candidate);
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
        if (retries < policy_.maxRetries) {
            ++retries;
            ++stats.retries;
            runs.clear();
            ready += policy_.retryBackoff * static_cast<Tick>(retries);
            continue;
        }
        break;
    }

    const Tick sensed = book(executions, accepted.has_value());
    if (accepted) {
        out.data = std::move(*accepted);
        out.done = sensed;
        return out;
    }

    // Ladder exhausted: degrade to the host path or report.
    ready = sensed;
    if (policy_.hostFallback && req.fallback) {
        if (auto fb = req.fallback(ready)) {
            ++stats.hostFallbacks;
            out.data = std::move(*fb);
            out.done = ready;
            return out;
        }
        out.status = ExecStatus::kDataLoss;
        out.done = ready;
        return out;
    }
    out.status = ExecStatus::kUncorrectable;
    out.done = ready;
    return out;
}

std::optional<flash::PhysPageAddr>
Controller::reallocatePair(std::optional<nvme::Lpn> x_lpn,
                           const BitVector *x_buf, nvme::Lpn y_lpn,
                           bool read_x, Tick at, ExecStats &stats,
                           Tick &ready, BitVector *x_out, BitVector *y_out)
{
    ssd::Ftl &ftl = ssd_->ftl();
    const Bytes page = ssd_->geometry().pageBytes;

    // Phase 1: read the operands that live in flash.
    std::vector<ssd::PhysOp> read_ops;
    BitVector x_data, y_data;
    if (x_lpn && read_x) {
        x_data = ftl.readPage(*x_lpn, read_ops);
        ++stats.pageReads;
    } else if (x_buf) {
        x_data = *x_buf;
    }
    y_data = ftl.readPage(y_lpn, read_ops);
    ++stats.pageReads;
    // Emit the operand reads as one scheduler batch: co-plane reads
    // arbitrate against each other (and against co-pending traffic)
    // rather than being booked one call at a time.
    const ssd::sched::TxGroup read_g = ssd_->submitOps(read_ops, at);
    ssd_->drainTransactions();
    const Tick reads_done = ssd_->groupCompletion(read_g, at);

    // Phase 2: program both pages onto one fresh wordline.  The pair
    // claims two scratch LPNs so the FTL tracks the copies.
    std::vector<ssd::PhysOp> prog_ops;
    const nvme::Lpn sx = scratchLpn_--;
    const nvme::Lpn sy = scratchLpn_--;
    const bool functional = ssd_->config().storeData;
    const auto pair =
        ftl.writePair(sx, sy, functional ? &x_data : nullptr,
                      functional ? &y_data : nullptr, prog_ops);
    stats.pagePrograms += 2;
    stats.reallocBytes += 2 * page;
    // The program copied the payloads into flash; hand them on.
    if (x_out)
        *x_out = std::move(x_data);
    if (y_out)
        *y_out = std::move(y_data);
    const ssd::sched::TxGroup prog_g = ssd_->submitOps(prog_ops, reads_done);
    ssd_->drainTransactions();
    ready = ssd_->groupCompletion(prog_g, reads_done);
    if (!pair)
        return std::nullopt;
    return pair->lsb;
}

Controller::PageOpOutcome
Controller::executePageOp(flash::BitwiseOp op, std::optional<nvme::Lpn> x_lpn,
                          const BitVector *x_buf, nvme::Lpn y_lpn, Mode mode,
                          Tick at, Bytes result_xfer, ExecStats &stats)
{
    ssd::Ftl &ftl = ssd_->ftl();
    const Bytes page = ssd_->geometry().pageBytes;
    const bool functional = ssd_->config().storeData;

    auto y_addr = ftl.lookup(y_lpn);
    if (!y_addr)
        fatal("ParaBit: second operand LPN is unmapped");

    std::optional<flash::PhysPageAddr> x_addr =
        x_lpn ? ftl.lookup(*x_lpn) : std::nullopt;
    if (x_lpn && !x_addr)
        fatal("ParaBit: first operand LPN is unmapped");

    PageOpOutcome out;
    out.senseLoc = *y_addr;
    Tick ready = at;

    // A dead plane takes its resident operands with it — unless the
    // device carries RAIN parity, which rebuilds the page on a live
    // plane; only when that fails too is the data genuinely gone.
    if (!ftl.pageAccessible(y_lpn) && ssd_->repairPage(y_lpn, at)) {
        y_addr = ftl.lookup(y_lpn);
        out.senseLoc = *y_addr;
    }
    if (x_lpn && !ftl.pageAccessible(*x_lpn) && ssd_->repairPage(*x_lpn, at))
        x_addr = ftl.lookup(*x_lpn);
    if (!ftl.pageAccessible(y_lpn) ||
        (x_lpn && !ftl.pageAccessible(*x_lpn))) {
        out.status = ExecStatus::kDataLoss;
        out.done = at;
        return out;
    }

    // Host-side fallback: conventional ECC-protected reads of both
    // operands plus CPU bitwise compute — bit-exact by construction.
    auto host_fallback = [this, &ftl, &stats, x_lpn, x_buf, y_lpn, op,
                          functional](Tick &rdy) -> std::optional<BitVector> {
        if (!functional)
            return std::nullopt;
        std::vector<ssd::PhysOp> ops;
        BitVector x;
        if (x_buf) {
            x = *x_buf;
        } else if (x_lpn && ftl.pageAccessible(*x_lpn)) {
            x = ftl.readPage(*x_lpn, ops);
            ++stats.pageReads;
        } else {
            return std::nullopt;
        }
        if (!ftl.pageAccessible(y_lpn))
            return std::nullopt;
        BitVector y = ftl.readPage(y_lpn, ops);
        ++stats.pageReads;
        rdy = ssd_->scheduleOps(ops, rdy);
        return cpuBitwise(op, x, y);
    };

    // Graceful degradation when operands cannot be staged/paired for
    // in-flash execution at all.
    auto degrade = [&](Tick rdy) {
        PageOpOutcome o;
        o.senseLoc = *y_addr;
        if (policy_.enabled && policy_.hostFallback) {
            if (auto fb = host_fallback(rdy)) {
                ++stats.hostFallbacks;
                o.result = std::move(*fb);
                o.done = rdy;
                return o;
            }
        }
        o.status = ExecStatus::kUncorrectable;
        o.done = rdy;
        return o;
    };

    // ----- Location-free: sense across wordlines, no reallocation. ----
    if (mode == Mode::kLocationFree) {
        if (!x_lpn) {
            // Chain continuation: the running result is re-loaded from
            // the controller buffer through the data-load path while Y
            // is sensed from its cells (paper Section 4.2) — no flash
            // program, no staging.
            const flash::MicroProgram &prog = flash::locationFreeProgram(
                op, flash::LocFreeVariant::kLsbLsb);
            SenseRequest req;
            req.loc = *y_addr;
            req.senseCount = prog.senseCount();
            req.xferIn = page;
            req.resultXfer = result_xfer;
            if (functional && x_buf != nullptr)
                req.execute = [this, op, x_buf, loc = *y_addr](int *e) {
                    return ssd_->chipAt(loc.channel, loc.chip)
                        .opBufferedOperand(op, *x_buf, chipAddr(loc), e);
                };
            if (policy_.enabled)
                req.fallback = host_fallback;
            SenseOutcome so = runSense(req, ready, stats);
            out.result = std::move(so.data);
            out.status = so.status;
            out.done = so.done;
            return out;
        }
        // Stage a timing-only chain result or a cross-plane operand
        // into the plane of Y first; rare under a sane layout.
        if (!x_addr || !x_addr->sameBitlines(*y_addr)) {
            std::vector<ssd::PhysOp> ops;
            const nvme::Lpn sx = scratchLpn_--;
            BitVector staged;
            if (x_addr) {
                staged = ftl.readPage(*x_lpn, ops);
                ++stats.pageReads;
            } else if (x_buf) {
                staged = *x_buf;
            }
            const ssd::PlaneIndex target = ssd::planeIndex(
                ssd_->geometry(), {y_addr->channel, y_addr->chip, y_addr->die,
                                   y_addr->plane});
            x_addr = ftl.writeLsbOnly(sx, functional ? &staged : nullptr,
                                      ops, target);
            ++stats.pagePrograms;
            stats.reallocBytes += page;
            ready = ssd_->scheduleOps(ops, ready);
            if (!x_addr)
                return degrade(ready); // could not stage into Y's plane
        }

        // Pick the program variant from the physical placement; the
        // operations are commutative, so roles can swap.
        flash::PhysPageAddr m = *x_addr, n = *y_addr;
        flash::LocFreeVariant variant = flash::LocFreeVariant::kMsbLsb;
        if (m.msb && !n.msb) {
            // canonical
        } else if (!m.msb && n.msb) {
            std::swap(m, n);
        } else if (!m.msb && !n.msb) {
            variant = flash::LocFreeVariant::kLsbLsb;
        } else {
            // Both MSB: use the LSB-LSB shape with MSB-read semantics is
            // not defined; stage X into an LSB page instead.
            std::vector<ssd::PhysOp> ops;
            const nvme::Lpn sx = scratchLpn_--;
            BitVector staged = functional ? ftl.readPage(*x_lpn, ops)
                                          : BitVector();
            ++stats.pageReads;
            const ssd::PlaneIndex target = ssd::planeIndex(
                ssd_->geometry(), {n.channel, n.chip, n.die, n.plane});
            const auto staged_m =
                ftl.writeLsbOnly(sx, functional ? &staged : nullptr, ops,
                                 target);
            ++stats.pagePrograms;
            stats.reallocBytes += page;
            ready = ssd_->scheduleOps(ops, ready);
            if (!staged_m)
                return degrade(ready);
            m = *staged_m;
            variant = flash::LocFreeVariant::kLsbLsb;
        }

        const flash::MicroProgram &prog = flash::locationFreeProgram(
            op, variant);
        SenseRequest req;
        req.loc = n;
        req.senseCount = prog.senseCount();
        req.resultXfer = result_xfer;
        if (functional)
            req.execute = [this, op, m, n, variant](int *e) {
                return ssd_->chipAt(m.channel, m.chip)
                    .opLocationFree(op, chipAddr(m), chipAddr(n), e,
                                    variant);
            };
        if (policy_.enabled)
            req.fallback = host_fallback;
        SenseOutcome so = runSense(req, ready, stats);
        out.result = std::move(so.data);
        out.status = so.status;
        out.senseLoc = n;
        out.done = so.done;
        return out;
    }

    // ----- Co-located modes. ------------------------------------------
    flash::PhysPageAddr wl_addr{};
    bool need_realloc = true;
    // runSense reads the parity prediction and the fallback only under
    // the reliability policy, so only then are operand payloads kept.
    const bool verify = policy_.enabled && functional;
    BitVector x_known, y_known; ///< operand payloads read along the way
    BitVector *x_keep = verify ? &x_known : nullptr;
    BitVector *y_keep = verify ? &y_known : nullptr;

    if (mode == Mode::kPreAllocated) {
        if (x_addr && x_addr->sameWordline(*y_addr)) {
            // Ideal pre-allocation: operands already share the MLCs.
            wl_addr = *y_addr;
            need_realloc = false;
        } else if (!y_addr->msb) {
            // Chain continuation: drop X (buffer or flash) into the free
            // MSB of Y's wordline — a single program.
            BitVector x_data;
            std::vector<ssd::PhysOp> ops;
            if (x_buf) {
                x_data = *x_buf;
            } else if (x_addr) {
                x_data = ftl.readPage(*x_lpn, ops);
                ++stats.pageReads;
            }
            const nvme::Lpn sx = scratchLpn_--;
            if (ftl.writeIntoFreeMsb(sx, *y_addr,
                                     functional ? &x_data : nullptr, ops)) {
                ++stats.pagePrograms;
                stats.reallocBytes += page;
                ready = ssd_->scheduleOps(ops, ready);
                wl_addr = *y_addr;
                need_realloc = false;
            } else if (!ops.empty()) {
                // The read happened but the MSB was taken (or its block
                // just got retired); fall through to full reallocation
                // without re-reading.
                ready = ssd_->scheduleOps(ops, ready);
                const auto re = reallocatePair(
                    x_lpn, functional ? &x_data : nullptr, y_lpn, false,
                    ready, stats, ready, x_keep, y_keep);
                if (!re)
                    return degrade(ready);
                wl_addr = *re;
                need_realloc = false;
            }
        }
    }

    if (need_realloc) {
        // ParaBit-ReAlloc (and PreAllocated fallback): read both
        // operands, re-pair them on a fresh wordline.
        const auto re =
            reallocatePair(x_lpn, x_buf, y_lpn, x_lpn.has_value(), at, stats,
                           ready, x_keep, y_keep);
        if (!re)
            return degrade(ready);
        wl_addr = *re;
    }

    const flash::MicroProgram &prog = flash::coLocatedProgram(op);
    SenseRequest req;
    req.loc = wl_addr;
    req.senseCount = prog.senseCount();
    req.resultXfer = result_xfer;
    if (functional)
        req.execute = [this, op, wl_addr](int *e) {
            return ssd_->chipAt(wl_addr.channel, wl_addr.chip)
                .opCoLocated(op, chipAddr(wl_addr), e);
        };
    if (verify && !x_known.empty() && !y_known.empty()) {
        // Operand payloads are in hand: the XOR/XNOR parities are
        // predictable, and the fallback is a free exact recompute.
        if (op == flash::BitwiseOp::kXor)
            req.expectedParity = x_known.oddParity() != y_known.oddParity();
        else if (op == flash::BitwiseOp::kXnor)
            req.expectedParity =
                (x_known.oddParity() != y_known.oddParity()) !=
                ((x_known.size() & 1) != 0);
        req.fallback = [op, x = std::move(x_known), y = std::move(y_known)](
                           Tick &) -> std::optional<BitVector> {
            return cpuBitwise(op, x, y);
        };
    } else if (policy_.enabled) {
        req.fallback = host_fallback;
    }
    SenseOutcome so = runSense(req, ready, stats);
    out.result = std::move(so.data);
    out.status = so.status;
    out.senseLoc = wl_addr;
    out.done = so.done;
    return out;
}

ExecResult
Controller::executeBatches(const std::vector<nvme::Batch> &batches, Mode mode,
                           Tick at, bool transfer_results,
                           std::optional<nvme::Lpn> result_lpn)
{
    ExecResult res;
    res.stats.start = at;
    res.stats.end = at;
    const Bytes page = ssd_->geometry().pageBytes;
    const bool functional = ssd_->config().storeData;
    const std::uint64_t retired_before = ssd_->ftl().retiredBlocks();

    // Per-batch results: the data pages (functional mode) and, for
    // chain continuations, the logical scratch homes if programmed.
    struct BatchOut
    {
        std::vector<BitVector> pages;
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
        const std::vector<BitVector> *x_pages = nullptr;
        Tick ready = at;
        if (x_from_result) {
            const BatchOut &prev = outs.at(b.firstOperand.batchId);
            x_pages = &prev.pages;
            ready = std::max(ready, prev.done);
        }
        if (b.secondOperand.kind == nvme::OperandRef::Kind::kBatchResult)
            fatal("ParaBit: second operand must be a logical range");

        BatchOut &bo = outs[bi];
        for (std::size_t p = 0; p < b.subOps.size(); ++p) {
            const nvme::SubOperation &sub = b.subOps[p];
            std::optional<nvme::Lpn> x_lpn;
            const BitVector *x_buf = nullptr;
            if (x_from_result) {
                if (functional)
                    x_buf = &x_pages->at(p);
            } else {
                x_lpn = sub.first.lpn;
            }
            PageOpOutcome o = executePageOp(b.intraOp, x_lpn, x_buf,
                                            sub.second.lpn, mode, ready, xfer,
                                            res.stats);
            bo.done = std::max(bo.done, o.done);
            res.status = std::max(res.status, o.status);
            if (functional)
                bo.pages.push_back(o.result ? std::move(*o.result)
                                            : BitVector());
        }
        res.stats.end = std::max(res.stats.end, bo.done);
        noteOps(mode, b.intraOp, b.subOps.size());
    }

    if (!batches.empty()) {
        BatchOut &last = outs.back();
        if (result_lpn) {
            std::vector<ssd::PhysOp> ops;
            for (std::size_t p = 0; p < last.pages.size() ||
                                    (!functional &&
                                     p < batches.back().subOps.size());
                 ++p) {
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
            const ssd::sched::TxGroup wb =
                ssd_->submitOps(ops, res.stats.end);
            ssd_->drainTransactions();
            res.stats.end = std::max(
                res.stats.end, ssd_->groupCompletion(wb, res.stats.end));
        }
        res.pages = std::move(last.pages);
    }
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
Controller::executeNot(bool msb_page, nvme::Lpn x, std::uint32_t pages,
                       Mode mode, Tick at, bool transfer_results)
{
    // NOT is unary: the operand's own wordline is sensed with the
    // inverted-initialisation sequence; no co-location is ever needed.
    // In ReAlloc mode the paper still charges the reallocation cost, so
    // we move the page to a fresh wordline first.
    ExecResult res;
    res.stats.start = at;
    res.stats.end = at;
    ssd::Ftl &ftl = ssd_->ftl();
    const Bytes page = ssd_->geometry().pageBytes;
    const bool functional = ssd_->config().storeData;
    const flash::BitwiseOp op =
        msb_page ? flash::BitwiseOp::kNotMsb : flash::BitwiseOp::kNotLsb;
    const flash::MicroProgram &prog = flash::coLocatedProgram(op);

    const std::uint64_t retired_before = ftl.retiredBlocks();
    for (std::uint32_t p = 0; p < pages; ++p) {
        auto addr = ftl.lookup(x + p);
        if (!addr)
            fatal("ParaBit NOT: operand LPN unmapped");
        if (!ftl.pageAccessible(x + p) && ssd_->repairPage(x + p, at))
            addr = ftl.lookup(x + p); // repaired copy lives elsewhere
        if (!ftl.pageAccessible(x + p)) {
            // The operand's plane died and parity (if any) could not
            // rebuild it: nothing left to invert.
            res.status = std::max(res.status, ExecStatus::kDataLoss);
            if (functional)
                res.pages.emplace_back();
            continue;
        }
        Tick ready = at;
        BitVector data; ///< payload, when a reallocation read it
        bool have_data = false;
        if (mode == Mode::kReAllocate) {
            std::vector<ssd::PhysOp> ops;
            data = ftl.readPage(x + p, ops);
            have_data = functional;
            ++res.stats.pageReads;
            const nvme::Lpn sx = scratchLpn_--;
            const auto moved =
                ftl.writeLsbOnly(sx, functional ? &data : nullptr, ops);
            ++res.stats.pagePrograms;
            res.stats.reallocBytes += page;
            ready = ssd_->scheduleOps(ops, ready);
            // If the copy could not be placed, sense the original in
            // place — NOT never needed the move for correctness.
            if (moved)
                addr = *moved;
        }
        const Bytes xfer = transfer_results ? page : 0;
        SenseRequest req;
        req.loc = *addr;
        req.senseCount = prog.senseCount();
        req.resultXfer = xfer;
        if (functional)
            req.execute = [this, op, loc = *addr](int *e) {
                return ssd_->chipAt(loc.channel, loc.chip)
                    .opCoLocated(op, chipAddr(loc), e);
            };
        if (policy_.enabled && have_data) {
            // parity(~x) = parity(x) ^ (bits & 1); the payload is in
            // hand, so the fallback is a free exact recompute.
            req.expectedParity =
                data.oddParity() != ((data.size() & 1) != 0);
            req.fallback = [data = std::move(data)](
                               Tick &) -> std::optional<BitVector> {
                return ~data;
            };
        } else if (policy_.enabled) {
            req.fallback = [this, &ftl, &res, lpn = x + p, functional](
                               Tick &rdy) -> std::optional<BitVector> {
                if (!functional || !ftl.pageAccessible(lpn))
                    return std::nullopt;
                std::vector<ssd::PhysOp> ops;
                BitVector v = ftl.readPage(lpn, ops);
                ++res.stats.pageReads;
                rdy = ssd_->scheduleOps(ops, rdy);
                return ~v;
            };
        }
        SenseOutcome so = runSense(req, ready, res.stats);
        res.status = std::max(res.status, so.status);
        if (functional)
            res.pages.push_back(so.data ? std::move(*so.data) : BitVector());
        res.stats.end = std::max(res.stats.end, so.done);
    }
    res.stats.retiredBlocks += ftl.retiredBlocks() - retired_before;
    noteOps(mode, op, pages);
    noteExec(res.stats);
    return res;
}

} // namespace parabit::core
