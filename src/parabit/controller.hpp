/**
 * @file
 * The ParaBit SSD-controller modules (paper Fig 9, Section 4.3):
 * Operands ReAllocation and Parallel Read, operating on the batch lists
 * produced by CMD Parse.
 *
 * Three execution modes mirror the paper's evaluated schemes:
 *
 *  - kPreAllocated ("ParaBit"): operands were placed for computation in
 *    advance (co-located pairs for the first op, LSB-only layout for
 *    chain continuations), so the first operation senses immediately;
 *    chained results are dropped into the free MSB page of the next
 *    operand's wordline when possible (one program), else re-paired.
 *
 *  - kReAllocate ("ParaBit-ReAlloc"): operands start wherever the FTL
 *    put them; every operation first reads both operand pages and
 *    re-programs them as a co-located pair, then senses.
 *
 *  - kLocationFree ("ParaBit-LocFree"): operands only need to share a
 *    plane (bitlines); the extended latch circuit computes across
 *    wordlines with zero reallocation.  Operands in different planes
 *    are first staged into a common plane (counted, rare by layout).
 *
 * Every page of every op runs one pipeline: resolve the operands
 * (an unmapped or unrecoverable one is data loss), stage them per
 * mode, then sense once through the reliability ladder.  NOT is its
 * unary case: it senses the operand's own wordline, and placement picks
 * the page kind — the NOT-LSB program (1 SRO) for an operand on an LSB
 * page, NOT-MSB (2 SROs) for one on an MSB page.  ReAlloc still moves
 * the operand first (onto an LSB-only page), as the paper charges it.
 */

#ifndef PARABIT_PARABIT_CONTROLLER_HPP_
#define PARABIT_PARABIT_CONTROLLER_HPP_

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/bitvector.hpp"
#include "flash/timing.hpp"
#include "nvme/batch.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "ssd/ssd.hpp"

namespace parabit::core {

/** Execution scheme; see file comment. */
enum class Mode : std::uint8_t
{
    kPreAllocated = 0, ///< "ParaBit"
    kReAllocate,       ///< "ParaBit-ReAlloc"
    kLocationFree,     ///< "ParaBit-LocFree"
};

inline constexpr int kNumModes = 3;

const char *modeName(Mode m);

/**
 * Typed outcome of an execution — the reliability contract is that a
 * formula either completes bit-exact or reports one of these; it never
 * silently returns corrupt data.  Ordered by severity so the worst
 * status of a multi-page formula is just std::max.
 */
enum class ExecStatus : std::uint8_t
{
    kOk = 0,
    /** The ladder (votes, retries, fallback) could not produce a result
     *  it can vouch for. */
    kUncorrectable,
    /** An operand page is gone (its plane died); no path to the data. */
    kDataLoss,
    /** The result write-back range reaches past host capacity; nothing
     *  ran.  Decided before execution, so it never meets a page status. */
    kLbaOutOfRange,
};

const char *execStatusName(ExecStatus s);

/**
 * Detect-and-escalate policy for ParaBit executions (paper Section 5.8:
 * results bypass ECC, so sensing errors must be handled by the
 * controller).  The ladder:
 *
 *  1. one execution, checked cheaply — a parity prediction when the
 *     operand payloads are in hand (XOR/XNOR make parities checkable),
 *     plus a duplicate execution compared bit-for-bit;
 *  2. 3-vote majority (flash::majorityVote), accepted only when every
 *     bitline's vote margin reaches kMinMargin;
 *  3. 5-vote majority (kMaxVotes), same acceptance;
 *  4. up to kMaxRetries repeats of the top rung, the k-th delayed by
 *     k * flash::kRetryBackoff;
 *  5. host-side fallback: conventional ECC-protected page reads plus
 *     CPU bitwise compute — always bit-exact, never fast.
 *
 * Consistent faults (stuck bitlines) defeat redundant execution — every
 * run is wrong the same way — so each plane's compute path is first
 * qualified by a known-answer self-test; planes that fail it go
 * straight to the host fallback.
 */
struct ReliabilityPolicy
{
    /** Top rung of the vote ladder. */
    static constexpr int kMaxVotes = 5;
    static_assert(kMaxVotes % 2 == 1, "a majority needs an odd ballot");
    /** Minimum per-bitline vote margin (|ones - zeros|) for a voted
     *  rung to be accepted. */
    static constexpr int kMinMargin = 3;
    /** Repeats of the top rung before the host fallback. */
    static constexpr int kMaxRetries = 2;

    bool enabled = false; ///< off = the legacy single-execution path
    /** Rung the ladder starts at (1, 3 or 5; benches pin 3/5 to
     *  measure a fixed-redundancy configuration). */
    int initialVotes = 1;
};

/** Instrumentation of one executed formula/op. */
struct ExecStats
{
    Tick start = 0;
    Tick end = 0;
    std::uint64_t senseOps = 0;     ///< total SROs issued
    std::uint64_t pageReads = 0;    ///< operand page reads (reallocation)
    std::uint64_t pagePrograms = 0; ///< reallocation / result programs
    Bytes reallocBytes = 0;         ///< bytes re-programmed for alignment
    Bytes resultBytes = 0;          ///< result bytes transferred to host
    std::uint64_t bitErrors = 0;    ///< sensing errors in ParaBit outputs

    /** @name Reliability-ladder counters (ReliabilityPolicy). */
    /// @{
    std::uint64_t selfTests = 0;       ///< plane known-answer self-tests
    std::uint64_t parityChecks = 0;    ///< cheap checks (parity/duplicate)
    std::uint64_t detections = 0;      ///< checks or votes that flagged
    std::uint64_t voteEscalations = 0; ///< rung promotions (1→3, 3→5)
    std::uint64_t retries = 0;         ///< top-rung repeats (with backoff)
    std::uint64_t hostFallbacks = 0;   ///< ops completed host-side
    std::uint64_t retiredBlocks = 0;   ///< blocks retired while executing
    /// @}

    Tick elapsed() const { return end - start; }

    void
    accumulate(const ExecStats &o)
    {
        end = std::max(end, o.end);
        senseOps += o.senseOps;
        pageReads += o.pageReads;
        pagePrograms += o.pagePrograms;
        reallocBytes += o.reallocBytes;
        resultBytes += o.resultBytes;
        bitErrors += o.bitErrors;
        selfTests += o.selfTests;
        parityChecks += o.parityChecks;
        detections += o.detections;
        voteEscalations += o.voteEscalations;
        retries += o.retries;
        hostFallbacks += o.hostFallbacks;
        retiredBlocks += o.retiredBlocks;
    }
};

/** Result of a formula execution. */
struct ExecResult
{
    /** Result pages (empty in timing-only mode).  A page whose status
     *  was not kOk is present but empty — never silently corrupt. */
    std::vector<BitVector> pages;
    ExecStats stats;
    /** Worst per-page status of the execution. */
    ExecStatus status = ExecStatus::kOk;
};

/** The in-SSD ParaBit execution engine; see file comment. */
class Controller
{
  public:
    /**
     * @param ssd the device to operate
     * @param transfer_results whether results stream to the host after
     *        computation (encryption-style workloads keep them in-SSD)
     */
    explicit Controller(ssd::SsdDevice &ssd);

    /**
     * Execute a batch list (from nvme::CmdParser) in @p mode, submitted
     * at @p at.  Batches with kBatchResult operands consume earlier
     * batches' results.  An operand page past host capacity holds no
     * host data (kDataLoss, as an unmapped one); a write-back range
     * reaching past it is refused with kLbaOutOfRange.  Every scratch
     * copy the execution made is released before it returns.
     *
     * @param transfer_results stream final result to the host
     * @param result_lpn if set, the final result is also written back
     *        into flash at this logical page range
     */
    ExecResult executeBatches(const std::vector<nvme::Batch> &batches,
                              Mode mode, Tick at, bool transfer_results = true,
                              std::optional<nvme::Lpn> result_lpn =
                                  std::nullopt);

    /** Single two-operand bulk op over @p pages consecutive pages. */
    ExecResult executeOp(flash::BitwiseOp op, nvme::Lpn x, nvme::Lpn y,
                         std::uint32_t pages, Mode mode, Tick at,
                         bool transfer_results = true);

    /** Unary NOT over one operand range; each page's NOT-LSB/NOT-MSB
     *  variant follows from where it is sensed (see file comment). */
    ExecResult executeNot(nvme::Lpn x, std::uint32_t pages, Mode mode,
                          Tick at, bool transfer_results = true);

    ssd::SsdDevice &ssd() { return *ssd_; }

    const ReliabilityPolicy &reliability() const { return policy_; }
    void
    setReliability(const ReliabilityPolicy &p)
    {
        policy_ = p;
    }

    /** Drop cached plane self-test verdicts (after injecting faults). */
    void invalidatePlaneTrust() { planeTrust_.clear(); }

    /** Reset controller state after a power cycle: self-test verdicts
     *  are volatile, and the scratch-LPN cursor rewinds (SPOR dropped
     *  every internal LPN the cut left mapped). */
    void
    onPowerCycle()
    {
        planeTrust_.clear();
        resetScratch();
    }

  private:
    /** One sensing site, wrapped for the reliability ladder. */
    struct SenseRequest
    {
        flash::PhysPageAddr loc; ///< plane whose latch column runs it
        int senseCount = 0;      ///< SROs per execution
        Bytes xferIn = 0;        ///< buffer reload bytes per execution
        Bytes resultXfer = 0;    ///< result bytes out (once, on success)
        /** One fresh execution; arg receives injected bit errors. */
        std::function<BitVector(int *)> execute;
        /** Host-side recompute; books its own timing; nullopt = the
         *  operands are unreachable.  Like expectedParity, read only
         *  under an enabled ReliabilityPolicy on a functional device,
         *  so it is left unset otherwise. */
        std::function<std::optional<BitVector>(Tick &)> fallback;
        /** Predicted result parity when the operand payloads are known
         *  (XOR/XNOR/NOT). */
        std::optional<bool> expectedParity;
    };

    struct SenseOutcome
    {
        std::optional<BitVector> data;
        Tick done = 0;
        ExecStatus status = ExecStatus::kOk;
    };

    /** Run @p req through the escalation ladder (see ReliabilityPolicy);
     *  the legacy single execution when the policy is disabled. */
    SenseOutcome runSense(const SenseRequest &req, Tick ready,
                          ExecStats &stats);

    /** Finish a page the flash could not vouch for at @p ready: @p req's
     *  host fallback when the policy allows one (kDataLoss if it cannot
     *  reach the operands), else kUncorrectable. */
    SenseOutcome hostFallback(const SenseRequest &req, Tick ready,
                              ExecStats &stats);

    /** Known-answer self-test verdict for @p loc's plane (cached). */
    bool planeComputeTrusted(const flash::PhysPageAddr &loc, Tick &ready,
                             ExecStats &stats);

    /**
     * Execute one page of @p op (the pipeline in the file comment).
     * The first operand is the flash page @p x_lpn or, for a chain
     * continuation, the previous step's in-buffer result @p x_buf (null
     * in timing-only runs); NOT ignores it and inverts @p y_lpn.
     * Counts the op actually run on the per-mode/per-op instruments.
     */
    SenseOutcome executePageOp(flash::BitwiseOp op,
                               std::optional<nvme::Lpn> x_lpn,
                               const BitVector *x_buf, nvme::Lpn y_lpn,
                               Mode mode, Tick at, Bytes result_xfer,
                               ExecStats &stats);

    /** Where @p lpn lives, rebuilding it from RAIN parity if its plane
     *  died; nullopt when it is unmapped or unrecoverable. */
    std::optional<flash::PhysPageAddr> resolveOperand(nvme::Lpn lpn,
                                                      Tick at);

    /** An operand's payload: the buffer @p buf if given, else a read
     *  of @p lpn appended to @p ops, else empty (timing-only chain). */
    BitVector loadOperand(std::optional<nvme::Lpn> lpn, const BitVector *buf,
                          std::vector<ssd::PhysOp> &ops, ExecStats &stats);

    /**
     * Stage a copy of @p lpn onto a fresh LSB-only scratch page of
     * @p plane (any plane if nullopt): one read + program batch booked
     * from @p ready, which advances.  @p keep, when non-null, receives
     * the payload read.  @return the copy, or nullopt if it could not
     * be placed.
     */
    std::optional<flash::PhysPageAddr>
    stageLsbCopy(nvme::Lpn lpn, std::optional<ssd::PlaneIndex> plane,
                 Tick &ready, ExecStats &stats, BitVector *keep);

    /**
     * Operands ReAllocation: pair (x, y) onto one wordline, reading X
     * as loadOperand() does, from @p ready (which advances).  @return
     * nullopt when the pair could not be placed (program retries
     * exhausted).  @p x_out / @p y_out, when non-null, receive the
     * operand payloads read along the way (for parity prediction and a
     * free host fallback).
     */
    std::optional<flash::PhysPageAddr>
    reallocatePair(std::optional<nvme::Lpn> x_lpn, const BitVector *x_buf,
                   nvme::Lpn y_lpn, Tick &ready, ExecStats &stats,
                   BitVector *x_out, BitVector *y_out);

    /** A fresh internal LPN for a reallocated copy.  The cursor counts
     *  up from host capacity, so the live copies are the internal LPNs
     *  [ftl().logicalPages(), scratchNext_); host commands never reach
     *  them. */
    nvme::Lpn takeScratchLpn() { return scratchNext_++; }
    /** Rewind the cursor to host capacity (construction, power cycles). */
    void resetScratch() { scratchNext_ = ssd_->ftl().logicalPages(); }
    /** Release every live copy (the op retired) and rewind. */
    void releaseScratch();

    /** Count @p n executed page ops of (@p mode, @p op) on the
     *  registered per-mode/per-op instruments. */
    void noteOps(Mode mode, flash::BitwiseOp op, std::uint64_t n);

    /** Fold one finished execution into the registered ladder/traffic
     *  counters and emit its formula span on the global TraceSink. */
    void noteExec(const ExecStats &stats);

    ssd::SsdDevice *ssd_;
    nvme::Lpn scratchNext_ = 0; ///< see takeScratchLpn()
    ReliabilityPolicy policy_;
    /** Per-plane self-test verdicts (flat plane index -> trusted). */
    std::unordered_map<ssd::PlaneIndex, bool> planeTrust_;

    /** @name Registered instruments (obs/metrics.hpp). */
    /// @{
    std::vector<obs::Counter> opCounters_; ///< [mode][op], built in ctor
    obs::Counter formulas_{"parabit.formulas"};
    obs::Counter senseOps_{"parabit.sense_ops"};
    obs::Counter reallocPrograms_{"parabit.realloc.programs"};
    obs::Counter reallocBytes_{"parabit.realloc.bytes"};
    obs::Counter ladderSelfTests_{"parabit.ladder.self_tests"};
    obs::Counter ladderParityChecks_{"parabit.ladder.parity_checks"};
    obs::Counter ladderDetections_{"parabit.ladder.detections"};
    obs::Counter ladderVoteEscalations_{"parabit.ladder.vote_escalations"};
    obs::Counter ladderRetries_{"parabit.ladder.retries"};
    obs::Counter ladderHostFallbacks_{"parabit.ladder.host_fallbacks"};
    obs::Counter ladderRetiredBlocks_{"parabit.ladder.retired_blocks"};
    /// @}
    std::uint64_t nextFormulaSpanId_ = 0;
};

} // namespace parabit::core

#endif // PARABIT_PARABIT_CONTROLLER_HPP_
