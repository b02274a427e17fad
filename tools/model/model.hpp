/**
 * @file
 * parabit-model: a bounded state-space checker for the simulated SSD.
 *
 * The checker explores, by depth-bounded DFS, every order in which a
 * small alphabet of host-visible actions — page writes, reads, trims
 * and a seeded power-loss crash point — can hit a tiny device
 * (2 channels x 2 dies, a handful of blocks).  Along every explored
 * path it asserts:
 *
 *  - every invariant suite the device registers (ftl, sched, rain,
 *    media — see ssd/ssd.hpp) after every action;
 *  - linearizability of the host-visible results: each read returns
 *    exactly the value of the last acked write in the applied order
 *    (trim unmaps; an unacked crash-window write may legitimately land
 *    either way, and is tracked as such);
 *  - durability across the crash: after the power cycle every acked
 *    write must still be mapped to its value;
 *  - cross-policy functional equivalence: replaying one decision
 *    sequence under fcfs, ooo_die_first and read_priority must produce
 *    identical host-visible results — arbitration may move ticks, never
 *    data.
 *
 * Exploration uses canonical-order partial-order reduction: two
 * adjacent actions are swapped into index order unless they are
 * dependent (same LPN, both writes — they contend for placement — or
 * either is the crash), so each Mazurkiewicz trace of independent
 * actions is executed once instead of once per interleaving.
 *
 * A violation produces a replayable counterexample: the decision path
 * (indices into the action alphabet) plus the seed and policy, emitted
 * in the JSON report; `parabit-model --replay report.json` re-executes
 * exactly that path.
 */

#ifndef PARABIT_TOOLS_MODEL_MODEL_HPP_
#define PARABIT_TOOLS_MODEL_MODEL_HPP_

#include <cstdint>
#include <string>
#include <vector>

namespace parabit::model {

/** One entry of the action alphabet. */
struct Action
{
    enum class Kind : std::uint8_t { kWrite, kRead, kTrim, kCrash };
    Kind kind = Kind::kWrite;
    std::uint64_t lpn = 0; ///< target (device ops only)
    int index = 0;         ///< position in the alphabet (canonical order)

    std::string describe() const;
};

/** Checker knobs; the defaults match the CI gate. */
struct ModelOptions
{
    /** Decisions per path (DFS depth bound). */
    int depth = 3;
    /** Distinct LPNs in the alphabet (each contributes one write, one
     *  read; LPN 0 also contributes a trim). */
    int lpns = 2;
    /** Crash (power-loss + power-cycle) decision points allowed per
     *  path; 0 removes the crash action from the alphabet. */
    int faultBudget = 1;
    /** Seeds page payloads and the crash onset/cut-mode draw. */
    std::uint64_t seed = 1;
    /** Canonical-order partial-order reduction (off explores every
     *  interleaving — slower, for POR-soundness cross-checks). */
    bool por = true;
    /** Policies to run; the first is the functional baseline the
     *  others are compared against. */
    std::vector<std::string> policies = {"fcfs", "ooo_die_first",
                                         "read_priority"};

    /** Test-only: corrupt the FTL mapping of @p corruptLpn after the
     *  Nth applied action (-1 = never), so the pinned counterexample
     *  replay test has a deterministic violation to find. */
    int corruptAfterStep = -1;
    std::uint64_t corruptLpn = 0;
};

/** One property violation, with everything needed to replay it. */
struct ModelFinding
{
    std::string check;   ///< "invariant" | "linearizability" | ...
    std::string subject; ///< violation id, LPN, policy pair...
    std::string message;
    std::string policy;    ///< policy the path ran under
    std::vector<int> path; ///< decision trace: alphabet indices
};

/** Outcome of a model run. */
struct ModelReport
{
    std::uint64_t pathsExplored = 0;
    std::uint64_t pathsPruned = 0; ///< POR-cut prefixes
    std::uint64_t actionsApplied = 0;
    std::uint64_t auditsRun = 0;
    std::uint64_t checksRun = 0; ///< invariant predicates evaluated
    std::uint64_t crashesInjected = 0;
    std::uint64_t maxDepth = 0;
    std::vector<ModelFinding> findings;

    bool ok() const { return findings.empty(); }
};

/** The alphabet @p opts induces (writes, reads, trim, crash). */
std::vector<Action> actionAlphabet(const ModelOptions &opts);

/** Explore every (POR-canonical) path up to opts.depth under every
 *  configured policy; findings carry replayable decision traces. */
ModelReport runModel(const ModelOptions &opts);

/** Re-execute exactly @p path (alphabet indices) under every
 *  configured policy — the counterexample replay entry point. */
ModelReport replayPath(const ModelOptions &opts,
                       const std::vector<int> &path);

/** JSON report: schema version, tool/config provenance, stats and a
 *  replayable decision trace per finding. */
std::string toJson(const ModelReport &r, const ModelOptions &opts);

/**
 * Extract the first finding's decision trace (findings[0].path) plus
 * the seed it ran with (config.seed) from a parabit-model JSON report.
 * @return false (with @p err set) when @p text is not JSON or holds no
 * replayable trace.
 */
bool parseTrace(const std::string &text, std::vector<int> &path,
                std::uint64_t &seed, std::string &err);

} // namespace parabit::model

#endif // PARABIT_TOOLS_MODEL_MODEL_HPP_
