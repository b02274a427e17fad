#include "verifier.hpp"

#include <cmath>

#include "common/json.hpp"
#include "flash/energy_model.hpp"
#include "flash/sequence_executor.hpp"
#include "flash/timing.hpp"
#include "parabit/cost_model.hpp"
#include "ssd/config.hpp"

namespace parabit::verify {

using flash::BitwiseOp;
using flash::LocFreeVariant;
using flash::MicroProgram;
using flash::MicroStep;
using flash::MlcState;
using flash::VRead;
using flash::WordlineSel;

const char *
flavorName(Flavor f)
{
    switch (f) {
      case Flavor::kCoLocated: return "co-located";
      case Flavor::kLocFreeMsbLsb: return "location-free msb/lsb";
      case Flavor::kLocFreeLsbLsb: return "location-free lsb/lsb";
    }
    return "?";
}

namespace {

std::string
subjectName(BitwiseOp op, Flavor flavor)
{
    return std::string(flash::opName(op)) + " (" + flavorName(flavor) + ")";
}

void
addFinding(Report &r, const std::string &check, const std::string &subject,
           const std::string &message, const std::string &expected,
           const std::string &actual)
{
    r.findings.push_back({check, subject, message, expected, actual});
}

std::string
bitStr(bool b)
{
    return b ? "1" : "0";
}

/** The program registered for (op, flavor). */
const MicroProgram &
registeredProgram(BitwiseOp op, Flavor flavor)
{
    switch (flavor) {
      case Flavor::kCoLocated:
        return flash::coLocatedProgram(op);
      case Flavor::kLocFreeMsbLsb:
        return flash::locationFreeProgram(op, LocFreeVariant::kMsbLsb);
      case Flavor::kLocFreeLsbLsb:
        return flash::locationFreeProgram(op, LocFreeVariant::kLsbLsb);
    }
    return flash::coLocatedProgram(op);
}

/**
 * Golden SRO counts (paper Sections 5.2/5.8 anchors plus the Tables 2-7
 * step listings).  Indexed [flavor][op]; a program whose sense count
 * drifts from this table silently changes every latency/energy figure,
 * so the drift is a build error until the table is updated consciously.
 */
constexpr int kGoldenSroCount[kNumFlavors][flash::kNumBitwiseOps] = {
    // AND OR XNOR NAND NOR XOR NOT-LSB NOT-MSB
    {1, 2, 4, 1, 2, 4, 1, 2},  // co-located
    {3, 4, 7, 4, 3, 7, 1, 2},  // location-free msb/lsb
    {2, 3, 5, 3, 2, 5, 1, 1},  // location-free lsb/lsb
};

/** True when the program can legally run on the symbolic single-wordline
 *  circuit (runSymbolic panics on operand-M/N senses). */
bool
symbolicallyExecutable(const MicroProgram &prog)
{
    for (const auto &st : prog.steps)
        if (st.kind == MicroStep::Kind::kSense &&
            st.wl != WordlineSel::kSelf && st.wl != WordlineSel::kNone)
            return false;
    return true;
}

} // namespace

void
checkTruthTable(const MicroProgram &prog, BitwiseOp op, Flavor flavor,
                Report &r)
{
    const std::string subject = subjectName(op, flavor);

    if (flavor == Flavor::kCoLocated) {
        // Symbolic leg: the final L(OUT) vector must be the Table 1
        // truth column, all four MLC states at once.
        if (symbolicallyExecutable(prog)) {
            const StateVec got = flash::runSymbolic(prog);
            const StateVec want = flash::opTruth(op);
            ++r.combosChecked;
            if (got != want) {
                addFinding(r, "truth-table", subject,
                           "symbolic L(OUT) diverges from Table 1 column",
                           want.toString(), got.toString());
            }
        } else {
            addFinding(r, "truth-table", subject,
                       "co-located program senses a foreign wordline; "
                       "symbolic check impossible",
                       "self/none wordline selectors only",
                       "operand-M/N sense present");
        }

        // Scalar leg: every concrete cell state.
        for (int s = 0; s < flash::kNumMlcStates; ++s) {
            const auto cell = static_cast<MlcState>(s);
            const bool want =
                flash::opGolden(op, flash::mlcLsb(cell), flash::mlcMsb(cell));
            const bool got = flash::runScalar(prog, cell);
            ++r.combosChecked;
            if (got != want) {
                addFinding(r, "truth-table", subject,
                           "scalar OUT wrong for cell state " +
                               std::to_string(s),
                           bitStr(want), bitStr(got));
            }
        }
        return;
    }

    // Location-free: enumerate both operand cells over all 4x4 MLC
    // states.  This covers every operand combination *and* every
    // companion (don't-care) bit sharing the operand wordlines.
    const bool m_in_msb = flavor == Flavor::kLocFreeMsbLsb;
    for (int sm = 0; sm < flash::kNumMlcStates; ++sm) {
        for (int sn = 0; sn < flash::kNumMlcStates; ++sn) {
            const auto cell_m = static_cast<MlcState>(sm);
            const auto cell_n = static_cast<MlcState>(sn);
            const bool m = m_in_msb ? flash::mlcMsb(cell_m)
                                    : flash::mlcLsb(cell_m);
            const bool n = flash::mlcLsb(cell_n);
            const bool want = flash::opGolden(op, n, m);
            const bool got =
                flash::runScalar(prog, MlcState::kE, cell_m, cell_n);
            ++r.combosChecked;
            if (got != want) {
                addFinding(r, "truth-table", subject,
                           "scalar OUT wrong for m=" + bitStr(m) +
                               " n=" + bitStr(n) + " (cells S" +
                               std::to_string(sm) + "/S" +
                               std::to_string(sn) + ")",
                           bitStr(want), bitStr(got));
            }
        }
    }
}

void
checkStructure(const MicroProgram &prog, BitwiseOp op, Flavor flavor,
               Report &r)
{
    const std::string subject = subjectName(op, flavor);
    auto bad = [&](const std::string &msg, const std::string &expected,
                   const std::string &actual) {
        addFinding(r, "structural", subject, msg, expected, actual);
    };

    if (prog.steps.empty()) {
        bad("program is empty", ">= 3 steps", "0 steps");
        return;
    }

    // Full initialisation first, exactly once, before any sense: a sense
    // into uninitialised latches computes garbage deterministically.
    const MicroStep::Kind first = prog.steps.front().kind;
    if (first != MicroStep::Kind::kInitNormal &&
        first != MicroStep::Kind::kInitInverted)
        bad("first step is not a full initialisation", "init step",
            "step kind " + std::to_string(static_cast<int>(first)));
    int inits = 0;
    for (const auto &st : prog.steps)
        if (st.kind == MicroStep::Kind::kInitNormal ||
            st.kind == MicroStep::Kind::kInitInverted)
            ++inits;
    if (inits != 1)
        bad("exactly one full init allowed (L1 re-inits use VREAD0 "
            "senses)", "1 init step", std::to_string(inits) + " init steps");

    // Result terminates in L2.
    if (prog.steps.back().kind != MicroStep::Kind::kTransfer)
        bad("final step is not an L1->L2 transfer; result would be "
            "left in L1", "M3 transfer", "other step kind");
    if (prog.transferCount() < 1)
        bad("program never transfers to L2", ">= 1 transfer", "0");

    for (std::size_t i = 0; i < prog.steps.size(); ++i) {
        const MicroStep &st = prog.steps[i];
        const std::string at = " (step " + std::to_string(i + 1) + ")";
        switch (st.kind) {
          case MicroStep::Kind::kInitNormal:
          case MicroStep::Kind::kInitInverted:
            break;
          case MicroStep::Kind::kSense:
            // MSO is open during a sense: firing M3 here would transfer
            // a half-settled L1 into L2.
            if (st.pulse == flash::LatchPulse::kM3)
                bad("M3 pulse attached to a sense step; L1->L2 transfer "
                    "while MSO is open" + at,
                    "M1 or M2 pulse", "M3");
            // VREAD0 senses are L1 re-inits: no specific wordline.
            if (st.wl == WordlineSel::kNone && st.vread != VRead::kVRead0)
                bad("wordline-less sense at a discriminating vread" + at,
                    "VREAD0", "VREAD" +
                        std::to_string(static_cast<int>(st.vread)));
            // Flavour/wordline consistency.
            if (flavor == Flavor::kCoLocated) {
                if (st.wl == WordlineSel::kOperandM ||
                    st.wl == WordlineSel::kOperandN)
                    bad("co-located program senses a foreign wordline" + at,
                        "self/none", "operand-M/N");
            } else if (st.wl == WordlineSel::kSelf) {
                bad("location-free program senses the 'self' wordline; "
                    "there is no single self" + at,
                    "operand-M/N or none", "self");
            }
            // The M7 inverted-SO path exists only in the Fig 8 extended
            // circuit, i.e. for location-free programs.
            if (st.soInverted && flavor == Flavor::kCoLocated)
                bad("co-located program uses the M7 inverter" + at,
                    "soInverted = false", "soInverted = true");
            break;
          case MicroStep::Kind::kTransfer:
            if (st.pulse != flash::LatchPulse::kM3)
                bad("transfer step without an M3 pulse" + at, "M3",
                    "M1/M2");
            break;
        }
    }

    // Unary programs touch exactly one operand wordline.
    if (flash::isUnary(op) && flavor != Flavor::kCoLocated) {
        bool touches_m = false, touches_n = false;
        for (const auto &st : prog.steps) {
            touches_m |= st.wl == WordlineSel::kOperandM;
            touches_n |= st.wl == WordlineSel::kOperandN;
        }
        if (touches_m && touches_n)
            bad("unary program senses both operand wordlines",
                "one operand wordline", "both");
    }
}

void
checkCostTables(Report &r)
{
    // Leg 1: golden SRO/step table per program.
    for (int f = 0; f < kNumFlavors; ++f) {
        for (int o = 0; o < flash::kNumBitwiseOps; ++o) {
            const auto flavor = static_cast<Flavor>(f);
            const auto op = static_cast<BitwiseOp>(o);
            const MicroProgram &prog = registeredProgram(op, flavor);
            const int want = kGoldenSroCount[f][o];
            ++r.costChecksRun;
            if (prog.senseCount() != want) {
                addFinding(r, "cost-table", subjectName(op, flavor),
                           "sense count diverges from the golden SRO "
                           "table; every latency/energy figure shifts",
                           std::to_string(want) + " SROs",
                           std::to_string(prog.senseCount()) + " SROs");
            }
        }
    }

    // Leg 2: FlashTiming linearity — the models charge a program
    // senseCount() * tSense, so senseTime must be exactly linear and the
    // baseline reads must be its 1- and 2-SRO points.
    const flash::FlashTiming t;
    for (int k = 0; k <= 8; ++k) {
        ++r.costChecksRun;
        if (t.senseTime(k) != static_cast<Tick>(k) * t.tSense)
            addFinding(r, "cost-table", "FlashTiming",
                       "senseTime(" + std::to_string(k) +
                           ") is not k * tSense",
                       std::to_string(static_cast<Tick>(k) * t.tSense),
                       std::to_string(t.senseTime(k)));
    }
    ++r.costChecksRun;
    if (t.lsbReadTime() != t.senseTime(1))
        addFinding(r, "cost-table", "FlashTiming",
                   "LSB read is not one SRO",
                   std::to_string(t.senseTime(1)),
                   std::to_string(t.lsbReadTime()));
    ++r.costChecksRun;
    if (t.msbReadTime() != t.senseTime(2))
        addFinding(r, "cost-table", "FlashTiming",
                   "MSB read is not two SROs",
                   std::to_string(t.senseTime(2)),
                   std::to_string(t.msbReadTime()));

    // Leg 3: EnergyModel proportionality and the Fig 16 anchor (a 4-SRO
    // XOR/XNOR costs 2x the 2-SRO baseline MSB read in array energy).
    const flash::EnergyModel em(flash::EnergyConfig{}, t);
    const double e1 = em.senseEnergyJ(1);
    for (int k = 2; k <= 8; ++k) {
        ++r.costChecksRun;
        const double ek = em.senseEnergyJ(k);
        if (std::abs(ek - k * e1) > 1e-12 * std::abs(ek))
            addFinding(r, "cost-table", "EnergyModel",
                       "senseEnergyJ(" + std::to_string(k) +
                           ") is not k * senseEnergyJ(1)",
                       std::to_string(k * e1), std::to_string(ek));
    }
    ++r.costChecksRun;
    if (std::abs(em.senseEnergyJ(4) / em.senseEnergyJ(2) - 2.0) > 1e-9)
        addFinding(r, "cost-table", "EnergyModel",
                   "4-SRO op is not 2x the baseline MSB-read array energy",
                   "2.0",
                   std::to_string(em.senseEnergyJ(4) / em.senseEnergyJ(2)));

    // Leg 4: CostModel agreement — for a one-stripe operand the bulk
    // model must charge exactly senseCount() SROs per plane.
    const ssd::SsdConfig cfg = ssd::SsdConfig::paperSsd();
    const core::CostModel cm(cfg);
    const Bytes stripe = cm.stripeBytes();
    const std::uint64_t planes = cfg.geometry.planesTotal();
    for (int o = 0; o < flash::kNumBitwiseOps; ++o) {
        const auto op = static_cast<BitwiseOp>(o);
        if (flash::isUnary(op)) {
            const bool msb_page = op == BitwiseOp::kNotMsb;
            const auto c = cm.notOp(msb_page, stripe, core::Mode::kPreAllocated);
            const std::uint64_t want =
                static_cast<std::uint64_t>(
                    flash::coLocatedProgram(op).senseCount()) * planes;
            ++r.costChecksRun;
            if (c.senseOps != want)
                addFinding(r, "cost-table", subjectName(op, Flavor::kCoLocated),
                           "CostModel::notOp sense total diverges from the "
                           "program's step count",
                           std::to_string(want), std::to_string(c.senseOps));
            continue;
        }
        struct ModeCase
        {
            core::Mode mode;
            LocFreeVariant variant;
            Flavor flavor;
        };
        const ModeCase cases[] = {
            {core::Mode::kPreAllocated, LocFreeVariant::kMsbLsb,
             Flavor::kCoLocated},
            {core::Mode::kReAllocate, LocFreeVariant::kMsbLsb,
             Flavor::kCoLocated},
            {core::Mode::kLocationFree, LocFreeVariant::kMsbLsb,
             Flavor::kLocFreeMsbLsb},
            {core::Mode::kLocationFree, LocFreeVariant::kLsbLsb,
             Flavor::kLocFreeLsbLsb},
        };
        for (const auto &mc : cases) {
            const auto c = cm.binaryOp(op, stripe, mc.mode,
                                       core::ChainStep::kNone, false,
                                       mc.variant);
            const std::uint64_t want =
                static_cast<std::uint64_t>(
                    registeredProgram(op, mc.flavor).senseCount()) * planes;
            ++r.costChecksRun;
            if (c.senseOps != want)
                addFinding(r, "cost-table", subjectName(op, mc.flavor),
                           "CostModel::binaryOp sense total diverges from "
                           "the program's step count (mode " +
                               std::string(core::modeName(mc.mode)) + ")",
                           std::to_string(want), std::to_string(c.senseOps));
        }
    }
}

void
checkChains(Report &r)
{
    // Chained operations re-place the running result for the next step
    // (ChainStep in parabit/cost_model.hpp).  The placement conventions
    // are: result into the *MSB* page next to an operand LSB page
    // (drop-into-free-MSB and repack both yield this co-located pair),
    // or result as operand M of a location-free step.  Verify that for
    // every ordered op pair and every input combination, executing op2's
    // program on the re-placed result computes the composite golden bit.
    const BitwiseOp binary_ops[] = {BitwiseOp::kAnd,  BitwiseOp::kOr,
                                    BitwiseOp::kXnor, BitwiseOp::kNand,
                                    BitwiseOp::kNor,  BitwiseOp::kXor};
    for (BitwiseOp op1 : binary_ops) {
        for (BitwiseOp op2 : binary_ops) {
            for (int a = 0; a <= 1; ++a) {
                for (int b = 0; b <= 1; ++b) {
                    // First link: co-located op1 over (lsb=a, msb=b).
                    const MlcState cell1 = flash::mlcEncode(a != 0, b != 0);
                    const bool res =
                        flash::runScalar(flash::coLocatedProgram(op1), cell1);
                    const bool golden1 = flash::opGolden(op1, a != 0, b != 0);
                    for (int x = 0; x <= 1; ++x) {
                        const bool want =
                            flash::opGolden(op2, x != 0, golden1);
                        const std::string chain_name =
                            std::string(flash::opName(op2)) + " after " +
                            flash::opName(op1) + " [a=" + bitStr(a != 0) +
                            " b=" + bitStr(b != 0) + " x=" + bitStr(x != 0) +
                            "]";

                        // Drop-into-free-MSB / repack: result programs
                        // into the MSB page over operand x's LSB page.
                        const MlcState cell2 =
                            flash::mlcEncode(x != 0, res);
                        const bool got_co = flash::runScalar(
                            flash::coLocatedProgram(op2), cell2);
                        ++r.chainsChecked;
                        if (got_co != want)
                            addFinding(r, "chain", chain_name,
                                       "co-located continuation (result in "
                                       "MSB page) computes the wrong bit",
                                       bitStr(want), bitStr(got_co));

                        // Location-free continuation: result as operand M
                        // (MSB page), next operand as N (LSB page); the
                        // companion bits must not matter.
                        for (int cm_bit = 0; cm_bit <= 1; ++cm_bit) {
                            for (int cn_bit = 0; cn_bit <= 1; ++cn_bit) {
                                const MlcState cell_m =
                                    flash::mlcEncode(cm_bit != 0, res);
                                const MlcState cell_n =
                                    flash::mlcEncode(x != 0, cn_bit != 0);
                                const bool got_lf = flash::runScalar(
                                    flash::locationFreeProgram(op2),
                                    MlcState::kE, cell_m, cell_n);
                                ++r.chainsChecked;
                                if (got_lf != want)
                                    addFinding(
                                        r, "chain", chain_name,
                                        "location-free continuation "
                                        "(result as operand M) computes "
                                        "the wrong bit",
                                        bitStr(want), bitStr(got_lf));
                            }
                        }
                    }
                }
            }
        }
    }
}

Report
verifyAll()
{
    Report r;
    for (int f = 0; f < kNumFlavors; ++f) {
        for (int o = 0; o < flash::kNumBitwiseOps; ++o) {
            const auto flavor = static_cast<Flavor>(f);
            const auto op = static_cast<BitwiseOp>(o);
            const MicroProgram &prog = registeredProgram(op, flavor);
            checkStructure(prog, op, flavor, r);
            checkTruthTable(prog, op, flavor, r);
            ++r.programsChecked;
        }
    }
    checkCostTables(r);
    checkChains(r);
    return r;
}

std::string
toJson(const Report &r)
{
    json::Writer w;
    w.beginObject();
    w.field("schema_version", 1);
    w.field("tool", "parabit-verify");
    w.field("ok", r.ok());
    w.key("config").beginObject();
    w.field("flavors", kNumFlavors);
    w.field("bitwise_ops", flash::kNumBitwiseOps);
    w.field("sched_sweep", r.schedChecksRun > 0);
    w.endObject();
    w.field("programs_checked", r.programsChecked);
    w.field("combos_checked", r.combosChecked);
    w.field("chains_checked", r.chainsChecked);
    w.field("cost_checks_run", r.costChecksRun);
    w.field("sched_checks_run", r.schedChecksRun);
    w.key("findings").beginArray();
    for (const Finding &f : r.findings) {
        w.beginObject();
        w.field("check", f.check);
        w.field("subject", f.subject);
        w.field("message", f.message);
        w.field("expected", f.expected);
        w.field("actual", f.actual);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

} // namespace parabit::verify
