/**
 * @file
 * CLI wrapper around the parabit-verify model checker.
 *
 *   parabit-verify [--json FILE] [--list] [--quiet] [--sched]
 *
 * Exit status 0 when every registered MicroProgram matches its golden
 * truth table and every structural/cost invariant holds; 1 on any
 * divergence (with the divergences printed); 2 on usage errors.
 * --sched additionally sweeps the transaction-scheduler invariants
 * (phase order, resource mutual exclusion, suspend-resume conservation,
 * FCFS-equals-greedy) across every policy/geometry combination.
 */

#include <iostream>
#include <string>

#include "common/json.hpp"
#include "sched_check.hpp"
#include "verifier.hpp"

namespace {

int
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " [--json FILE] [--list] [--quiet] [--sched]\n"
              << "  --json FILE  also write a machine-readable report\n"
              << "  --list       print every registered program first\n"
              << "  --quiet      suppress the success summary\n"
              << "  --sched      also check transaction-scheduler invariants\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    bool list = false, quiet = false, sched = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--list") {
            list = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--sched") {
            sched = true;
        } else {
            return usage(argv[0]);
        }
    }

    using namespace parabit;

    if (list) {
        for (int o = 0; o < flash::kNumBitwiseOps; ++o) {
            const auto op = static_cast<flash::BitwiseOp>(o);
            std::cout << flash::coLocatedProgram(op).describe()
                      << flash::locationFreeProgram(op).describe()
                      << flash::locationFreeProgram(
                             op, flash::LocFreeVariant::kLsbLsb)
                             .describe();
        }
    }

    verify::Report report = verify::verifyAll();
    if (sched)
        verify::checkScheduler(report);

    if (!json_path.empty() &&
        !parabit::json::writeFile(json_path, verify::toJson(report)))
        return 2;

    for (const auto &f : report.findings) {
        std::cerr << "parabit-verify: [" << f.check << "] " << f.subject
                  << ": " << f.message << "\n  expected: " << f.expected
                  << "\n  actual:   " << f.actual << "\n";
    }

    if (!report.ok()) {
        std::cerr << "parabit-verify: FAILED with "
                  << report.findings.size() << " divergence(s)\n";
        return 1;
    }
    if (!quiet) {
        std::cout << "parabit-verify: OK — " << report.programsChecked
                  << " programs, " << report.combosChecked
                  << " operand combinations, " << report.chainsChecked
                  << " chain links, " << report.costChecksRun
                  << " cost cross-checks, " << report.schedChecksRun
                  << " scheduler checks, 0 divergences\n";
    }
    return 0;
}
