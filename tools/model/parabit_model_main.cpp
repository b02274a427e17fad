/**
 * @file
 * CLI wrapper around the parabit-model bounded state-space checker.
 *
 *   parabit-model [--depth N] [--lpns N] [--faults N] [--seed S]
 *                 [--policy NAME]... [--no-por] [--json FILE]
 *                 [--replay FILE] [--quiet]
 *
 * Exit status 0 when every explored path satisfies every property
 * (registered invariant suites, linearizability, durability across the
 * crash, cross-policy equivalence); 1 on any finding (each printed with
 * its replayable decision trace); 2 on usage errors.  --replay FILE
 * re-executes the first finding's decision trace from a previously
 * written JSON report instead of exploring.
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "model.hpp"

namespace {

int
usage(const char *argv0)
{
    std::cerr
        << "usage: " << argv0
        << " [--depth N] [--lpns N] [--faults N] [--seed S]\n"
           "       [--policy NAME]... [--no-por] [--json FILE]\n"
           "       [--replay FILE] [--quiet]\n"
           "  --depth N     decisions per explored path (default 3)\n"
           "  --lpns N      distinct LPNs in the action alphabet (default 2)\n"
           "  --faults N    crash decision points per path (default 1)\n"
           "  --seed S      payload / crash-draw seed (default 1)\n"
           "  --policy P    restrict to one policy (repeatable; default\n"
           "                fcfs, ooo_die_first and read_priority)\n"
           "  --no-por      disable partial-order reduction\n"
           "  --json FILE   write the machine-readable report\n"
           "  --replay FILE re-run the counterexample trace in FILE\n"
           "  --quiet       suppress the success summary\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace parabit::model;

    ModelOptions opts;
    std::vector<std::string> policies;
    std::string json_path, replay_path;
    bool quiet = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--depth" && i + 1 < argc) {
            opts.depth = std::atoi(argv[++i]);
        } else if (arg == "--lpns" && i + 1 < argc) {
            opts.lpns = std::atoi(argv[++i]);
        } else if (arg == "--faults" && i + 1 < argc) {
            opts.faultBudget = std::atoi(argv[++i]);
        } else if (arg == "--seed" && i + 1 < argc) {
            opts.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--policy" && i + 1 < argc) {
            policies.push_back(argv[++i]);
        } else if (arg == "--no-por") {
            opts.por = false;
        } else if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--replay" && i + 1 < argc) {
            replay_path = argv[++i];
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--corrupt-after" && i + 1 < argc) {
            // Test hook: corrupt the FTL mapping after the Nth action
            // so the counterexample/replay plumbing can be exercised.
            opts.corruptAfterStep = std::atoi(argv[++i]);
        } else if (arg == "--corrupt-lpn" && i + 1 < argc) {
            opts.corruptLpn = std::strtoull(argv[++i], nullptr, 10);
        } else {
            return usage(argv[0]);
        }
    }
    if (opts.depth < 1 || opts.lpns < 1 || opts.faultBudget < 0)
        return usage(argv[0]);
    if (!policies.empty())
        opts.policies = policies;

    ModelReport report;
    if (!replay_path.empty()) {
        std::ifstream in(replay_path);
        if (!in) {
            std::cerr << "parabit-model: cannot read " << replay_path
                      << "\n";
            return 2;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        std::vector<int> path;
        std::string err;
        if (!parseTrace(buf.str(), path, opts.seed, err)) {
            std::cerr << "parabit-model: " << replay_path << ": " << err
                      << "\n";
            return 2;
        }
        if (!quiet)
            std::cout << "parabit-model: replaying " << path.size()
                      << "-step trace from " << replay_path << "\n";
        report = replayPath(opts, path);
    } else {
        report = runModel(opts);
    }

    if (!json_path.empty() &&
        !parabit::json::writeFile(json_path, toJson(report, opts)))
        return 2;

    const std::vector<Action> alphabet = actionAlphabet(opts);
    for (const ModelFinding &f : report.findings) {
        std::cerr << "parabit-model: [" << f.check << "] " << f.subject
                  << " (" << f.policy << "): " << f.message << "\n  trace:";
        for (int idx : f.path) {
            std::cerr << ' ';
            if (idx >= 0 && static_cast<std::size_t>(idx) < alphabet.size())
                std::cerr << alphabet[static_cast<std::size_t>(idx)]
                                 .describe();
            else
                std::cerr << '#' << idx;
        }
        std::cerr << "\n";
    }

    if (!report.ok()) {
        std::cerr << "parabit-model: FAILED with " << report.findings.size()
                  << " finding(s)"
                  << (json_path.empty()
                          ? ""
                          : " — replay with --replay " + json_path)
                  << "\n";
        return 1;
    }
    if (!quiet) {
        std::cout << "parabit-model: OK — " << report.pathsExplored
                  << " paths (depth " << report.maxDepth << ", "
                  << report.pathsPruned << " POR-pruned), "
                  << report.actionsApplied << " actions, "
                  << report.auditsRun << " audits ("
                  << report.checksRun << " checks), "
                  << report.crashesInjected
                  << " crash injections, 0 findings\n";
    }
    return 0;
}
