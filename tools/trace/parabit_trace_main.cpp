/**
 * @file
 * CLI wrapper around the parabit-trace validator.
 *
 *   parabit-trace FILE [--json OUT] [--quiet]
 *
 * Reads a Chrome trace-event JSON file (as written by a bench's
 * --trace-out flag) and checks it against the simulator's structural
 * invariants: span exclusivity on resource tracks, nest-or-disjoint
 * shape elsewhere, async begin/end pairing, and per-transaction phase
 * order.  Exit status 0 when the trace is valid; 1 on any finding
 * (each printed); 2 on usage or I/O errors.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/json.hpp"
#include "trace_check.hpp"

namespace {

int
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0 << " FILE [--json OUT] [--quiet]\n"
              << "  FILE         Chrome trace-event JSON to validate\n"
              << "  --json OUT   also write a machine-readable report\n"
              << "  --quiet      suppress the success summary\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string trace_path;
    std::string json_path;
    bool quiet = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (!arg.empty() && arg[0] != '-' && trace_path.empty()) {
            trace_path = arg;
        } else {
            return usage(argv[0]);
        }
    }
    if (trace_path.empty())
        return usage(argv[0]);

    std::ifstream in(trace_path, std::ios::binary);
    if (!in) {
        std::cerr << "parabit-trace: cannot read " << trace_path << "\n";
        return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();

    const parabit::tracecheck::CheckResult result =
        parabit::tracecheck::checkTrace(buf.str());

    if (!json_path.empty() &&
        !parabit::json::writeFile(json_path,
                                  parabit::tracecheck::toJson(result)))
        return 2;

    for (const auto &f : result.findings)
        std::cerr << "parabit-trace: [" << f.check << "] " << f.message
                  << "\n";

    if (!result.ok()) {
        std::cerr << "parabit-trace: FAILED with " << result.findings.size()
                  << " finding(s)\n";
        return 1;
    }
    if (!quiet) {
        std::cout << "parabit-trace: OK — " << result.stats.events
                  << " events, " << result.stats.spans << " spans, "
                  << result.stats.asyncPairs << " async pairs, "
                  << result.stats.flows << " flows ("
                  << result.stats.flowSteps << " steps) on "
                  << result.stats.tracks << " tracks across "
                  << result.stats.processes << " processes, 0 findings\n";
    }
    return 0;
}
