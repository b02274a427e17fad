/**
 * @file
 * CLI wrapper around the parabit-lint invariant checker.
 *
 *   parabit-lint [--json FILE] DIR [DIR...]
 *
 * Lints every .hpp/.cpp under each DIR.  Exit status 0 when clean, 1 on
 * findings (each printed as file:line: [rule] message), 2 on usage
 * errors.
 */

#include <iostream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "lint.hpp"

int
main(int argc, char **argv)
{
    std::string json_path;
    std::vector<std::string> roots;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc)
            json_path = argv[++i];
        else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "usage: " << argv[0]
                      << " [--json FILE] DIR [DIR...]\n";
            return 2;
        } else
            roots.push_back(arg);
    }
    if (roots.empty()) {
        std::cerr << "usage: " << argv[0] << " [--json FILE] DIR [DIR...]\n";
        return 2;
    }

    std::vector<parabit::lint::Finding> all;
    for (const auto &root : roots) {
        auto f = parabit::lint::lintTree(root);
        all.insert(all.end(), f.begin(), f.end());
    }

    if (!json_path.empty() &&
        !parabit::json::writeFile(json_path, parabit::lint::toJson(all)))
        return 2;

    for (const auto &f : all)
        std::cerr << f.file << ":" << f.line << ": [" << f.rule << "] "
                  << f.message << "\n";

    if (!all.empty()) {
        std::cerr << "parabit-lint: " << all.size() << " finding(s)\n";
        return 1;
    }
    std::cout << "parabit-lint: OK — " << roots.size()
              << " tree(s) clean\n";
    return 0;
}
