/**
 * @file
 * satom_perf — the repository's end-to-end benchmark.
 *
 *   satom_perf --workload NAME --seed N --seconds S --trace 0|1 [--root DIR]
 *   satom_perf --self-test [--root DIR]
 *
 * DIR is the checkout root (default "."); the run's scratch files go
 * to DIR/.bench_build/run and traces to DIR/.bench_build/traces.
 *
 * Workloads: litmus-suite, ring-deep, fuzz-campaign, service-mixed
 * (see perfbench/README.md).  Human-readable lines (the host/build
 * stamp, notes, every metric with its unit) come first; the last line
 * of standard output is one JSON object
 *   {"correct", "attempted", "failed", "metrics"}
 * whose metrics are the end-to-end set (--trace 0) or the per-layer
 * set (--trace 1).  Exit status: 0 when every job matched its
 * reference, 1 on any mismatch, 2 on a usage or set-up error (no
 * result line).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace
{

using namespace perf;

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
usage()
{
    std::cerr << "usage: satom_perf --workload litmus-suite|ring-deep|"
                 "fuzz-campaign|service-mixed --seed N --seconds S "
                 "--trace 0|1 [--root DIR]\n"
                 "       satom_perf --self-test [--root DIR]\n";
}

WorkloadResult
runWorkload(const RunConfig &cfg)
{
    if (cfg.workload == "litmus-suite")
        return runLitmusSuite(cfg);
    if (cfg.workload == "ring-deep")
        return runRingDeep(cfg);
    if (cfg.workload == "fuzz-campaign")
        return runFuzzCampaign(cfg);
    if (cfg.workload == "service-mixed")
        return runServiceMixed(cfg);
    throw std::invalid_argument("unknown workload " + cfg.workload);
}

void
printMetrics(const char *kind, const Metrics &m)
{
    for (const auto &e : m.entries())
        std::cout << kind << ' ' << e.name << " = " << number(e.value)
                  << ' ' << e.unit << '\n';
}

/**
 * The exact per-layer counts must repeat across two runs and between
 * one worker and the default worker count (min(4, nproc) load-side
 * workers; ring-deep's engine default, numWorkers = 0).  One pass per
 * workload.
 */
int
selfTest(RunConfig base)
{
    static const char *kCounts[] = {
        "enumerate.states_explored", "enumerate.states_generated",
        "enumerate.states_deduped",  "enumerate.candidate_sets",
        "enumerate.executions",      "enumerate.finalization_closes",
        "core.closure_runs",         "core.closure_iterations",
        "core.closure_edges",        "core.closure_frontier_loads",
        "baseline.operational_states", "baseline.operational_steps",
        "fuzz.inconclusive",
    };
    int bad = 0;
    for (const char *w : {"litmus-suite", "ring-deep", "fuzz-campaign"}) {
        const int badBefore = bad;
        std::vector<std::pair<std::string, Metrics>> runs;
        for (int workers : {1, base.workers, 1, base.workers}) {
            RunConfig cfg = base;
            cfg.workload = w;
            cfg.seconds = 0; // one pass
            cfg.workers = workers;
            cfg.engineWorkers = workers == 1 ? 1 : 0; // ring-deep
            const WorkloadResult r = runWorkload(cfg);
            if (r.failed != 0) {
                std::cout << "FAIL " << w << ": " << r.failed
                          << " wrong jobs at workers=" << workers << '\n';
                ++bad;
            }
            runs.push_back({"workers=" + std::to_string(workers), r.layers});
        }
        auto value = [](const Metrics &m, const char *name) {
            return m.has(name) ? m.get(name) : 0;
        };
        for (const char *name : kCounts) {
            const double v0 = value(runs[0].second, name);
            for (const auto &[label, m] : runs)
                if (value(m, name) != v0) {
                    std::cout << "FAIL " << w << ' ' << name << ": "
                              << number(value(m, name)) << " at " << label
                              << " vs " << number(v0) << " at "
                              << runs[0].first << '\n';
                    ++bad;
                }
        }
        std::cout << (bad > badBefore ? "FAILED " : "ok ") << w
                  << ": counts repeat across 2 runs at workers=1 and "
                     "workers="
                  << base.workers << '\n';
    }
    std::cout << (bad ? "self-test FAILED" : "self-test passed") << '\n';
    return bad ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig cfg;
    const unsigned hw = std::thread::hardware_concurrency();
    cfg.cpus = hw > 0 ? static_cast<int>(hw) : 1;
    cfg.workers = std::min(4, cfg.cpus);
    bool self = false;
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const char *v = i + 1 < argc ? argv[i + 1] : nullptr;
        auto need = [&]() -> std::string {
            if (!v) {
                usage();
                std::exit(2);
            }
            ++i;
            return v;
        };
        try {
            if (a == "--workload") {
                cfg.workload = need();
                haveWorkload = true;
            } else if (a == "--seed") {
                cfg.seed = static_cast<std::uint32_t>(std::stoul(need()));
                haveSeed = true;
            } else if (a == "--seconds") {
                cfg.seconds = std::stod(need());
                haveSeconds = cfg.seconds > 0;
            } else if (a == "--trace") {
                const std::string t = need();
                if (t != "0" && t != "1")
                    throw std::invalid_argument("--trace takes 0 or 1");
                cfg.trace = t == "1";
                haveTrace = true;
            } else if (a == "--root") {
                cfg.root = need();
            } else if (a == "--self-test") {
                self = true;
            } else {
                throw std::invalid_argument("unknown argument " + a);
            }
        } catch (const std::exception &e) {
            std::cerr << "satom_perf: " << e.what() << '\n';
            usage();
            return 2;
        }
    }
    cfg.scratchDir = cfg.root + "/.bench_build/run";
    cfg.traceOut = cfg.root + "/.bench_build/traces/" + cfg.workload +
                       "-seed" + std::to_string(cfg.seed) + ".trace.json";

    std::cout << "stamp " << stampJson(cfg) << '\n';
    if (!releaseBuild())
        std::cout << "WARNING: not a Release build; timings are not "
                     "comparable\n";

    try {
        freshDir(cfg.scratchDir);
        if (self)
            return selfTest(cfg);
        if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace) {
            usage();
            return 2;
        }
        const WorkloadResult r = runWorkload(cfg);
        for (const auto &n : r.notes)
            std::cout << "note " << n << '\n';
        printMetrics("end-to-end", r.endToEnd);
        if (cfg.trace)
            printMetrics("per-layer", r.layers);

        const bool correct = r.failed == 0;
        std::ostringstream js;
        js << "{\"correct\": " << (correct ? "true" : "false")
           << ", \"attempted\": " << r.attempted
           << ", \"failed\": " << r.failed << ", \"metrics\": {";
        const auto &names = cfg.trace ? layerMetricNames() : endToEndNames();
        const Metrics &src = cfg.trace ? r.layers : r.endToEnd;
        bool first = true;
        for (const auto &[name, unit] : names) {
            const double v = src.has(name) ? src.get(name) : 0;
            js << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
               << number(v) << ", \"unit\": \"" << unit << "\"}";
            first = false;
        }
        js << "}}";
        std::cout << js.str() << std::endl;
        return correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::cout.flush();
        std::cerr << "satom_perf: " << e.what() << '\n';
        return 2;
    }
}
