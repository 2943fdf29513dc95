#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "workloads.hpp"

namespace perf
{

const std::vector<std::pair<std::string, std::string>> &
endToEndNames()
{
    static const std::vector<std::pair<std::string, std::string>> k = {
        {"setup_s", "s"},        {"jobs_per_s", "1/s"},
        {"job_ms_p50", "ms"},    {"job_ms_p90", "ms"},
        {"cpu_s", "s"},          {"peak_rss_mb", "MB"},
    };
    return k;
}

const std::vector<std::pair<std::string, std::string>> &
layerMetricNames()
{
    static const std::vector<std::pair<std::string, std::string>> k = {
        {"litmus.parse_ms", "ms"},
        {"enumerate.batch_ms", "ms"},
        {"enumerate.ms", "ms"},
        {"enumerate.states_explored", "count"},
        {"enumerate.states_generated", "count"},
        {"enumerate.states_deduped", "count"},
        {"enumerate.candidate_sets", "count"},
        {"enumerate.executions", "count"},
        {"enumerate.finalization_closes", "count"},
        {"enumerate.dup_ratio", "ratio"},
        {"enumerate.us_per_state_generated", "us"},
        {"enumerate.waves", "count"},
        {"enumerate.steals", "count"},
        {"enumerate.wave_occupancy_min", "%"},
        {"core.closure_runs", "count"},
        {"core.closure_iterations", "count"},
        {"core.closure_edges", "count"},
        {"core.closure_frontier_loads", "count"},
        {"core.closure_runs_per_state", "ratio"},
        {"cache.canonicalize_ms", "ms"},
        {"cache.hits", "count"},
        {"cache.misses", "count"},
        {"cache.hit_ratio", "ratio"},
        {"cache.entries", "count"},
        {"cache.counter_drift_pairs", "count"},
        {"persist.cache_open_ms", "ms"},
        {"persist.cache_save_ms", "ms"},
        {"persist.cache_file_bytes", "bytes"},
        {"fuzz.generate_ms", "ms"},
        {"fuzz.oracle_ms.sc-operational", "ms"},
        {"fuzz.oracle_ms.tso-operational", "ms"},
        {"fuzz.oracle_ms.inclusion", "ms"},
        {"fuzz.oracle_ms.spec-inclusion", "ms"},
        {"fuzz.oracle_ms.wmm-recheck", "ms"},
        {"fuzz.inconclusive", "count"},
        {"baseline.operational_states", "count"},
        {"baseline.operational_steps", "count"},
        {"service.parse_us", "us"},
        {"service.queue_wait_us_p50", "us"},
        {"service.queue_wait_us_p90", "us"},
        {"service.service_us_p50", "us"},
        {"service.service_us_p90", "us"},
        {"service.jobs_admitted", "count"},
        {"service.jobs_shed", "count"},
        {"service.queue_depth_peak", "count"},
        {"litmus.self_ms", "ms/job"},
        {"enumerate.self_ms", "ms/job"},
        {"cache.self_ms", "ms/job"},
        {"persist.self_ms", "ms/job"},
        {"fuzz.self_ms", "ms/job"},
        {"baseline.self_ms", "ms/job"},
        {"service.self_ms", "ms/job"},
        {"bench.self_ms", "ms/job"},
        {"trace.overhead_pct", "%"},
        {"trace.spans", "count"},
        {"trace.latency_samples", "count"},
    };
    return k;
}

std::uint64_t
counter(const satom::stats::StatsRegistry &reg, const std::string &name)
{
    using namespace satom::stats;
    for (int i = 0; i < numCounters; ++i) {
        const auto c = static_cast<Ctr>(i);
        if (name == info(c).name)
            return reg.get(c);
    }
    return 0;
}

void
reportEngineCounts(Metrics &m, const satom::stats::StatsRegistry &pass)
{
    auto c = [&](const char *n) {
        return static_cast<double>(counter(pass, n));
    };
    const double explored = c("states-explored");
    const double generated = c("states-generated");
    const double deduped = c("states-deduped");
    m.set("enumerate.states_explored", explored, "count");
    m.set("enumerate.states_generated", generated, "count");
    m.set("enumerate.states_deduped", deduped, "count");
    m.set("enumerate.candidate_sets", c("candidate-sets"), "count");
    m.set("enumerate.executions", c("executions"), "count");
    m.set("enumerate.finalization_closes", c("finalization-closures"),
          "count");
    m.set("enumerate.dup_ratio", generated > 0 ? deduped / generated : 0,
          "ratio");
    m.set("enumerate.waves", c("waves"), "count");
    m.set("enumerate.steals", c("steals"), "count");
    m.set("enumerate.wave_occupancy_min", c("wave-occupancy"), "%");
    const double runs = c("closure-runs");
    m.set("core.closure_runs", runs, "count");
    m.set("core.closure_iterations", c("closure-iterations"), "count");
    m.set("core.closure_edges", c("closure-edges"), "count");
    m.set("core.closure_frontier_loads", c("closure-frontier-loads"),
          "count");
    m.set("core.closure_runs_per_state", explored > 0 ? runs / explored : 0,
          "ratio");
}

void
reportSpans(Metrics &m, const Tracer &t, long tracedJobs,
            const std::vector<std::pair<std::string, std::string>>
                &spanMetrics)
{
    const auto totals = t.totals();
    for (const auto &[span, metric] : spanMetrics) {
        const auto it = totals.find(span);
        const double mean = it == totals.end() || it->second.calls == 0
                                ? 0
                                : it->second.totalMs / it->second.calls;
        m.set(metric, mean, "ms");
    }
    const double jobs = tracedJobs > 0 ? static_cast<double>(tracedJobs) : 1;
    for (const auto &[module, selfMs] : t.moduleSelfMs()) {
        const std::string name = module + ".self_ms";
        for (const auto &[known, unit] : layerMetricNames())
            if (known == name)
                m.set(name, selfMs / jobs, unit);
    }
    m.set("trace.spans", static_cast<double>(t.size()), "count");
}

void
reportEndToEnd(WorkloadResult &r, const Phase &phase,
               const std::vector<SetupSample> &setup)
{
    std::vector<double> rate, p50, p90, cpu;
    for (const auto &p : phase.passes) {
        rate.push_back(p.wallS > 0 ? static_cast<double>(p.ok()) / p.wallS
                                   : 0);
        p50.push_back(percentile(p.latencyMs, 0.5));
        p90.push_back(percentile(p.latencyMs, 0.9));
        cpu.push_back(p.cpuS);
    }
    Metrics &m = r.endToEnd;
    m.set("setup_s", setupSeconds(setup), "s");
    std::vector<double> reps;
    for (const auto &x : setup)
        reps.push_back(x.seconds);
    std::ostringstream os;
    os << "set-up: " << reps.size() << " repetitions, min "
       << percentile(reps, 0) << " s, median " << median(reps)
       << " s, max " << percentile(reps, 1) << " s";
    r.notes.push_back(os.str());
    m.set("jobs_per_s", median(rate), "1/s");
    m.set("job_ms_p50", median(p50), "ms");
    m.set("job_ms_p90", median(p90), "ms");
    m.set("cpu_s", median(cpu), "s");
    // The peak when the first pass ends (set-up plus one pass), not
    // after the run: later passes only add what earlier ones left in
    // the allocator, and how many passes a run holds depends on speed.
    m.set("peak_rss_mb",
          phase.passes.empty() ? peakRssMb() : phase.passes.front().peakRssMb,
          "MB");
    const long attempted = phase.attempted();
    m.set("fail_ratio",
          attempted > 0 ? static_cast<double>(phase.failed()) / attempted
                        : 1,
          "ratio");
    m.set("job_samples", static_cast<double>(phase.samples()), "count");
    m.set("passes", static_cast<double>(phase.passes.size()), "count");
    m.set("timed_wall_s", phase.wallS(), "s");
}

Phase
timedPhases(const RunConfig &cfg, WorkloadResult &r, Tracer &tracer,
            Phase &traced,
            const std::function<void(double seconds, Phase &)> &phase)
{
    Phase plain;
    if (!cfg.trace) {
        phase(cfg.seconds, plain);
        return plain;
    }
    // Untraced, traced, traced, untraced quarters: a drift during the
    // run (a host that speeds up or slows down, a service cache that
    // grows) then weighs on both sides alike.
    for (const bool on : {false, true, true, false}) {
        Phase q;
        Tracer::install(on ? &tracer : nullptr);
        phase(cfg.seconds / 4, q);
        Tracer::install(nullptr);
        (on ? traced : plain).add(q);
    }
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(cfg.traceOut).parent_path(), ec);
    if (!tracer.writeChrome(cfg.traceOut, stampJson(cfg)))
        throw std::runtime_error("cannot write " + cfg.traceOut);
    r.notes.push_back("trace: " + std::to_string(tracer.size()) +
                      " spans written to " + cfg.traceOut);

    const auto perJob = [](const Phase &p) {
        return p.attempted() > 0
                   ? p.wallS() / static_cast<double>(p.attempted())
                   : 0;
    };
    const double u = perJob(plain), t = perJob(traced);
    r.layers.set("trace.overhead_pct", u > 0 ? (t / u - 1) * 100 : 0, "%");
    r.layers.set("trace.latency_samples",
                 static_cast<double>(traced.samples()), "count");
    std::ostringstream os;
    os << "trace overhead: traced " << t * 1000 << " ms/job vs untraced "
       << u * 1000 << " ms/job (" << traced.attempted() << " vs "
       << plain.attempted() << " jobs)";
    r.notes.push_back(os.str());
    return plain;
}

void
freshDir(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
    std::filesystem::create_directories(path, ec);
    if (ec)
        throw std::runtime_error("cannot create " + path + ": " +
                                 ec.message());
}

std::string
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
}

} // namespace perf
