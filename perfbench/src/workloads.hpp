/**
 * @file
 * The benchmark's workloads and the helpers they share.
 *
 * Every workload follows one shape: set up several times (setup_s is
 * the mean over CPUs of per-CPU medians, see setupSeconds), run whole
 * passes of jobs until the requested time is spent, then check every
 * job against its reference (see each workload's file for what the
 * reference is and whether it is independent of the engine).  A traced
 * run (--trace 1) spends its time in untraced, traced, traced and
 * untraced quarters;
 * the per-layer metrics come from the traced quarters and
 * trace.overhead_pct compares the two halves.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness.hpp"
#include "util/stats.hpp"

namespace perf
{

struct WorkloadResult
{
    long attempted = 0;
    long failed = 0;
    Metrics endToEnd;
    Metrics layers;
    std::vector<std::string> notes; ///< human-readable lines
};

WorkloadResult runLitmusSuite(const RunConfig &cfg);
WorkloadResult runRingDeep(const RunConfig &cfg);
WorkloadResult runFuzzCampaign(const RunConfig &cfg);
WorkloadResult runServiceMixed(const RunConfig &cfg);

/** Every per-layer metric name with its unit, in report order. */
const std::vector<std::pair<std::string, std::string>> &layerMetricNames();

/** Every end-to-end metric name with its unit, in report order. */
const std::vector<std::pair<std::string, std::string>> &endToEndNames();

/**
 * A counter of @p reg by its report name ("states-explored"); 0 when
 * the build has no counter of that name.
 */
std::uint64_t counter(const satom::stats::StatsRegistry &reg,
                      const std::string &name);

/**
 * Fill the deterministic enumerate.* / core.* counts (per pass) from
 * a registry merged over one pass, plus the pool telemetry.
 */
void reportEngineCounts(Metrics &m, const satom::stats::StatsRegistry &pass);

/**
 * Per-call span means (`<span>_ms` for each name in @p spanMetrics),
 * per-module self time per job, and the span count.
 */
void reportSpans(Metrics &m, const Tracer &t, long tracedJobs,
                 const std::vector<std::pair<std::string, std::string>>
                     &spanMetrics);

/**
 * The end-to-end metrics of a timed phase: jobs_per_s, job_ms_p50,
 * job_ms_p90 and cpu_s are each the median over passes of the pass's
 * own figure (cpu_s is CPU seconds per pass); peak_rss_mb is the peak
 * when the first pass ended.
 */
void reportEndToEnd(WorkloadResult &r, const Phase &phase,
                    const std::vector<SetupSample> &setup);

/**
 * Run @p phase for the whole budget (untraced runs), or for half the
 * budget untraced and half traced, in untraced, traced, traced and
 * untraced quarters (--trace 1).
 * @p phase runs whole passes until its time is up and fills the Phase
 * it is given.
 * Returns the phase the end-to-end metrics come from (the untraced
 * one); @p traced receives the traced phase.
 */
Phase timedPhases(const RunConfig &cfg, WorkloadResult &r, Tracer &tracer,
                  Phase &traced,
                  const std::function<void(double seconds, Phase &)> &phase);

/** Make (or empty) a directory; throws on failure. */
void freshDir(const std::string &path);

/** Read a whole file; throws on failure. */
std::string readFile(const std::string &path);

} // namespace perf
