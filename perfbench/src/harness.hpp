/**
 * @file
 * Shared plumbing of the satom benchmark: run configuration, the
 * metric sink, timing helpers and the benchmark-side span tracer.
 *
 * Spans are recorded only from the benchmark's own code, around its
 * calls into the libraries' public functions; nothing inside the
 * libraries is instrumented.  With no Tracer installed a Span reads
 * no clock and allocates nothing, so untraced runs pay nothing.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perf
{

using Clock = std::chrono::steady_clock;

inline double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** What one invocation of the benchmark was asked to do. */
struct RunConfig
{
    std::string workload;
    std::uint32_t seed = 1;
    double seconds = 10;
    bool trace = false;
    int cpus = 1;    ///< std::thread::hardware_concurrency()
    int workers = 1; ///< min(4, cpus): load-side threads / connections
    /** ring-deep's EnumerationOptions::numWorkers; 0, the library's
     *  default, resolves to hardware_concurrency. */
    int engineWorkers = 0;
    std::string root = ".";  ///< checkout root (examples/ live here)
    std::string scratchDir; ///< per-run directory inside the checkout
    std::string traceOut;   ///< Chrome trace path (traced runs)
};

/** Worker threads of service-mixed's in-process Service. */
constexpr int kServiceWorkers = 2;

/** Named metrics with units, in insertion order. */
class Metrics
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);
    bool has(const std::string &name) const;
    double get(const std::string &name) const;

    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    const std::vector<Entry> &entries() const { return entries_; }

  private:
    std::vector<Entry> entries_;
};

/** p in [0, 1], linear interpolation between order statistics. */
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/** User + system CPU seconds of the whole process so far. */
double processCpuSeconds();

/** Peak resident set size of the process so far, in MB. */
double peakRssMb();

/**
 * One pass: a fixed amount of work (one round of the workload's
 * inputs), timed on its own.  The end-to-end metrics are medians over
 * passes, so a host slowdown that hits a few passes does not move them.
 */
struct Pass
{
    Clock::time_point start;
    double cpuStart = 0;
    double wallS = 0;
    double cpuS = 0;
    double peakRssMb = 0; ///< the process's peak RSS when the pass ended
    long attempted = 0;
    long failed = 0;
    std::vector<double> latencyMs; ///< one entry per job

    void begin();
    void end();
    long ok() const { return attempted - failed; }
};

/** The passes of a timed phase, or of several slices of one. */
struct Phase
{
    std::vector<Pass> passes;

    void add(const Phase &o);
    long attempted() const;
    long failed() const;
    double wallS() const;
    std::size_t samples() const;
};

/** One recorded span. */
struct SpanRecord
{
    std::uint32_t id = 0;
    std::uint32_t parent = 0; ///< 0: a root span
    long job = -1;            ///< -1: not tied to one job
    int thread = 0;
    std::string name;         ///< "<module>.<call>"
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

/** Per-span-name totals derived from the recorded spans. */
struct SpanTotals
{
    long calls = 0;
    double totalMs = 0; ///< summed durations
    double selfMs = 0;  ///< durations minus time covered by children
};

/**
 * In-memory span collector.  One is installed for the traced slices
 * of a --trace 1 run; spans opened while none is installed are inert.
 */
class Tracer
{
  public:
    Tracer();

    static void install(Tracer *t);
    static Tracer *active();

    std::uint32_t nextId();
    std::int64_t nowNs() const;
    void record(SpanRecord r);

    /** Totals keyed by span name. */
    std::map<std::string, SpanTotals> totals() const;

    /** Self time summed per module (the name's prefix before '.'). */
    std::map<std::string, double> moduleSelfMs() const;

    std::size_t size() const;

    /** Write every span as Chrome trace-event JSON, with @p stamp (a
     *  JSON object) as the trace's "otherData"; false on error. */
    bool writeChrome(const std::string &path,
                     const std::string &stamp) const;

  private:
    Clock::time_point epoch_;
    mutable std::mutex m_;
    std::vector<SpanRecord> spans_;
    std::uint32_t next_ = 0;
};

/**
 * RAII span around one call into a layer.  Nests through a
 * thread-local parent stack; @p job tags the span (and, by
 * inheritance, its children) with a job id.
 */
class Span
{
  public:
    explicit Span(std::string_view name, long job = -1);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *tracer_;
    SpanRecord rec_;
    std::uint32_t savedParent_ = 0;
    long savedJob_ = -1;
};

/**
 * Pins the calling thread to the (@p index mod n)-th of the n CPUs it
 * may run on, until release() or destruction.  Set-up repetitions are
 * spread over the CPUs with it, one block of consecutive repetitions
 * per CPU: on a shared host single CPUs differ in speed (up to 1.7x
 * measured), so a single-threaded set-up timed on whichever CPU it
 * lands on is not repeatable, and a repetition that has just moved to
 * another CPU runs with cold caches.  Release before starting threads,
 * or they inherit the pin.
 */
class CpuPin
{
  public:
    explicit CpuPin(int index);
    ~CpuPin();
    void release();
    int cpu() const { return cpu_; }

    CpuPin(const CpuPin &) = delete;
    CpuPin &operator=(const CpuPin &) = delete;

  private:
    std::vector<unsigned char> saved_; ///< the caller's cpu_set_t
    int cpu_ = -1;
    bool pinned_ = false;
};

/** One timed set-up repetition and the CPU it was pinned to. */
struct SetupSample
{
    int cpu;
    double seconds;
};

/** setup_s: the mean over CPUs of each CPU's median set-up time. */
double setupSeconds(const std::vector<SetupSample> &samples);

/**
 * Threads the libraries run the workload's jobs on: the enumeration
 * pool (litmus-suite, fuzz-campaign), the engine (ring-deep) or the
 * service's workers (service-mixed).
 */
int engineWorkersUsed(const RunConfig &cfg);

/** Host/build stamp: printed on every result, embedded in traces. */
std::string stampJson(const RunConfig &cfg);

/** True iff the benchmark was built as a Release build. */
bool releaseBuild();

} // namespace perf
