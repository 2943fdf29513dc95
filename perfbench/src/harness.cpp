#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#ifndef PERF_BUILD_TYPE
#define PERF_BUILD_TYPE "unknown"
#endif
#ifndef PERF_COMMIT
#define PERF_COMMIT "unknown"
#endif
#ifndef PERF_COMPILER
#define PERF_COMPILER "unknown"
#endif
#ifndef PERF_SOURCE_DIGEST
#define PERF_SOURCE_DIGEST "unknown"
#endif

namespace perf
{

void
Metrics::set(const std::string &name, double value,
             const std::string &unit)
{
    for (auto &e : entries_)
        if (e.name == name) {
            e.value = value;
            e.unit = unit;
            return;
        }
    entries_.push_back({name, value, unit});
}

bool
Metrics::has(const std::string &name) const
{
    for (const auto &e : entries_)
        if (e.name == name)
            return true;
    return false;
}

double
Metrics::get(const std::string &name) const
{
    for (const auto &e : entries_)
        if (e.name == name)
            return e.value;
    throw std::out_of_range("no metric " + name);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = p * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) / 1e6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
Pass::begin()
{
    cpuStart = processCpuSeconds();
    start = Clock::now();
}

void
Pass::end()
{
    wallS = msSince(start) / 1000.0;
    cpuS = processCpuSeconds() - cpuStart;
    peakRssMb = perf::peakRssMb();
}

void
Phase::add(const Phase &o)
{
    passes.insert(passes.end(), o.passes.begin(), o.passes.end());
}

long
Phase::attempted() const
{
    long n = 0;
    for (const auto &p : passes)
        n += p.attempted;
    return n;
}

long
Phase::failed() const
{
    long n = 0;
    for (const auto &p : passes)
        n += p.failed;
    return n;
}

double
Phase::wallS() const
{
    double s = 0;
    for (const auto &p : passes)
        s += p.wallS;
    return s;
}

std::size_t
Phase::samples() const
{
    std::size_t n = 0;
    for (const auto &p : passes)
        n += p.latencyMs.size();
    return n;
}

namespace
{

std::atomic<Tracer *> gTracer{nullptr};

struct ThreadSpanState
{
    std::uint32_t parent = 0;
    long job = -1;
    int thread = -1;
};

thread_local ThreadSpanState tSpan;
std::atomic<int> gThreadIds{0};

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

std::string
moduleOf(const std::string &name)
{
    const auto dot = name.find('.');
    return dot == std::string::npos ? name : name.substr(0, dot);
}

} // namespace

Tracer::Tracer() : epoch_(Clock::now()) {}

void
Tracer::install(Tracer *t)
{
    gTracer.store(t, std::memory_order_release);
}

Tracer *
Tracer::active()
{
    return gTracer.load(std::memory_order_acquire);
}

std::uint32_t
Tracer::nextId()
{
    std::lock_guard<std::mutex> lock(m_);
    return ++next_;
}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

void
Tracer::record(SpanRecord r)
{
    std::lock_guard<std::mutex> lock(m_);
    spans_.push_back(std::move(r));
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(m_);
    return spans_.size();
}

std::map<std::string, SpanTotals>
Tracer::totals() const
{
    std::lock_guard<std::mutex> lock(m_);
    // Children of one parent run one after another on the parent's
    // thread, so their summed durations are the covered part.
    std::map<std::uint32_t, double> childMs;
    for (const auto &s : spans_)
        if (s.parent != 0)
            childMs[s.parent] +=
                static_cast<double>(s.endNs - s.startNs) / 1e6;
    std::map<std::string, SpanTotals> out;
    for (const auto &s : spans_) {
        const double ms = static_cast<double>(s.endNs - s.startNs) / 1e6;
        auto &t = out[s.name];
        ++t.calls;
        t.totalMs += ms;
        const auto it = childMs.find(s.id);
        t.selfMs += std::max(0.0, ms - (it == childMs.end() ? 0 : it->second));
    }
    return out;
}

std::map<std::string, double>
Tracer::moduleSelfMs() const
{
    std::map<std::string, double> out;
    for (const auto &[name, t] : totals())
        out[moduleOf(name)] += t.selfMs;
    return out;
}

bool
Tracer::writeChrome(const std::string &path, const std::string &stamp) const
{
    std::ofstream f(path, std::ios::trunc);
    if (!f)
        return false;
    std::lock_guard<std::mutex> lock(m_);
    f << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto &s = spans_[i];
        char ts[64], dur[64];
        std::snprintf(ts, sizeof ts, "%.3f",
                      static_cast<double>(s.startNs) / 1e3);
        std::snprintf(dur, sizeof dur, "%.3f",
                      static_cast<double>(s.endNs - s.startNs) / 1e3);
        f << (i ? ",\n" : "") << "{\"name\": " << jsonString(s.name)
          << ", \"cat\": " << jsonString(moduleOf(s.name))
          << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
          << ", \"ts\": " << ts << ", \"dur\": " << dur
          << ", \"args\": {\"id\": " << s.id << ", \"parent\": "
          << s.parent << ", \"job\": " << s.job << "}}";
    }
    f << "\n], \"displayTimeUnit\": \"ms\", \"otherData\": " << stamp
      << "}\n";
    return static_cast<bool>(f);
}

Span::Span(std::string_view name, long job)
    : tracer_(Tracer::active())
{
    if (!tracer_)
        return;
    if (tSpan.thread < 0)
        tSpan.thread = gThreadIds.fetch_add(1);
    rec_.id = tracer_->nextId();
    rec_.parent = tSpan.parent;
    rec_.job = job >= 0 ? job : tSpan.job;
    rec_.thread = tSpan.thread;
    rec_.name = std::string(name);
    savedParent_ = tSpan.parent;
    savedJob_ = tSpan.job;
    tSpan.parent = rec_.id;
    tSpan.job = rec_.job;
    rec_.startNs = tracer_->nowNs();
}

Span::~Span()
{
    if (!tracer_)
        return;
    rec_.endNs = tracer_->nowNs();
    tSpan.parent = savedParent_;
    tSpan.job = savedJob_;
    tracer_->record(std::move(rec_));
}

CpuPin::CpuPin(int index)
{
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof mask, &mask) != 0)
        return;
    const int n = CPU_COUNT(&mask);
    if (n <= 0)
        return;
    int want = index % n;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &mask) && want-- == 0) {
            cpu_ = c;
            break;
        }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu_, &one);
    saved_.assign(reinterpret_cast<unsigned char *>(&mask),
                  reinterpret_cast<unsigned char *>(&mask) + sizeof mask);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
}

CpuPin::~CpuPin()
{
    release();
}

void
CpuPin::release()
{
    if (!pinned_)
        return;
    cpu_set_t mask;
    std::memcpy(&mask, saved_.data(), sizeof mask);
    if (sched_setaffinity(0, sizeof mask, &mask) != 0)
        throw std::runtime_error("cannot restore the CPU affinity mask");
    pinned_ = false;
}

double
setupSeconds(const std::vector<SetupSample> &samples)
{
    std::map<int, std::vector<double>> perCpu;
    for (const auto &s : samples)
        perCpu[s.cpu].push_back(s.seconds);
    double sum = 0;
    for (const auto &[cpu, v] : perCpu)
        sum += median(v);
    return perCpu.empty() ? 0 : sum / static_cast<double>(perCpu.size());
}

bool
releaseBuild()
{
    return std::string(PERF_BUILD_TYPE) == "Release";
}

int
engineWorkersUsed(const RunConfig &cfg)
{
    if (cfg.workload == "ring-deep") // 0 resolves as the engine does
        return cfg.engineWorkers > 0 ? cfg.engineWorkers : cfg.cpus;
    if (cfg.workload == "service-mixed")
        return kServiceWorkers;
    return cfg.workers;
}

std::string
stampJson(const RunConfig &cfg)
{
    const int engine = engineWorkersUsed(cfg);
    std::ostringstream os;
    os << "{\"workload\": " << jsonString(cfg.workload)
       << ", \"seed\": " << cfg.seed << ", \"nproc\": " << cfg.cpus
       << ", \"workers\": " << cfg.workers
       << ", \"engine_workers\": " << engine << ", \"starved\": "
       << (std::max(cfg.workers, engine) > cfg.cpus ? "true" : "false")
       << ", \"compiler\": " << jsonString(PERF_COMPILER)
       << ", \"build_type\": " << jsonString(PERF_BUILD_TYPE)
       << ", \"release\": " << (releaseBuild() ? "true" : "false")
       << ", \"commit\": " << jsonString(PERF_COMMIT)
       << ", \"source_digest\": " << jsonString(PERF_SOURCE_DIGEST) << "}";
    return os.str();
}

} // namespace perf
