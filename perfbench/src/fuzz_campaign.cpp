/**
 * @file
 * fuzz-campaign: a differential-fuzzing campaign over a result cache.
 *
 * A pass is one campaign: kSeedsPerPass generated programs, the next
 * slots of the seed's stream (generator seeds hashed from the benchmark
 * seed and the slot, see campaignSeed), each run
 * through all five oracles one fuzz::runOracle call at a time (what
 * fuzz::runOracles does), fanned out over a WorkStealingPool of
 * min(4, nproc) workers.  Each pass opens a ResultCache on a fresh
 * directory inside the run's scratch area and saves it at the end,
 * so the cache takes writes (first sightings) and reads (isomorphic
 * later seeds) within the same pass.  A job is one seed.
 *
 * Reference: every seed's worst verdict must be Pass — the oracles
 * compare the graph enumerator with the operational machines and the
 * models with each other, independently of this benchmark.
 */

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <sstream>

#include "cache/result_cache.hpp"
#include "enumerate/engine_parallel.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/oracle.hpp"
#include "workloads.hpp"

namespace perf
{

namespace
{

using namespace satom;

constexpr std::uint32_t kSeedsPerPass = 1000;
constexpr int kSetups = 200;

/**
 * The generator seed of campaign slot @p i: a splitmix64 hash of
 * (seed, i).  Not the contiguous range [seed, seed + N): the
 * generator's xorshift makes neighbouring seeds alike, so a range's
 * cost depends on where it starts (jobs/s differed 2x between ranges
 * starting at 101 and 9909); hashed slots sample the seed space evenly.
 * Each pass takes fresh slots, so the median over a run's passes rests
 * on many programs rather than on the few slow ones a single fixed set
 * happens to hold.
 */
std::uint32_t
campaignSeed(std::uint32_t seed, std::size_t i)
{
    std::uint64_t z = (static_cast<std::uint64_t>(seed) << 32) + i +
                      0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::uint32_t>(z ^ (z >> 31));
}

struct SeedRecord
{
    fuzz::Verdict verdict = fuzz::Verdict::Pass;
    stats::StatsRegistry stats;
    double ms = 0;
};

} // namespace

WorkloadResult
runFuzzCampaign(const RunConfig &cfg)
{
    WorkloadResult r;
    const std::string base = cfg.scratchDir + "/fuzz";
    std::vector<SetupSample> setup;
    std::unique_ptr<WorkStealingPool> pool;
    // Set-up: open a cache on a fresh directory and start the pool.
    // It takes well under a millisecond, so it is repeated many times;
    // making the directory is left untimed (file-system calls vary
    // run to run far more than the work itself).
    for (int i = 0; i < kSetups; ++i) {
        pool.reset();
        freshDir(base + "/setup");
        CpuPin pin(i * cfg.cpus / kSetups); // a block of reps per CPU
        const auto t0 = Clock::now();
        cache::ResultCache probe;
        probe.open(base + "/setup");
        pin.release(); // the pool's threads must not inherit the pin
        pool = std::make_unique<WorkStealingPool>(cfg.workers);
        setup.push_back({pin.cpu(), msSince(t0) / 1000});
    }
    const auto oracles = fuzz::allOracles();
    fuzz::GeneratorConfig gen;
    gen.maxOps = 3;

    stats::StatsRegistry firstPass;
    bool havePass = false;
    long passes = 0, inconclusive = 0;
    std::uint64_t hits = 0, misses = 0, entries = 0, fileBytes = 0;
    std::uint64_t steals = 0;
    auto phase = [&](double seconds, Phase &ph) {
        const auto start = Clock::now();
        do {
            const std::string dir =
                base + "/pass" + std::to_string(passes);
            Pass pass;
            pass.begin();
            cache::ResultCache cache;
            {
                Span s("persist.cache_open");
                cache.open(dir);
            }
            fuzz::OracleOptions oo;
            oo.resultCache = &cache;
            const std::size_t slot0 =
                static_cast<std::size_t>(passes) * kSeedsPerPass;
            std::vector<SeedRecord> recs(kSeedsPerPass);
            const std::uint64_t stealsBefore = pool->stealCount();
            pool->run(kSeedsPerPass, [&](int, std::size_t i) {
                const auto t0 = Clock::now();
                Span root("bench.seed", static_cast<long>(i));
                Program p;
                {
                    Span s("fuzz.generate");
                    p = fuzz::generateProgram(
                        campaignSeed(cfg.seed, slot0 + i), gen);
                }
                std::vector<fuzz::Discrepancy> ds;
                for (auto id : oracles) {
                    Span s("fuzz.oracle." + fuzz::toString(id));
                    ds.push_back(fuzz::runOracle(id, p, oo));
                }
                auto &rec = recs[i];
                rec.verdict = fuzz::worstVerdict(ds);
                for (const auto &d : ds)
                    rec.stats.merge(d.stats);
                rec.ms = msSince(t0);
            });
            steals = pool->stealCount() - stealsBefore;
            {
                Span s("persist.cache_save");
                if (!cache.save())
                    ++pass.failed;
            }
            pass.end();
            stats::StatsRegistry reg;
            for (const auto &rec : recs) {
                pass.latencyMs.push_back(rec.ms);
                ++pass.attempted;
                if (rec.verdict != fuzz::Verdict::Pass)
                    ++pass.failed;
                if (rec.verdict == fuzz::Verdict::Inconclusive && !havePass)
                    ++inconclusive;
                reg.merge(rec.stats);
            }
            if (!havePass) {
                firstPass = reg;
                havePass = true;
            }
            hits = cache.hits();
            misses = cache.misses();
            entries = cache.size();
            std::error_code ec;
            fileBytes = std::filesystem::file_size(cache.path(), ec);
            ph.passes.push_back(std::move(pass));
            ++passes;
        } while (msSince(start) < seconds * 1000);
        freshDir(base); // the passes' cache directories, untimed
    };

    Tracer tracer;
    Phase traced;
    Phase plain = timedPhases(cfg, r, tracer, traced, phase);
    pool.reset();
    r.attempted = plain.attempted() + traced.attempted();
    r.failed = plain.failed() + traced.failed();
    reportEndToEnd(r, plain, setup);

    Metrics &m = r.layers;
    reportEngineCounts(m, firstPass);
    m.set("enumerate.steals", static_cast<double>(steals), "count");
    m.set("cache.hits", static_cast<double>(hits), "count");
    m.set("cache.misses", static_cast<double>(misses), "count");
    m.set("cache.hit_ratio",
          hits + misses ? static_cast<double>(hits) / (hits + misses) : 0,
          "ratio");
    m.set("cache.entries", static_cast<double>(entries), "count");
    m.set("persist.cache_file_bytes", static_cast<double>(fileBytes),
          "bytes");
    m.set("fuzz.inconclusive", static_cast<double>(inconclusive), "count");
    m.set("baseline.operational_states",
          static_cast<double>(counter(firstPass, "operational-states")),
          "count");
    m.set("baseline.operational_steps",
          static_cast<double>(counter(firstPass, "operational-steps")),
          "count");
    if (cfg.trace) {
        std::vector<std::pair<std::string, std::string>> spans = {
            {"persist.cache_open", "persist.cache_open_ms"},
            {"persist.cache_save", "persist.cache_save_ms"},
            {"fuzz.generate", "fuzz.generate_ms"},
        };
        for (auto id : oracles)
            spans.push_back({"fuzz.oracle." + fuzz::toString(id),
                             "fuzz.oracle_ms." + fuzz::toString(id)});
        reportSpans(m, tracer, traced.attempted(), spans);
    }

    std::ostringstream os;
    os << kSeedsPerPass << " seeds x " << oracles.size()
       << " oracles per pass, " << passes << " passes; last pass cache "
       << hits << " hits / " << misses << " misses, " << entries
       << " entries, " << fileBytes << " bytes; slowest seeds (ms):";
    std::vector<double> lat;
    for (const auto &p : plain.passes)
        lat.insert(lat.end(), p.latencyMs.begin(), p.latencyMs.end());
    std::sort(lat.rbegin(), lat.rend());
    for (std::size_t i = 0; i < std::min<std::size_t>(8, lat.size()); ++i)
        os << ' ' << static_cast<long>(lat[i]);
    os << "; all seeds " << static_cast<long>(std::accumulate(
                                    lat.begin(), lat.end(), 0.0));
    r.notes.push_back(os.str());
    return r;
}

} // namespace perf
