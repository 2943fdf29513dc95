/**
 * @file
 * ring-deep: one deep, uncapped search per model.
 *
 * The program is the 5-thread, 2-read ring: thread i stores a value
 * to its own slot, then loads the next two slots.  The stored values
 * come from the seed (distinct, nonzero); the search shape does not
 * depend on them.  Set-up renders the ring as litmus text and parses
 * it.  A pass enumerates the ring under SC, TSO, WMM and
 * WMM+spec, each a complete enumerateBehaviors run with the default
 * EnumerationOptions::numWorkers = 0 that litmus_runner users get
 * (hardware_concurrency engine workers; the stamp's engine_workers).
 *
 * References, checked after the timed phase:
 *  - SC and TSO: the outcome sets must equal those of the independent
 *    operational machines (enumerateOperationalSC / ...TSO).
 *  - WMM and WMM+spec: the outcome set, with every stored value
 *    renamed to its thread's slot number, must hash to a stored
 *    digest.  This is a golden value recorded from the engine, not an
 *    independent reference: it catches changes, not original errors.
 * Every pass must also repeat the first pass's outcomes and
 * deterministic counters exactly.
 */

#include <map>
#include <set>
#include <sstream>

#include "baseline/operational.hpp"
#include "enumerate/engine.hpp"
#include "fuzz/generator.hpp"
#include "litmus/parser.hpp"
#include "workloads.hpp"

namespace perf
{

namespace
{

using namespace satom;

constexpr int kThreads = 5;
constexpr int kReads = 2;
/** Set-up takes microseconds: repeat it for about 50 ms, so that the
 *  median is not taken while the CPU is still speeding up. */
constexpr int kSetups = 2000;

/** Golden digests of the slot-normalized WMM / WMM+spec outcomes. */
constexpr std::uint64_t kGoldenWmm = 0x56ad7cc09f1a6f25ull;
constexpr std::uint64_t kGoldenWmmSpec = 0x56ad7cc09f1a6f25ull;

struct Ring
{
    Program program;
    std::map<Val, Val> slotOf; ///< stored value -> thread index + 1
    std::vector<MemoryModel> models;
};

/** The ring as litmus text, the form a litmus_runner user feeds. */
std::string
ringText(std::uint32_t seed, std::map<Val, Val> &slotOf)
{
    fuzz::Rng rng(seed);
    std::ostringstream os;
    os << "name ring" << kThreads << "x" << kReads << "\nloc";
    for (int i = 0; i < kThreads; ++i)
        os << " s" << i;
    os << "\n";
    for (int i = 0; i < kThreads; ++i) {
        Val v = 0;
        while (v == 0 || slotOf.count(v))
            v = 1 + rng.range(1000);
        slotOf[v] = i + 1;
        os << "thread P" << i << "\n  st s" << i << ", " << v << "\n";
        for (int k = 1; k <= kReads; ++k)
            os << "  ld r" << k << ", s" << (i + k) % kThreads << "\n";
    }
    return os.str();
}

Ring
buildRing(std::uint32_t seed)
{
    Ring r;
    r.program = litmus::parseLitmus(ringText(seed, r.slotOf)).program;
    for (ModelId id :
         {ModelId::SC, ModelId::TSO, ModelId::WMM, ModelId::WMMSpec})
        r.models.push_back(makeModel(id));
    return r;
}

std::set<std::string>
keys(const std::vector<Outcome> &outcomes)
{
    std::set<std::string> out;
    for (const auto &o : outcomes)
        out.insert(o.key());
    return out;
}

/** Outcome-set digest with stored values renamed to slot numbers. */
std::uint64_t
normalizedDigest(const std::vector<Outcome> &outcomes,
                 const std::map<Val, Val> &slotOf)
{
    auto norm = [&](Val v) {
        const auto it = slotOf.find(v);
        return it == slotOf.end() ? v : it->second;
    };
    std::set<std::string> sorted;
    for (Outcome o : outcomes) {
        for (auto &regs : o.regs)
            for (auto &[reg, v] : regs)
                v = norm(v);
        for (auto &[a, v] : o.memory)
            v = norm(v);
        sorted.insert(o.key());
    }
    // 64-bit FNV-1a over the sorted keys, one per line; kept local so
    // the golden digest does not depend on the library's hashers.
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const auto &k : sorted)
        for (char c : k + "\n") {
            h ^= static_cast<unsigned char>(c);
            h *= 0x100000001b3ull;
        }
    return h;
}

} // namespace

WorkloadResult
runRingDeep(const RunConfig &cfg)
{
    WorkloadResult r;
    std::vector<SetupSample> setup;
    Ring ring;
    for (int i = 0; i < kSetups; ++i) {
        CpuPin pin(i * cfg.cpus / kSetups); // a block of reps per CPU
        const auto t0 = Clock::now();
        ring = buildRing(cfg.seed);
        setup.push_back({pin.cpu(), msSince(t0) / 1000});
    }

    EnumerationOptions opts;
    opts.numWorkers = cfg.engineWorkers; // 0 unless the self-test pins it

    std::vector<EnumerationResult> first(ring.models.size());
    stats::StatsRegistry firstPass;
    bool havePass = false;
    auto phase = [&](double seconds, Phase &ph) {
        const auto start = Clock::now();
        do {
            Pass pass;
            stats::StatsRegistry reg;
            pass.begin();
            for (std::size_t m = 0; m < ring.models.size(); ++m) {
                const auto t0 = Clock::now();
                EnumerationResult res;
                {
                    Span root("bench.job", static_cast<long>(m));
                    Span s("enumerate.enumerate");
                    res = enumerateBehaviors(ring.program, ring.models[m],
                                             opts);
                }
                pass.latencyMs.push_back(msSince(t0));
                ++pass.attempted;
                if (!res.complete)
                    ++pass.failed;
                else if (havePass && (keys(res.outcomes) !=
                                          keys(first[m].outcomes) ||
                                      !res.registry.deterministicEquals(
                                          first[m].registry)))
                    ++pass.failed;
                reg.merge(res.registry);
                if (!havePass)
                    first[m] = std::move(res);
            }
            pass.end();
            if (!havePass) {
                firstPass = reg;
                havePass = true;
            }
            ph.passes.push_back(std::move(pass));
        } while (msSince(start) < seconds * 1000);
    };

    Tracer tracer;
    Phase traced;
    Phase plain = timedPhases(cfg, r, tracer, traced, phase);
    r.attempted = plain.attempted() + traced.attempted();
    r.failed = plain.failed() + traced.failed();
    reportEndToEnd(r, plain, setup);

    // References, after the timed phase so they do not inflate it.
    std::ostringstream os;
    const auto sc = enumerateOperationalSC(ring.program);
    const auto tso = enumerateOperationalTSO(ring.program);
    const std::uint64_t wmm = normalizedDigest(first[2].outcomes, ring.slotOf);
    const std::uint64_t spec =
        normalizedDigest(first[3].outcomes, ring.slotOf);
    const bool okSc =
        sc.complete && keys(sc.outcomes) == keys(first[0].outcomes);
    const bool okTso =
        tso.complete && keys(tso.outcomes) == keys(first[1].outcomes);
    const bool okWmm = wmm == kGoldenWmm;
    const bool okSpec = spec == kGoldenWmmSpec;
    r.failed += !okSc + !okTso + !okWmm + !okSpec;
    r.attempted += 4;
    os << "references: SC vs operational " << (okSc ? "ok" : "MISMATCH")
       << ", TSO vs operational " << (okTso ? "ok" : "MISMATCH")
       << ", WMM golden " << (okWmm ? "ok" : "MISMATCH") << " (0x"
       << std::hex << wmm << ")" << ", WMM+spec golden "
       << (okSpec ? "ok" : "MISMATCH") << " (0x" << spec << ")"
       << std::dec << "; outcomes SC=" << first[0].outcomes.size()
       << " TSO=" << first[1].outcomes.size()
       << " WMM=" << first[2].outcomes.size()
       << " WMM+spec=" << first[3].outcomes.size() << "; "
       << plain.passes.size() + traced.passes.size() << " passes at "
       << engineWorkersUsed(cfg) << " engine workers";
    r.notes.push_back(os.str());

    reportEngineCounts(r.layers, firstPass);
    r.layers.set("baseline.operational_states",
                 static_cast<double>(sc.statesExplored + tso.statesExplored),
                 "count");
    r.layers.set("baseline.operational_steps",
                 static_cast<double>(sc.stepsExecuted + tso.stepsExecuted),
                 "count");
    if (cfg.trace) {
        reportSpans(r.layers, tracer, traced.attempted(),
                    {{"enumerate.enumerate", "enumerate.ms"}});
        const auto totals = tracer.totals();
        const double enumMs = totals.count("enumerate.enumerate")
                                  ? totals.at("enumerate.enumerate").totalMs
                                  : 0;
        const double tracedPasses = static_cast<double>(traced.attempted()) /
                                    static_cast<double>(ring.models.size());
        const double generated =
            r.layers.get("enumerate.states_generated") * tracedPasses;
        r.layers.set("enumerate.us_per_state_generated",
                     generated > 0 ? enumMs * 1000 / generated : 0, "us");
    }
    return r;
}

} // namespace perf
