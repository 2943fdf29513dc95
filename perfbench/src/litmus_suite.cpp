/**
 * @file
 * litmus-suite: every bundled litmus test under all six models.
 *
 * Inputs are litmus *text*: each allTests() program rendered with
 * fuzz::toLitmusText plus every .litmus file in examples/litmus, in a
 * seed-shuffled order.  A pass parses every text again and runs all of
 * its (program, model) jobs, every program under all six models,
 * through one enumerateBatch call at min(4, nproc) workers with the
 * result cache off.  A batch returns all of its jobs at once, so every
 * job's latency is its pass's time (parse + batch).  One batch per
 * pass, rather than one per program, keeps the pool's start-up and
 * the batch's tail out of each job's cost, which made per-program
 * batches swing with every scheduling delay on a shared host.
 *
 * Reference: the paper's expected verdict (LitmusTest::expectedFor)
 * for every (program, model) pair that records one; every job must
 * also run to completion.
 */

#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "enumerate/engine.hpp"
#include "fuzz/emit.hpp"
#include "fuzz/generator.hpp"
#include "litmus/library.hpp"
#include "litmus/parser.hpp"
#include "workloads.hpp"

namespace perf
{

namespace
{

using namespace satom;

struct Input
{
    std::string name;
    std::string text;
    /** Reference for texts rendered from allTests(): the library
     *  test's own condition and expectations.  Files carry theirs. */
    std::optional<LitmusTest> library;
    /** Library inputs: parsed-text address -> library address.  The
     *  emitter lists locations in ascending order and the parser
     *  numbers them from 100 in that order, so a library test whose
     *  addresses are not 100, 101, ... comes back relabeled. */
    std::map<Addr, Addr> libraryAddr;
};

struct Suite
{
    std::vector<Input> inputs;
    std::vector<MemoryModel> models;
};

Suite
buildSuite(const std::string &root, std::uint32_t seed)
{
    Suite s;
    for (auto &t : litmus::allTests()) {
        Input in;
        in.name = t.name;
        in.text = fuzz::toLitmusText(t.program, t.name);
        const auto orig = t.program.locations();
        const auto back = litmus::parseLitmus(in.text).program.locations();
        if (orig.size() != back.size())
            throw std::runtime_error("litmus text round trip of " + t.name +
                                     " changed its locations");
        for (std::size_t i = 0; i < orig.size(); ++i)
            in.libraryAddr[back[i]] = orig[i];
        in.library = std::move(t);
        s.inputs.push_back(std::move(in));
    }
    std::vector<std::string> files;
    for (const auto &e : std::filesystem::directory_iterator(
             root + "/examples/litmus"))
        if (e.path().extension() == ".litmus")
            files.push_back(e.path().string());
    std::sort(files.begin(), files.end());
    for (const auto &f : files)
        s.inputs.push_back({std::filesystem::path(f).stem().string(),
                            readFile(f), std::nullopt, {}});
    // Seed-shuffled submission order (Fisher-Yates on the fuzzer's
    // xorshift, so the order is the same on every platform).
    fuzz::Rng rng(seed);
    for (std::size_t i = s.inputs.size(); i > 1; --i)
        std::swap(s.inputs[i - 1],
                  s.inputs[static_cast<std::size_t>(
                      rng.range(static_cast<int>(i)))]);
    for (ModelId id : allModels())
        s.models.push_back(makeModel(id));
    return s;
}

/** @p outcomes with parsed-text addresses (as locations and as
 *  pointer values) renamed back to the library test's addresses. */
std::vector<Outcome>
toLibraryAddrs(const std::vector<Outcome> &outcomes,
               const std::map<Addr, Addr> &addr)
{
    auto val = [&](Val v) {
        const auto it = addr.find(static_cast<Addr>(v));
        return it == addr.end() ? v : static_cast<Val>(it->second);
    };
    std::vector<Outcome> out;
    for (const auto &o : outcomes) {
        Outcome m;
        for (const auto &regs : o.regs) {
            auto &dst = m.regs.emplace_back();
            for (const auto &[reg, v] : regs)
                dst[reg] = val(v);
        }
        for (const auto &[a, v] : o.memory)
            m.memory[addr.count(a) ? addr.at(a) : a] = val(v);
        out.push_back(std::move(m));
    }
    return out;
}

/** One program's verdict check; returns the number of wrong jobs. */
long
checkProgram(const Input &in, const LitmusTest &parsed,
             const std::vector<MemoryModel> &models,
             const std::vector<EnumerationResult> &results, long &checked)
{
    const LitmusTest &ref = in.library ? *in.library : parsed;
    long wrong = 0;
    for (std::size_t m = 0; m < models.size(); ++m) {
        const auto &res = results[m];
        if (!res.complete) {
            ++wrong;
            continue;
        }
        const auto expect = ref.expectedFor(models[m].id);
        if (!expect)
            continue;
        ++checked;
        const bool seen =
            in.library ? ref.cond.observable(
                             toLibraryAddrs(res.outcomes, in.libraryAddr))
                       : ref.cond.observable(res.outcomes);
        if (seen != *expect)
            ++wrong;
    }
    return wrong;
}

constexpr int kSetups = 52;

} // namespace

WorkloadResult
runLitmusSuite(const RunConfig &cfg)
{
    WorkloadResult r;
    std::vector<SetupSample> setup;
    Suite suite;
    for (int i = 0; i < kSetups; ++i) {
        CpuPin pin(i * cfg.cpus / kSetups); // a block of reps per CPU
        const auto t0 = Clock::now();
        suite = buildSuite(cfg.root, cfg.seed);
        setup.push_back({pin.cpu(), msSince(t0) / 1000});
    }

    EnumerationOptions opts;
    opts.numWorkers = cfg.workers;

    stats::StatsRegistry firstPass;
    bool havePass = false;
    long checked = 0;
    auto phase = [&](double seconds, Phase &ph) {
        const auto t0 = Clock::now();
        do {
            Pass pass;
            std::vector<LitmusTest> parsed(suite.inputs.size());
            std::vector<EnumerationResult> results;
            pass.begin();
            {
                Span root("bench.pass");
                for (std::size_t i = 0; i < suite.inputs.size(); ++i) {
                    Span s("litmus.parse", static_cast<long>(i));
                    parsed[i] = litmus::parseLitmus(suite.inputs[i].text);
                }
                std::vector<EnumerationJob> jobs;
                for (const auto &p : parsed)
                    for (const auto &m : suite.models)
                        jobs.push_back({&p.program, &m});
                Span s("enumerate.batch");
                results = enumerateBatch(jobs, opts);
            }
            pass.end();
            pass.attempted = static_cast<long>(results.size());
            pass.latencyMs.assign(results.size(), pass.wallS * 1000);

            stats::StatsRegistry reg;
            const std::size_t nm = suite.models.size();
            for (std::size_t i = 0; i < suite.inputs.size(); ++i) {
                const std::vector<EnumerationResult> mine(
                    results.begin() + static_cast<long>(i * nm),
                    results.begin() + static_cast<long>((i + 1) * nm));
                long c = 0;
                pass.failed += checkProgram(suite.inputs[i], parsed[i],
                                            suite.models, mine, c);
                if (!havePass)
                    checked += c;
            }
            for (const auto &res : results)
                reg.merge(res.registry);
            if (!havePass) {
                firstPass = reg;
                havePass = true;
            } else if (!reg.deterministicEquals(firstPass)) {
                ++pass.failed; // passes must repeat exactly
            }
            ph.passes.push_back(std::move(pass));
        } while (msSince(t0) < seconds * 1000);
    };

    Tracer tracer;
    Phase traced;
    Phase plain = timedPhases(cfg, r, tracer, traced, phase);

    r.attempted = plain.attempted() + traced.attempted();
    r.failed = plain.failed() + traced.failed();
    reportEndToEnd(r, plain, setup);

    reportEngineCounts(r.layers, firstPass);
    if (cfg.trace) {
        reportSpans(r.layers, tracer, traced.attempted(),
                    {{"litmus.parse", "litmus.parse_ms"},
                     {"enumerate.batch", "enumerate.batch_ms"}});
        const auto totals = tracer.totals();
        const double batchMs = totals.count("enumerate.batch")
                                   ? totals.at("enumerate.batch").totalMs
                                   : 0;
        const double perPassJobs =
            static_cast<double>(suite.inputs.size() * suite.models.size());
        const double tracedPasses =
            static_cast<double>(traced.attempted()) / perPassJobs;
        const double generated =
            r.layers.get("enumerate.states_generated") * tracedPasses;
        r.layers.set("enumerate.us_per_state_generated",
                     generated > 0 ? batchMs * 1000 / generated : 0, "us");
    }

    std::ostringstream os;
    os << suite.inputs.size() << " programs x " << suite.models.size()
       << " models per pass, one batch; "
       << plain.passes.size() + traced.passes.size() << " passes; "
       << checked
       << " of " << suite.inputs.size() * suite.models.size()
       << " jobs per pass have a paper verdict";
    r.notes.push_back(os.str());
    return r;
}

} // namespace perf
