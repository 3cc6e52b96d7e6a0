/**
 * @file
 * scenario_stream: the explorer (and the feasibility, inclusion and
 * refinement routes) used shallow and many times. The pool is the
 * anchored litmus corpus plus kStreamGenerated fuzz scenarios drawn
 * from the run's seed; each is dumped and parsed in setup, then the
 * timed phase cycles the pool through lang::runScenario at 1 worker
 * thread (the traced run adds a 4-thread query after or before each,
 * alternating). Per-search fixed cost dominates here, not the dedup
 * hot loop.
 */

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "bench.hh"
#include "fuzz/generate.hh"
#include "lang/run.hh"
#include "lang/scenario.hh"
#include "obs/telemetry.hh"

namespace perfbench
{

namespace lang = cxl0::lang;

namespace
{

constexpr int kStreamSetupReps = 5;

struct Item
{
    std::string name;
    lang::Scenario sc;
    /** Generated (checked against the reference explorer) rather
     *  than an anchored corpus file. */
    bool generated = false;
    /** Reference outcome digest; unset when the oracle had none. */
    std::optional<uint64_t> refDigest;
};

struct Pool
{
    std::vector<Item> items;
    /** Aggregated per-scenario costs of building the pool. */
    double parseUs = 0;
    double generateUs = 0;
};

/** Reference digests written by `--oracle stream`, by pool index. */
std::map<size_t, uint64_t>
readRefs(const std::string &path)
{
    std::map<size_t, uint64_t> refs;
    std::istringstream in(readFile(path));
    size_t index = 0;
    std::string digest;
    while (in >> index >> digest)
        refs[index] = std::stoull(digest, nullptr, 16);
    return refs;
}

Pool
buildPool(const Args &args, const std::map<size_t, uint64_t> &refs,
          Spans *spans, uint64_t parent)
{
    Pool pool;
    std::vector<std::string> files;
    for (const auto &e : std::filesystem::directory_iterator(
             args.root + "/corpus/litmus"))
        if (e.path().extension() == ".cxl0")
            files.push_back(e.path().string());
    std::sort(files.begin(), files.end());
    std::vector<std::string> texts;
    for (const std::string &f : files)
        texts.push_back(readFile(f));

    std::vector<lang::Scenario> generated;
    {
        SpanScope s(spans, "fuzz.generateScenario", parent, 0);
        const auto t0 = Clock::now();
        for (size_t i = 0; i < kStreamGenerated; ++i)
            generated.push_back(cxl0::fuzz::generateScenario(
                cxl0::fuzz::scenarioSeed(args.seed, i)));
        pool.generateUs = secondsSince(t0) * 1e6 / kStreamGenerated;
    }
    {
        SpanScope s(spans, "lang.dumpScenario", parent, 0);
        for (const lang::Scenario &g : generated)
            texts.push_back(lang::dumpScenario(g));
    }
    SpanScope s(spans, "lang.parseScenario", parent, 0);
    const auto t0 = Clock::now();
    for (size_t i = 0; i < texts.size(); ++i) {
        Item it;
        it.generated = i >= files.size();
        it.name = it.generated
                      ? "generated-" + std::to_string(i - files.size())
                      : files[i];
        it.sc = parseOrThrow(texts[i], it.name);
        if (it.generated) {
            auto ref = refs.find(i - files.size());
            if (ref != refs.end())
                it.refDigest = ref->second;
        }
        pool.items.push_back(std::move(it));
    }
    pool.parseUs = secondsSince(t0) * 1e6 / static_cast<double>(texts.size());
    return pool;
}

/** Known answer: corpus anchors hold; generated sets match the
 *  reference explorer's. Truncation or a timeout fails the query. */
bool
verify(const Item &it, const lang::RunResult &r)
{
    if (!r.error.empty() || !r.pass || r.report.timedOut)
        return false;
    if (it.generated)
        return it.refDigest && !r.report.truncated &&
               digestOutcomes(r.report.outcomes) == *it.refDigest;
    return true;
}

const char *
routeMetric(lang::CheckerKind k)
{
    switch (k) {
      case lang::CheckerKind::Feasible: return "check.trace.query_us";
      case lang::CheckerKind::Inclusion: return "check.simulation.query_us";
      case lang::CheckerKind::Refinement:
        return "check.refinement.query_us";
      default: return "check.explorer.query_us";
    }
}

struct Phase
{
    Samples one, four;
    std::vector<double> search1Us, search4Us;
    double driverUs = 0;
    std::map<std::string, std::vector<double>> routeUs;
};

lang::RunResult
runOne(const Item &it, size_t threads, Spans *spans, uint64_t q,
       double *seconds)
{
    lang::RunOptions o;
    o.numThreads = threads;
    const auto t0 = Clock::now();
    lang::RunResult r;
    {
        SpanScope root(spans, "query", 0, q);
        SpanScope call(spans, "lang.runScenario", root.id(), q);
        r = lang::runScenario(it.sc, o);
    }
    *seconds = secondsSince(t0);
    return r;
}

/** Cycle the pool until `seconds` elapse (at least one pass); with
 *  `four`, each scenario also runs at 4 threads, order alternating. */
Phase
runPhase(const Pool &pool, double seconds, bool four, Spans *spans,
         Result &out, uint64_t &query_id, HostProbe &probe)
{
    Phase ph;
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(seconds);
    size_t k = 0;
    while (k < pool.items.size() || Clock::now() < deadline) {
        probe.tick();
        const Item &it = pool.items[k % pool.items.size()];
        const std::vector<size_t> order =
            !four ? std::vector<size_t>{1}
                  : k % 2 ? std::vector<size_t>{4, 1}
                          : std::vector<size_t>{1, 4};
        for (size_t threads : order) {
            std::unique_ptr<cxl0::obs::Telemetry> tel;
            std::optional<cxl0::obs::ScopedTelemetry> scope;
            if (spans != nullptr) {
                cxl0::obs::TelemetryOptions o;
                o.trace = true;
                o.ringCapacity = 1 << 10;
                tel = std::make_unique<cxl0::obs::Telemetry>(o);
                scope.emplace(tel.get());
            }
            double s = 0;
            lang::RunResult r = runOne(it, threads, spans, ++query_id, &s);
            scope.reset();
            out.query(verify(it, r));
            const double search_us = r.report.stats.seconds * 1e6;
            if (threads == 1) {
                ph.one.add(s);
                ph.search1Us.push_back(search_us);
                ph.driverUs += s * 1e6 - search_us;
                ph.routeUs[routeMetric(r.checker)].push_back(s * 1e6);
            } else {
                ph.four.add(s);
                ph.search4Us.push_back(search_us);
            }
        }
        ++k;
    }
    return ph;
}

} // namespace

void
runScenarioStream(const Args &args, Result &out, Spans *spans,
                  HostProbe &probe)
{
    std::map<size_t, uint64_t> refs;
    if (args.refs.empty())
        out.gateFailed("no reference outcome file (--refs)");
    else
        refs = readRefs(args.refs);

    std::vector<double> setups, parse_us, generate_us;
    std::optional<Pool> pool;
    for (int rep = 0; rep < kStreamSetupReps; ++rep) {
        probe.tick();
        const auto t0 = Clock::now();
        SpanScope root(spans, "setup", 0, 0);
        pool.emplace(buildPool(args, refs, spans, root.id()));
        // The untimed warm-up pass: every scenario's cold first query.
        for (const Item &it : pool->items) {
            double s = 0;
            if (!verify(it, runOne(it, 1, nullptr, 0, &s)))
                out.gateFailed("warm-up: " + it.name +
                               " differs from its known answer");
        }
        setups.push_back(secondsSince(t0));
        parse_us.push_back(pool->parseUs);
        generate_us.push_back(pool->generateUs);
    }
    out.infoNum("pool_scenarios", static_cast<double>(pool->items.size()));

    uint64_t query_id = 0;
    if (!args.trace) {
        Phase ph = runPhase(*pool, args.seconds, false, nullptr, out,
                            query_id, probe);
        setEndToEnd(out, probe, ph.one.median(), median(setups));
        out.infoNum("qps_1t", ph.one.qps());
        out.infoNum("samples_1t", static_cast<double>(ph.one.count()));
        out.infoNum("p99_ms_1t", ph.one.percentile(99));
        return;
    }

    Phase plain = runPhase(*pool, args.seconds / 2, true, nullptr, out,
                           query_id, probe);
    Phase traced = runPhase(*pool, args.seconds / 2, true, spans, out,
                            query_id, probe);
    out.set("obs.trace_overhead_pct",
            100.0 * (traced.one.median() / plain.one.median() - 1.0));
    out.set("lang.parse_us", median(parse_us));
    out.set("fuzz.generate_us", median(generate_us));
    out.set("lang.driver_us",
            plain.driverUs / static_cast<double>(plain.one.count()));
    const double s1 = median(plain.search1Us), s4 = median(plain.search4Us);
    out.set("check.search_us_1t", s1);
    out.set("check.search_us_4t", s4);
    out.set("check.fixed_cost_4t_us", s4 - s1);
    for (const auto &[metric, v] : plain.routeUs) {
        out.set(metric, median(v));
        out.infoNum(std::string("samples.") + metric,
                    static_cast<double>(v.size()));
    }
    out.infoNum("samples_1t", static_cast<double>(plain.one.count()));
    out.infoNum("samples_4t", static_cast<double>(plain.four.count()));
    out.infoNum("p50_ms_4t_untraced", plain.four.median());
    out.infoNum("p99_ms_4t_untraced", plain.four.percentile(99));
}

} // namespace perfbench
