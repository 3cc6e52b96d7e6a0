/**
 * @file
 * The two deep workloads: one search per query. The untraced run
 * repeats the 1-thread search; the traced run alternates 1- and
 * 4-thread searches in pairs so both thread counts see the same host
 * state.
 *
 *   explore_crash_heavy  the heavy crash ring through lang::runScenario
 *                        at the default reduction (explorer dedup,
 *                        interning, frontier and stealing).
 *   refine_deep          check::checkRefinement, spec base vs impl
 *                        lwb over a uniform 2x1 NVMM system
 *                        (refinement's worker loop, frame interning,
 *                        depth-memo re-expansion).
 */

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>

#include "bench.hh"
#include "check/refinement.hh"
#include "known_answers.hh"
#include "lang/run.hh"
#include "lang/scenario.hh"
#include "obs/telemetry.hh"

namespace perfbench
{

using cxl0::check::CheckReport;
using cxl0::check::SearchStats;

namespace
{

constexpr double kMiB = 1024.0 * 1024.0;
/** Set-ups whose median is the reported setup_s. */
constexpr int kSetupReps = 3;

/** What one phase of interleaved queries measured. */
struct Phase
{
    Samples one, four;
    std::vector<SearchStats> stats1, stats4;
    /** Worker expand/sleep totals of the traced 4-thread queries. */
    TraceTotals trace4;
    /** Engine trace of the first traced 4-thread query. */
    std::string firstTrace4;
};

/** One deep workload: its public call and its known-answer check. */
struct Deep
{
    /** Name of the span around the public call. */
    const char *call;
    std::function<CheckReport(size_t threads)> query;
    std::function<bool(const CheckReport &)> verify;
};

/**
 * Run queries until `seconds` elapse (at least two rounds): 1-thread
 * only, or interleaved 1t/4t pairs when `four` is set. Each answer is
 * checked outside its query's timer.
 */
Phase
runPhase(const Deep &d, double seconds, bool four, Spans *spans,
         Result &out, uint64_t &query_id, HostProbe &probe)
{
    Phase ph;
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(seconds);
    for (size_t round = 0; round < 2 || Clock::now() < deadline;
         ++round) {
        const std::vector<size_t> order =
            !four ? std::vector<size_t>{1}
                  : round % 2 ? std::vector<size_t>{4, 1}
                              : std::vector<size_t>{1, 4};
        for (size_t threads : order) {
            probe.tick();
            const uint64_t q = ++query_id;
            std::unique_ptr<cxl0::obs::Telemetry> tel;
            std::optional<cxl0::obs::ScopedTelemetry> scope;
            if (spans != nullptr) {
                cxl0::obs::TelemetryOptions o;
                o.trace = true;
                // Room for a heavy search's steal and sleep events.
                o.ringCapacity = 1 << 18;
                tel = std::make_unique<cxl0::obs::Telemetry>(o);
                scope.emplace(tel.get());
            }
            const auto t0 = Clock::now();
            CheckReport rep;
            {
                SpanScope root(spans, "query", 0, q);
                SpanScope call(spans, d.call, root.id(), q);
                rep = d.query(threads);
            }
            const double s = secondsSince(t0);
            scope.reset();
            out.query(d.verify(rep));
            if (threads == 1) {
                ph.one.add(s);
                ph.stats1.push_back(rep.stats);
                continue;
            }
            ph.four.add(s);
            ph.stats4.push_back(rep.stats);
            if (tel) {
                std::string json = tel->tracer().toJson();
                TraceTotals wt = parseEngineTrace(json);
                ph.trace4.expandUs += wt.expandUs;
                ph.trace4.sleepUs += wt.sleepUs;
                if (ph.firstTrace4.empty())
                    ph.firstTrace4 = std::move(json);
            }
        }
    }
    return ph;
}

/** Median over queries of one SearchStats field. */
template <class F>
double
medianOf(const std::vector<SearchStats> &v, F field)
{
    std::vector<double> xs;
    for (const SearchStats &s : v)
        xs.push_back(static_cast<double>(field(s)));
    return median(xs);
}

/**
 * The shared run: setup (timed, kSetupReps times), then either the
 * untraced 1-thread phase (end-to-end metrics) or an untraced half and
 * a traced half of interleaved 1t/4t pairs (per-layer metrics, the
 * 4-thread speedup and the tracing overhead).
 */
template <class Setup, class Layers>
void
runDeep(const Args &args, Result &out, Spans *spans, HostProbe &probe,
        Setup setup, Layers layers)
{
    std::vector<double> setups;
    std::optional<Deep> deep;
    for (int i = 0; i < kSetupReps; ++i) {
        probe.tick();
        const auto t0 = Clock::now();
        SpanScope root(spans, "setup", 0, 0);
        deep.emplace(setup(spans, root.id()));
        // The cold first query a one-shot user pays.
        CheckReport warm;
        {
            SpanScope call(spans, deep->call, root.id(), 0);
            warm = deep->query(1);
        }
        setups.push_back(secondsSince(t0));
        if (!deep->verify(warm))
            out.gateFailed("warm-up query differs from its known answer");
    }

    uint64_t query_id = 0;
    if (!args.trace) {
        Phase ph = runPhase(*deep, args.seconds, false, nullptr, out,
                            query_id, probe);
        setEndToEnd(out, probe, ph.one.median(), median(setups));
        out.infoNum("qps_1t", ph.one.qps());
        out.infoNum("samples_1t", static_cast<double>(ph.one.count()));
        out.infoNum("max_ms_1t", ph.one.percentile(100));
        return;
    }

    Phase plain = runPhase(*deep, args.seconds / 2, true, nullptr, out,
                           query_id, probe);
    Phase traced = runPhase(*deep, args.seconds / 2, true, spans, out,
                            query_id, probe);
    out.set("obs.trace_overhead_pct",
            100.0 * (traced.one.median() / plain.one.median() - 1.0));
    out.set("check.engine.speedup_4t",
            plain.one.median() / plain.four.median());
    layers(plain, traced, out);
    out.infoNum("samples_1t",
                static_cast<double>(plain.one.count() +
                                    traced.one.count()));
    out.infoNum("samples_4t",
                static_cast<double>(plain.four.count() +
                                    traced.four.count()));
    out.infoNum("p50_ms_4t_untraced", plain.four.median());
    out.infoNum("p50_ms_1t_untraced", plain.one.median());
    if (!traced.firstTrace4.empty()) {
        const std::string path = args.outDir + "/" + args.workload +
                                 "-seed" + std::to_string(args.seed) +
                                 ".engine.json";
        std::ofstream(path) << traced.firstTrace4;
        out.infoStr("engine_trace", path);
    }
}

} // namespace

void
runExploreCrashHeavy(const Args &args, Result &out, Spans *spans,
                     HostProbe &probe)
{
    const std::string path =
        args.root + "/perfbench/inputs/crash_heavy.cxl0";
    auto setup = [&](Spans *sp, uint64_t parent) {
        std::string text = readFile(path);
        std::shared_ptr<cxl0::lang::Scenario> sc;
        {
            SpanScope s(sp, "lang.parseScenario", parent, 0);
            sc = std::make_shared<cxl0::lang::Scenario>(
                parseOrThrow(text, path));
        }
        Deep d;
        d.call = "lang.runScenario";
        d.query = [sc](size_t threads) {
            cxl0::lang::RunOptions o;
            o.numThreads = threads;
            cxl0::lang::RunResult r = cxl0::lang::runScenario(*sc, o);
            if (!r.error.empty())
                throw std::runtime_error(r.error);
            return std::move(r.report);
        };
        d.verify = [](const CheckReport &r) {
            return !r.truncated && !r.timedOut &&
                   r.outcomes.size() == kHeavyOutcomes &&
                   digestOutcomes(r.outcomes) == kHeavyDigest;
        };
        return d;
    };
    auto layers = [](const Phase &plain, const Phase &traced,
                     Result &o) {
        const SearchStats &s = plain.stats1.front();
        o.set("check.explorer.configs_visited",
              static_cast<double>(s.configsVisited));
        o.set("check.explorer.configs_interned",
              static_cast<double>(s.configsInterned));
        o.set("check.explorer.revisit_ratio",
              static_cast<double>(s.configsVisited) /
                  static_cast<double>(s.configsInterned));
        o.set("check.explorer.configs_per_s",
              static_cast<double>(s.configsVisited) /
                  medianOf(plain.stats1,
                           [](const SearchStats &x) { return x.seconds; }));
        o.set("check.explorer.ample_skipped",
              static_cast<double>(s.ampleSkipped));
        o.set("check.explorer.crash_ample_skipped",
              static_cast<double>(s.crashAmpleSkipped));
        o.set("check.explorer.tau_skipped",
              static_cast<double>(s.tauMovesSkipped));
        o.set("model.states_interned",
              static_cast<double>(s.statesInterned));
        o.set("check.engine.peak_visited_mb",
              static_cast<double>(s.peakVisitedBytes) / kMiB);
        o.set("check.engine.table_mb",
              static_cast<double>(s.tableBytes) / kMiB);
        std::vector<SearchStats> all4 = plain.stats4;
        all4.insert(all4.end(), traced.stats4.begin(),
                    traced.stats4.end());
        o.set("check.engine.steal_success_ratio_4t",
              medianOf(all4, [](const SearchStats &x) {
                  return x.stealsAttempted
                             ? static_cast<double>(x.stealsSucceeded) /
                                   static_cast<double>(x.stealsAttempted)
                             : 0.0;
              }));
        o.set("check.engine.inbox_batches_4t",
              medianOf(all4, [](const SearchStats &x) {
                  return x.inboxBatches;
              }));
        o.set("check.engine.worker_wait_share_4t",
              traced.trace4.expandUs > 0
                  ? traced.trace4.sleepUs / traced.trace4.expandUs
                  : 0.0);
    };
    runDeep(args, out, spans, probe, setup, layers);
}

void
runRefineDeep(const Args &args, Result &out, Spans *spans,
              HostProbe &probe)
{
    using namespace cxl0;
    auto setup = [](Spans *, uint64_t) {
        struct Models
        {
            model::SystemConfig cfg =
                model::SystemConfig::uniform(2, 1, true);
            model::Cxl0Model spec{cfg, model::ModelVariant::Base};
            model::Cxl0Model impl{cfg, model::ModelVariant::Lwb};
            check::Alphabet alphabet = check::Alphabet::standard(cfg);
        };
        auto m = std::make_shared<Models>();
        Deep d;
        d.call = "check.checkRefinement";
        d.query = [m](size_t threads) {
            check::CheckRequest req;
            req.maxDepth = kRefineDepth;
            req.numThreads = threads;
            return check::checkRefinement(m->spec, m->impl, m->alphabet,
                                          req);
        };
        d.verify = [](const CheckReport &r) {
            return r.verdict != check::CheckVerdict::Fail && !r.timedOut &&
                   r.stats.configsInterned == kRefinePairsInterned;
        };
        return d;
    };
    auto layers = [](const Phase &plain, const Phase &traced,
                     Result &o) {
        const SearchStats &s = plain.stats1.front();
        o.set("check.refinement.pairs_visited_1t",
              static_cast<double>(s.configsVisited));
        std::vector<SearchStats> all4 = plain.stats4;
        all4.insert(all4.end(), traced.stats4.begin(),
                    traced.stats4.end());
        size_t lo = SIZE_MAX, hi = 0;
        for (const SearchStats &x : all4) {
            lo = std::min(lo, x.configsVisited);
            hi = std::max(hi, x.configsVisited);
        }
        o.set("check.refinement.pairs_visited_4t_min",
              static_cast<double>(lo));
        o.set("check.refinement.pairs_visited_4t_max",
              static_cast<double>(hi));
        o.set("check.refinement.pairs_interned",
              static_cast<double>(s.configsInterned));
        o.set("check.refinement.visits_per_pair",
              static_cast<double>(s.configsVisited) /
                  static_cast<double>(s.configsInterned));
        o.set("check.refinement.frames_interned",
              static_cast<double>(s.framesInterned));
        o.set("check.refinement.pairs_per_s",
              static_cast<double>(s.configsVisited) /
                  medianOf(plain.stats1,
                           [](const SearchStats &x) { return x.seconds; }));
        o.set("check.refinement.peak_visited_mb",
              static_cast<double>(s.peakVisitedBytes) / kMiB);
    };
    runDeep(args, out, spans, probe, setup, layers);
}

} // namespace perfbench
