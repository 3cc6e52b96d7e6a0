/**
 * @file
 * durable_campaign: the paper's durability transformation under crash
 * injection (runtime, flit, ds, hist, inject), with none of the check
 * engine. One query is one campaign seed: the durable sweep (FliT-CXL0
 * over every structure plus the queue under LWB; every case must pass)
 * and the unsound flit-original sweep (which must find violations and
 * shrinks them). The campaign is single-threaded, so it has only
 * 1-thread metrics, from one closed-loop client cycling a pool of
 * seeds drawn from the run's seed. Per-seed cost varies (~20%), so the
 * pool is large enough that its median barely depends on the seed.
 */

#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "bench.hh"
#include "fuzz/generate.hh"
#include "hist/checker.hh"
#include "inject/campaign.hh"
#include "obs/telemetry.hh"

namespace perfbench
{

namespace inject = cxl0::inject;

namespace
{

constexpr int kCampaignSetupReps = 9;
/** Campaign seeds per run, drawn from the run's seed. */
constexpr size_t kSeedPool = 48;
/** The seed of the warm-up campaign (the campaign's default), so
 *  that setup time does not depend on the run's seed. */
constexpr uint64_t kWarmupSeed = 1;
/** Queries every phase runs, however short its time. */
constexpr size_t kMinQueries = 4;

struct Query
{
    inject::CampaignReport durable, unsound;
    double seconds = 0;
};

inject::CampaignOptions
durableOptions(uint64_t seed)
{
    inject::CampaignOptions o;
    o.seed = seed;
    o.lwbStructure = inject::Structure::Queue;
    return o;
}

inject::CampaignOptions
unsoundOptions(uint64_t seed)
{
    inject::CampaignOptions o;
    o.seed = seed;
    o.modes = {cxl0::flit::PersistMode::FlitOriginal};
    return o;
}

/** Known answer: the durable sweep is clean, the unsound sweep's
 *  oracle is live, and neither sweep truncated or skipped a case. */
bool
verify(const Query &q)
{
    return q.durable.allDurablePass && q.unsound.violations > 0 &&
           q.durable.truncated + q.unsound.truncated == 0 &&
           q.durable.skipped + q.unsound.skipped == 0;
}

Query
runQuery(uint64_t seed, Spans *spans, uint64_t id)
{
    Query q;
    const auto t0 = Clock::now();
    {
        SpanScope root(spans, "query", 0, id);
        {
            SpanScope s(spans, "inject.runCampaign.durable", root.id(), id);
            q.durable = inject::runCampaign(durableOptions(seed));
        }
        SpanScope s(spans, "inject.runCampaign.unsound", root.id(), id);
        q.unsound = inject::runCampaign(unsoundOptions(seed));
    }
    q.seconds = secondsSince(t0);
    return q;
}

/**
 * Cycle the seed pool until `seconds` elapse (at least kMinQueries).
 * With a span recorder, each query runs under its own telemetry and
 * `traced` receives the campaign's own unit and shrink spans.
 */
Samples
runPhase(const std::vector<uint64_t> &seeds, double seconds, Spans *spans,
         Result &out, uint64_t &query_id, HostProbe &probe,
         const std::function<void(const Query &, const TraceTotals &)>
             &traced = {})
{
    Samples one;
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(seconds);
    for (size_t i = 0; i < kMinQueries || Clock::now() < deadline; ++i) {
        probe.tick();
        std::unique_ptr<cxl0::obs::Telemetry> tel;
        std::optional<cxl0::obs::ScopedTelemetry> scope;
        if (spans != nullptr) {
            cxl0::obs::TelemetryOptions o;
            o.trace = true;
            tel = std::make_unique<cxl0::obs::Telemetry>(o);
            scope.emplace(tel.get());
        }
        Query q = runQuery(seeds[i % seeds.size()], spans, ++query_id);
        scope.reset();
        out.query(verify(q));
        one.add(q.seconds);
        if (tel)
            traced(q, parseEngineTrace(tel->tracer().toJson()));
    }
    return one;
}

/**
 * Per-layer probes: runCase and the history checker timed directly, on
 * owner-crash cases spread over each structure's workload, in both
 * sweeps' modes. Each value is a mean over all probe cases (a single
 * case takes tens of microseconds).
 */
void
probeCases(const std::vector<uint64_t> &seeds, Result &out)
{
    const inject::CampaignOptions defaults;
    double case_us = 0, hist_us = 0, ops = 0, steps = 0;
    size_t n = 0;
    for (size_t j = 0; j < 4; ++j)
        for (cxl0::flit::PersistMode mode :
             {cxl0::flit::PersistMode::FlitCxl0,
              cxl0::flit::PersistMode::FlitOriginal})
            for (inject::Structure s : inject::allStructures()) {
                inject::CampaignCase base;
                base.structure = s;
                base.mode = mode;
                base.policy = inject::defaultPolicyFor(mode);
                base.seed = seeds[j];
                base.nodes = defaults.nodes;
                base.cellsPerNode = defaults.cellsPerNode;
                base.logCapacity = defaults.logCapacity;
                base.params = defaults.params;
                inject::generateOps(base);
                inject::Discovery d = inject::discover(base);
                auto spec = inject::makeSpec(s, base.logCapacity);
                cxl0::hist::LinOptions lopt;
                lopt.maxOps = defaults.limits.histMaxOps;
                const uint64_t span = d.totalSteps - d.setupSteps;
                for (uint64_t k = 0; k < 8 && k < span; ++k) {
                    inject::CampaignCase c = base;
                    c.hasCrash = true;
                    c.crashStep = d.setupSteps + k * span / 8;
                    const auto t0 = Clock::now();
                    inject::CaseOutcome o =
                        inject::runCase(c, defaults.limits);
                    case_us += secondsSince(t0) * 1e6;
                    if (cxl0::flit::modeIsDurable(mode) &&
                        o.verdict == inject::CaseOutcome::Verdict::Violation)
                        out.gateFailed("durable probe case violated");
                    const auto t1 = Clock::now();
                    cxl0::hist::checkDurablyLinearizable(o.history, *spec,
                                                         lopt);
                    hist_us += secondsSince(t1) * 1e6;
                    ops += static_cast<double>(o.history.size());
                    steps += static_cast<double>(d.totalSteps);
                    ++n;
                }
            }
    const double cases = static_cast<double>(n);
    out.set("inject.run_case_us", case_us / cases);
    out.set("hist.check_us", hist_us / cases);
    out.set("hist.ops_per_history", ops / cases);
    out.set("runtime.steps_per_case", steps / cases);
    out.infoNum("samples.probe_cases", cases);
}

} // namespace

void
runDurableCampaign(const Args &args, Result &out, Spans *spans,
                   HostProbe &probe)
{
    std::vector<double> setups;
    std::vector<uint64_t> seeds;
    for (int rep = 0; rep < kCampaignSetupReps; ++rep) {
        probe.tick();
        const auto t0 = Clock::now();
        SpanScope root(spans, "setup", 0, 0);
        seeds.clear();
        for (size_t i = 0; i < kSeedPool; ++i)
            seeds.push_back(cxl0::fuzz::scenarioSeed(args.seed, i));
        // The cold first query a one-shot campaign user pays.
        Query warm = runQuery(kWarmupSeed, spans, 0);
        setups.push_back(secondsSince(t0));
        if (!verify(warm))
            out.gateFailed("warm-up campaign differs from its known answer");
    }

    uint64_t query_id = 0;
    if (!args.trace) {
        Samples one =
            runPhase(seeds, args.seconds, nullptr, out, query_id, probe);
        setEndToEnd(out, probe, one.median(), median(setups));
        out.infoNum("qps_1t", one.qps());
        out.infoNum("samples_1t", static_cast<double>(one.count()));
        out.infoNum("p90_ms_1t", one.percentile(90));
        return;
    }

    Samples plain =
        runPhase(seeds, args.seconds / 2, nullptr, out, query_id, probe);
    const std::vector<inject::Structure> structures =
        inject::allStructures();
    std::map<std::string, std::vector<double>> sweep_ms;
    std::vector<double> shrink_ms, cases, violations, muted;
    auto traced_layers = [&](const Query &q, const TraceTotals &wt) {
        // Units run in order: the durable sweep's structures, the
        // queue under LWB, then the unsound sweep's structures.
        for (size_t u = 0; u < wt.unitUs.size() && u <= structures.size();
             ++u)
            sweep_ms[u < structures.size()
                         ? std::string("inject.sweep_ms.") +
                               inject::structureName(structures[u])
                         : std::string("inject.sweep_ms.queue_lwb")]
                .push_back(wt.unitUs[u] / 1e3);
        shrink_ms.push_back(wt.shrinkUs / 1e3);
        cases.push_back(
            static_cast<double>(q.durable.cases + q.unsound.cases));
        violations.push_back(static_cast<double>(q.unsound.violations));
        muted.push_back(static_cast<double>(q.durable.mutedPanics +
                                            q.unsound.mutedPanics));
    };
    Samples traced = runPhase(seeds, args.seconds / 2, spans, out,
                              query_id, probe, traced_layers);
    for (const auto &[metric, v] : sweep_ms)
        out.set(metric, median(v));
    out.set("inject.shrink_ms", median(shrink_ms));
    out.set("inject.cases", median(cases));
    out.set("inject.violations_unsound", median(violations));
    out.set("inject.muted_panics", median(muted));
    out.set("obs.trace_overhead_pct",
            100.0 * (traced.median() / plain.median() - 1.0));
    probeCases(seeds, out);
    out.infoNum("samples_1t",
                static_cast<double>(plain.count() + traced.count()));
}

} // namespace perfbench
