/**
 * @file
 * The benchmark's oracles. They run in their own process, so their
 * time and memory never reach a workload's metrics.
 *
 *   --oracle stream     reference outcome digests of scenario_stream's
 *                       generated scenarios (Explorer::checkReference),
 *                       one "index digest" line each.
 *   --oracle self-test  recomputes the stored known answers: the heavy
 *                       ring's outcome set through checkReference
 *                       (~7 s, ~1 GB) and the refinement verdict through
 *                       checkRefinementReference.
 */

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "bench.hh"
#include "check/explorer.hh"
#include "check/refinement.hh"
#include "fuzz/generate.hh"
#include "known_answers.hh"
#include "lang/scenario.hh"

namespace perfbench
{

namespace
{

cxl0::check::CheckReport
referenceOutcomes(const cxl0::lang::Scenario &sc)
{
    cxl0::model::Cxl0Model model(sc.config(), sc.variant);
    return cxl0::check::Explorer(model, sc.program, sc.request)
        .checkReference();
}

} // namespace

int
oracleStream(const Args &args)
{
    if (args.refs.empty())
        throw std::runtime_error("--oracle stream needs --refs <file>");
    std::ofstream out(args.refs);
    for (size_t i = 0; i < kStreamGenerated; ++i) {
        // The same generate -> dump -> parse path the workload takes.
        cxl0::lang::Scenario sc = parseOrThrow(
            cxl0::lang::dumpScenario(cxl0::fuzz::generateScenario(
                cxl0::fuzz::scenarioSeed(args.seed, i))),
            "generated-" + std::to_string(i));
        if (sc.program.threads.empty())
            continue;
        cxl0::check::CheckReport ref = referenceOutcomes(sc);
        if (ref.truncated || ref.timedOut)
            continue; // no reference: the workload fails this query
        out << i << " " << hex64(digestOutcomes(ref.outcomes)) << "\n";
    }
    return out ? 0 : 1;
}

int
oracleSelfTest(const Args &args)
{
    using namespace cxl0;
    bool ok = true;

    const std::string path =
        args.root + "/perfbench/inputs/crash_heavy.cxl0";
    lang::Scenario sc = parseOrThrow(readFile(path), path);
    check::CheckReport ref = referenceOutcomes(sc);
    const uint64_t digest = digestOutcomes(ref.outcomes);
    const bool heavy_ok = !ref.truncated &&
                          ref.outcomes.size() == kHeavyOutcomes &&
                          digest == kHeavyDigest;
    std::printf("explore_crash_heavy: reference %zu outcomes, digest %s "
                "(stored %zu, %s): %s\n",
                ref.outcomes.size(), hex64(digest).c_str(), kHeavyOutcomes,
                hex64(kHeavyDigest).c_str(), heavy_ok ? "ok" : "MISMATCH");
    ok = ok && heavy_ok;

    model::SystemConfig cfg = model::SystemConfig::uniform(2, 1, true);
    model::Cxl0Model spec(cfg, model::ModelVariant::Base);
    model::Cxl0Model impl(cfg, model::ModelVariant::Lwb);
    check::Alphabet alphabet = check::Alphabet::standard(cfg);
    check::CheckRequest req;
    req.maxDepth = kRefineDepth;
    check::CheckReport rref =
        check::checkRefinementReference(spec, impl, alphabet, req);
    const bool verdict_ok = rref.verdict != check::CheckVerdict::Fail;
    std::printf("refine_deep: reference verdict %s: %s\n",
                check::checkVerdictName(rref.verdict),
                verdict_ok ? "ok" : "MISMATCH");
    ok = ok && verdict_ok;
    for (size_t threads : {1, 4, 4, 4}) {
        req.numThreads = threads;
        check::CheckReport r =
            check::checkRefinement(spec, impl, alphabet, req);
        const bool pairs_ok =
            r.verdict == rref.verdict &&
            r.stats.configsInterned == kRefinePairsInterned;
        std::printf("refine_deep: %zut verdict %s, %zu pairs interned "
                    "(stored %zu), %zu visits: %s\n",
                    threads, check::checkVerdictName(r.verdict),
                    r.stats.configsInterned, kRefinePairsInterned,
                    r.stats.configsVisited, pairs_ok ? "ok" : "MISMATCH");
        ok = ok && pairs_ok;
    }

    std::printf("RESULT: %s\n", ok ? "known answers reproduced"
                                    : "KNOWN-ANSWER MISMATCH");
    return ok ? 0 : 1;
}

} // namespace perfbench
