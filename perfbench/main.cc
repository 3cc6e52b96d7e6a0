/**
 * @file
 * cxl0bench: one workload of the CXL0 checker benchmark per process.
 *
 *   cxl0bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--root <checkout>] [--out-dir <dir>] [--refs <file>]
 *             [--commit <id>]
 *   cxl0bench --oracle stream --seed <n> --refs <file>
 *   cxl0bench --oracle self-test
 *
 * The workload process prints an info line (host, build, seed, sample
 * counts, calibration) and, last, the result line. perfbench/run.py
 * builds this binary, runs the oracle processes, and calls it.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>

#include <unistd.h>

#include "bench.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace perfbench;

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--root <dir>] [--out-dir <dir>] "
                 "[--refs <file>] [--commit <id>]\n"
                 "       %s --oracle stream --seed <n> --refs <file>\n"
                 "       %s --oracle self-test\n",
                 argv0, argv0, argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    std::string oracle;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(argv[0]);
        std::string v = argv[++i];
        if (a == "--workload")
            args.workload = v;
        else if (a == "--seed")
            args.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            args.seconds = std::strtod(v.c_str(), nullptr);
        else if (a == "--trace" && (v == "0" || v == "1"))
            args.trace = v == "1";
        else if (a == "--root")
            args.root = v;
        else if (a == "--out-dir")
            args.outDir = v;
        else if (a == "--refs")
            args.refs = v;
        else if (a == "--commit")
            args.commit = v;
        else if (a == "--oracle")
            oracle = v;
        else
            return usage(argv[0]);
    }

    try {
        if (oracle == "stream")
            return oracleStream(args);
        if (oracle == "self-test")
            return oracleSelfTest(args);
        if (!oracle.empty())
            return usage(argv[0]);

        void (*run)(const Args &, Result &, Spans *, HostProbe &) =
            nullptr;
        if (args.workload == "explore_crash_heavy")
            run = runExploreCrashHeavy;
        else if (args.workload == "refine_deep")
            run = runRefineDeep;
        else if (args.workload == "scenario_stream")
            run = runScenarioStream;
        else if (args.workload == "durable_campaign")
            run = runDurableCampaign;
        if (run == nullptr || args.seconds <= 0)
            return usage(argv[0]);
        std::filesystem::create_directories(args.outDir);

        Result out;
        Spans spans;
        HostProbe probe;
        const double calib_start = calibrateMs(6);
        run(args, out, args.trace ? &spans : nullptr, probe);
        const double calib_end = calibrateMs(6);
        probe.report(out);
        if (args.trace)
            out.set("host.calib_ms", (calib_start + calib_end) / 2);

        out.infoStr("workload", args.workload);
        out.infoNum("seed", static_cast<double>(args.seed));
        out.infoNum("seconds", args.seconds);
        out.infoNum("trace", args.trace ? 1 : 0);
        out.infoNum("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
        out.infoStr("build_type", PERFBENCH_BUILD_TYPE);
        out.infoStr("compiler", PERFBENCH_COMPILER);
        out.infoStr("commit", args.commit);
        out.infoNum("calib_ms_start", calib_start);
        out.infoNum("calib_ms_end", calib_end);
        out.infoNum("attempted", static_cast<double>(out.attempted));
        out.infoNum("failed", static_cast<double>(out.failed));

        if (args.trace) {
            const std::string path = args.outDir + "/" + args.workload +
                                     "-seed" + std::to_string(args.seed) +
                                     ".spans.json";
            spans.writeJson(path);
            out.infoStr("span_trace", path);
            // Self time per span name: wall minus what children cover.
            std::string self = "{";
            for (const auto &[name, t] : spans.totals()) {
                char buf[160];
                std::snprintf(buf, sizeof buf,
                              "%s\"%s\": {\"calls\": %zu, \"wall_ms\": "
                              "%.3f, \"self_ms\": %.3f}",
                              self.size() > 1 ? ", " : "", name.c_str(),
                              t.calls, t.wallUs / 1e3, t.selfUs / 1e3);
                self += buf;
            }
            out.info("span_self_time", self + "}");
        }

        std::printf("%s\n", out.infoLine().c_str());
        std::printf("%s\n", out.resultLine(args.trace).c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "cxl0bench: %s\n", e.what());
        return 1;
    }
}
