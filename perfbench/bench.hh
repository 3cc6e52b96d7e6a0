/**
 * @file
 * Shared harness of the CXL0 checker benchmark: arguments, per-query
 * samples, the result record, host calibration, and the in-memory span
 * recorder of traced runs.
 *
 * Every workload runs in its own process, closed loop from a single
 * client, and prints one result line. The benchmark measures each layer from
 * outside: it times calls into the layer's public functions and reads
 * the SearchStats / CheckReport / CampaignReport fields they return.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "check/engine.hh"
#include "lang/scenario.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Command-line arguments of one workload process. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Checkout root: inputs and the litmus corpus resolve from it. */
    std::string root = ".";
    /** Where span traces and reference files go. */
    std::string outDir = ".bench_out";
    /** Reference outcome digests (scenario_stream); from --oracle. */
    std::string refs;
    /** Source identity recorded in the output (commit or digest). */
    std::string commit = "unknown";
};

/** Latency samples of one query class, in milliseconds. */
struct Samples
{
    std::vector<double> ms;
    /** Wall seconds the class spent in its timed queries. */
    double busySeconds = 0.0;

    void add(double seconds)
    {
        ms.push_back(seconds * 1e3);
        busySeconds += seconds;
    }
    size_t count() const { return ms.size(); }
    /** Linear-interpolated percentile, p in [0, 100]; 0 when empty. */
    double percentile(double p) const;
    double median() const { return percentile(50.0); }
    /** Queries completed per busy wall second. */
    double qps() const
    {
        return busySeconds > 0 ? static_cast<double>(ms.size()) /
                                     busySeconds
                               : 0.0;
    }
};

/** Median of a vector of values (0 when empty). */
double median(std::vector<double> v);

/**
 * The output of one run: the gated metrics, the correctness tally,
 * and free-form run information (host, build, sample counts, tails).
 */
class Result
{
  public:
    /** Set a metric; its unit comes from the metric table. */
    void set(const std::string &name, double value);
    void info(const std::string &key, const std::string &json_value);
    void infoNum(const std::string &key, double value);
    void infoStr(const std::string &key, const std::string &value);

    /** Count one query against its known answer. */
    void query(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }
    /** A whole-run gate (not a query) that did not hold. */
    void gateFailed(const std::string &what);

    /** Fill every metric of the run's kind that no layer set with 0
     *  (an idle layer) and return the final result line. */
    std::string resultLine(bool trace);
    std::string infoLine() const;

    size_t attempted = 0;
    size_t failed = 0;
    bool gatesHeld = true;

  private:
    std::map<std::string, double> metrics_;
    std::vector<std::pair<std::string, std::string>> info_;
};

/** A fixed integer loop; its wall time tracks host speed. `scale`
 *  multiplies its length (1 is ~4 ms on a 2.1 GHz Xeon vCPU). */
double calibrateMs(int scale);

/** A fixed hash-table churn over 8 MiB; tracks memory contention. */
double memoryProbeMs();

/**
 * Host speed, sampled through a run: both probes, run between queries
 * (never inside a query's timer), at most every 0.2 s.
 *
 * On a shared host the speed of identical work drifts by up to 50%
 * over minutes. The gated times are reported at a reference host
 * speed: measured time × 3.0 ms / (geometric mean of the run's median
 * probe times). Raw times stay in the info line.
 */
class HostProbe
{
  public:
    /** Probe if 0.2 s have passed since the last probe. */
    void tick();
    /** Reference over the run's probe time; 1 when never probed. */
    double factor() const;
    void report(Result &out) const;

  private:
    Clock::time_point last_{};
    Samples cpu_, mem_;
};


/** This process's high-water RSS in MiB (getrusage). */
double peakRssMb();

/** Order-sensitive FNV-1a digest of an outcome set. */
uint64_t digestOutcomes(const std::set<cxl0::check::Outcome> &outcomes);

/** Hex form of a digest, as the known-answer files store it. */
std::string hex64(uint64_t v);

/**
 * In-memory spans the benchmark opens around each public call, from
 * the benchmark's one client thread. Each span carries its parent and
 * the query id; nothing is written until writeJson() at exit.
 */
class Spans
{
  public:
    /** Per-name totals: calls, wall, and self time (wall minus the
     *  part of the interval the span's children cover). */
    struct Totals
    {
        size_t calls = 0;
        double wallUs = 0;
        double selfUs = 0;
    };

    uint64_t open(const char *name, uint64_t parent, uint64_t query);
    void close(uint64_t id);

    std::map<std::string, Totals> totals() const;
    bool writeJson(const std::string &path) const;

  private:
    struct Span
    {
        const char *name = nullptr;
        uint64_t id = 0;
        uint64_t parent = 0;
        uint64_t query = 0;
        double startUs = 0;
        double endUs = 0;
    };

    double nowUs() const;

    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
};

/** RAII span; a no-op when `spans` is null (untraced phases). */
class SpanScope
{
  public:
    SpanScope(Spans *spans, const char *name, uint64_t parent,
              uint64_t query)
        : spans_(spans),
          id_(spans != nullptr ? spans->open(name, parent, query) : 0)
    {
    }
    ~SpanScope()
    {
        if (spans_ != nullptr)
            spans_->close(id_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    uint64_t id() const { return id_; }

  private:
    Spans *spans_;
    uint64_t id_;
};

/** Span totals read from one obs::Tracer trace (Chrome JSON). */
struct TraceTotals
{
    /** Explorer/refinement worker spans: lifetime and sleeping. */
    double expandUs = 0;
    double sleepUs = 0;
    /** Wall time of each `campaign:unit` span, in trace order. */
    std::vector<double> unitUs;
    double shrinkUs = 0;
};
TraceTotals parseEngineTrace(const std::string &json);

/** Fuzz scenarios scenario_stream adds to the litmus corpus. */
constexpr size_t kStreamGenerated = 1000;

/** Whole file as a string; throws std::runtime_error when unreadable. */
std::string readFile(const std::string &path);

/** lang::parseScenario, throwing the located diagnostic on error. */
cxl0::lang::Scenario parseOrThrow(const std::string &text,
                                  const std::string &where);

/**
 * The workloads. Each fills `out`; `spans` is the traced run's
 * recorder (null when untraced); `probe` is ticked between queries.
 */
void runExploreCrashHeavy(const Args &args, Result &out, Spans *spans,
                          HostProbe &probe);
void runRefineDeep(const Args &args, Result &out, Spans *spans,
                   HostProbe &probe);
void runScenarioStream(const Args &args, Result &out, Spans *spans,
                       HostProbe &probe);
void runDurableCampaign(const Args &args, Result &out, Spans *spans,
                        HostProbe &probe);

/** Set the gated end-to-end metrics from measured (raw) values and
 *  record the raw values in the info line. */
void setEndToEnd(Result &out, const HostProbe &probe, double p50_ms,
                 double setup_s);

/** Oracles, run in their own process (never the measured one). */
int oracleStream(const Args &args);
int oracleSelfTest(const Args &args);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
