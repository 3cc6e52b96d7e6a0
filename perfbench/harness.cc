#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <sys/resource.h>

#include "bench.hh"

namespace perfbench
{

namespace
{

struct MetricDef
{
    const char *name;
    const char *unit;
};

// Keep in step with BENCHMARK.json; run.py refuses a result whose
// metric names or units differ from it.
constexpr MetricDef kEndToEnd[] = {
    {"p50_ms_1t_adj", "ms"},
    {"setup_s", "s"},
};

constexpr MetricDef kPerLayer[] = {
    {"check.explorer.configs_visited", "count"},
    {"check.explorer.configs_interned", "count"},
    {"check.explorer.revisit_ratio", "ratio"},
    {"check.explorer.configs_per_s", "1/s"},
    {"check.explorer.ample_skipped", "count"},
    {"check.explorer.crash_ample_skipped", "count"},
    {"check.explorer.tau_skipped", "count"},
    {"model.states_interned", "count"},
    {"check.engine.peak_visited_mb", "MB"},
    {"check.engine.table_mb", "MB"},
    {"check.engine.steal_success_ratio_4t", "ratio"},
    {"check.engine.inbox_batches_4t", "count"},
    {"check.engine.worker_wait_share_4t", "ratio"},
    {"check.engine.speedup_4t", "ratio"},
    {"check.refinement.pairs_visited_1t", "count"},
    {"check.refinement.pairs_visited_4t_min", "count"},
    {"check.refinement.pairs_visited_4t_max", "count"},
    {"check.refinement.pairs_interned", "count"},
    {"check.refinement.visits_per_pair", "ratio"},
    {"check.refinement.frames_interned", "count"},
    {"check.refinement.pairs_per_s", "1/s"},
    {"check.refinement.peak_visited_mb", "MB"},
    {"lang.parse_us", "us"},
    {"fuzz.generate_us", "us"},
    {"lang.driver_us", "us"},
    {"check.search_us_1t", "us"},
    {"check.search_us_4t", "us"},
    {"check.fixed_cost_4t_us", "us"},
    {"check.explorer.query_us", "us"},
    {"check.trace.query_us", "us"},
    {"check.simulation.query_us", "us"},
    {"check.refinement.query_us", "us"},
    {"inject.cases", "count"},
    {"inject.sweep_ms.register", "ms"},
    {"inject.sweep_ms.counter", "ms"},
    {"inject.sweep_ms.kv", "ms"},
    {"inject.sweep_ms.queue", "ms"},
    {"inject.sweep_ms.stack", "ms"},
    {"inject.sweep_ms.set", "ms"},
    {"inject.sweep_ms.log", "ms"},
    {"inject.sweep_ms.map", "ms"},
    {"inject.sweep_ms.queue_lwb", "ms"},
    {"inject.run_case_us", "us"},
    {"hist.check_us", "us"},
    {"hist.ops_per_history", "count"},
    {"runtime.steps_per_case", "count"},
    {"inject.shrink_ms", "ms"},
    {"inject.violations_unsound", "count"},
    {"inject.muted_panics", "count"},
    {"obs.trace_overhead_pct", "%"},
    {"host.calib_ms", "ms"},
};

/** Seconds between host probes. */
constexpr double kProbeInterval = 0.2;
/** Probe time (geometric mean of the two) that HostProbe::factor()
 *  maps to 1: the quietest runs on the 2.1 GHz Xeon host the bench
 *  was written on measured 2.8–3.2 ms. */
constexpr double kProbeRefMs = 3.0;

template <size_t N>
const MetricDef *
findDef(const MetricDef (&defs)[N], const std::string &name)
{
    for (const MetricDef &d : defs)
        if (name == d.name)
            return &d;
    return nullptr;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

double
Samples::percentile(double p) const
{
    if (ms.empty())
        return 0.0;
    std::vector<double> v = ms;
    std::sort(v.begin(), v.end());
    double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
median(std::vector<double> v)
{
    Samples s;
    s.ms = std::move(v);
    return s.median();
}

void
Result::set(const std::string &name, double value)
{
    if (findDef(kEndToEnd, name) == nullptr &&
        findDef(kPerLayer, name) == nullptr) {
        std::fprintf(stderr, "perfbench: unknown metric %s\n",
                     name.c_str());
        std::abort();
    }
    metrics_[name] = value;
}

void
Result::info(const std::string &key, const std::string &json_value)
{
    info_.emplace_back(key, json_value);
}

void
Result::infoNum(const std::string &key, double value)
{
    info(key, jsonNumber(value));
}

void
Result::infoStr(const std::string &key, const std::string &value)
{
    info(key, jsonString(value));
}

void
Result::gateFailed(const std::string &what)
{
    gatesHeld = false;
    std::fprintf(stderr, "perfbench: gate failed: %s\n", what.c_str());
}

std::string
Result::resultLine(bool trace)
{
    std::string m;
    auto emit = [&](const auto &defs) {
        for (const MetricDef &d : defs) {
            auto it = metrics_.find(d.name);
            double v = it == metrics_.end() ? 0.0 : it->second;
            if (!m.empty())
                m += ", ";
            m += jsonString(d.name) + ": {\"value\": " + jsonNumber(v) +
                 ", \"unit\": " + jsonString(d.unit) + "}";
        }
    };
    if (trace)
        emit(kPerLayer);
    else
        emit(kEndToEnd);
    bool correct = gatesHeld && failed == 0 && attempted > 0;
    return "{\"correct\": " + std::string(correct ? "true" : "false") +
           ", \"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) +
           ", \"metrics\": {" + m + "}}";
}

std::string
Result::infoLine() const
{
    std::string s = "{\"info\": {";
    for (size_t i = 0; i < info_.size(); ++i)
        s += (i ? ", " : "") + jsonString(info_[i].first) + ": " +
             info_[i].second;
    return s + "}}";
}

double
calibrateMs(int scale)
{
    // A fixed mix of multiply, shift and dependent table reads over a
    // 256 KiB table (L2-resident): it moves with core clock and cache
    // contention, the host effects that also move the checkers.
    static std::vector<uint32_t> table = [] {
        std::vector<uint32_t> t(1 << 16);
        for (size_t i = 0; i < t.size(); ++i)
            t[i] = static_cast<uint32_t>(i * 2654435761u);
        return t;
    }();
    auto t0 = Clock::now();
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    uint32_t idx = 0;
    for (int i = 0; i < 500'000 * scale; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        idx = (idx + table[(idx ^ static_cast<uint32_t>(x)) &
                           (table.size() - 1)]) &
              static_cast<uint32_t>(table.size() - 1);
    }
    double ms = secondsSince(t0) * 1e3;
    // Keep the loop's result observable.
    if ((x ^ idx) == 42)
        std::fprintf(stderr, "calib\n");
    return ms;
}

double
memoryProbeMs()
{
    // Open-addressed insert/lookup churn over an 8 MiB table, like the
    // checkers' visited sets: it moves with cache and memory contention.
    static std::vector<uint64_t> table(1 << 20);
    std::fill(table.begin(), table.end(), 0);
    auto t0 = Clock::now();
    uint64_t x = 1;
    size_t hits = 0;
    for (int i = 0; i < 200'000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        uint64_t k = (x >> 20) | 1;
        size_t h = (k * 0x9e3779b97f4a7c15ULL) >> 44;
        while (table[h] != 0 && table[h] != k)
            h = (h + 1) & (table.size() - 1);
        if (table[h] == k)
            ++hits;
        else
            table[h] = k;
    }
    double ms = secondsSince(t0) * 1e3;
    if (hits == 42)
        std::fprintf(stderr, "probe\n");
    return ms;
}

void
HostProbe::tick()
{
    if (cpu_.count() > 0 && secondsSince(last_) < kProbeInterval)
        return;
    cpu_.ms.push_back(calibrateMs(1));
    mem_.ms.push_back(memoryProbeMs());
    last_ = Clock::now();
}

double
HostProbe::factor() const
{
    if (cpu_.count() == 0)
        return 1.0;
    return kProbeRefMs / std::sqrt(cpu_.median() * mem_.median());
}

void
HostProbe::report(Result &out) const
{
    out.infoNum("probe_count", static_cast<double>(cpu_.count()));
    out.infoNum("probe_cpu_ms", cpu_.median());
    out.infoNum("probe_mem_ms", mem_.median());
    out.infoNum("host_factor", factor());
}

void
setEndToEnd(Result &out, const HostProbe &probe, double p50_ms,
            double setup_s)
{
    out.set("p50_ms_1t_adj", p50_ms * probe.factor());
    out.set("setup_s", setup_s * probe.factor());
    out.infoNum("peak_rss_mb", peakRssMb());
    out.infoNum("p50_ms_1t", p50_ms);
    out.infoNum("setup_s_raw", setup_s);
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

uint64_t
digestOutcomes(const std::set<cxl0::check::Outcome> &outcomes)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    mix(outcomes.size());
    for (const auto &o : outcomes) {
        mix(o.crashedThreads);
        mix(o.regs.size());
        for (const auto &regs : o.regs) {
            mix(regs.size());
            for (auto v : regs)
                mix(static_cast<uint64_t>(v));
        }
    }
    return h;
}

std::string
hex64(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

cxl0::lang::Scenario
parseOrThrow(const std::string &text, const std::string &where)
{
    cxl0::lang::ParseResult pr = cxl0::lang::parseScenario(text);
    if (!pr.ok())
        throw std::runtime_error(pr.error->render(where));
    return std::move(pr.scenario);
}

double
Spans::nowUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     epoch_)
        .count();
}

uint64_t
Spans::open(const char *name, uint64_t parent, uint64_t query)
{
    double t = nowUs();
    Span s;
    s.name = name;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.query = query;
    s.startUs = t;
    spans_.push_back(s);
    return s.id;
}

void
Spans::close(uint64_t id)
{
    spans_[id - 1].endUs = nowUs();
}

std::map<std::string, Spans::Totals>
Spans::totals() const
{
    // Children of each span, to subtract the union of their
    // intervals.
    std::vector<std::vector<std::pair<double, double>>> kids(
        spans_.size() + 1);
    for (const Span &s : spans_)
        if (s.parent != 0)
            kids[s.parent].emplace_back(s.startUs, s.endUs);
    std::map<std::string, Totals> out;
    for (const Span &s : spans_) {
        auto &iv = kids[s.id];
        std::sort(iv.begin(), iv.end());
        double covered = 0, curLo = 0, curHi = -1;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, s.startUs);
            hi = std::min(hi, s.endUs);
            if (hi <= lo)
                continue;
            if (lo > curHi) {
                if (curHi > curLo)
                    covered += curHi - curLo;
                curLo = lo;
                curHi = hi;
            } else {
                curHi = std::max(curHi, hi);
            }
        }
        if (curHi > curLo)
            covered += curHi - curLo;
        Totals &t = out[s.name];
        t.calls += 1;
        t.wallUs += s.endUs - s.startUs;
        t.selfUs += s.endUs - s.startUs - covered;
    }
    return out;
}

bool
Spans::writeJson(const std::string &path) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    f << "{\"traceEvents\":[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        f << (i ? ",\n" : "") << "{\"name\":" << jsonString(s.name)
          << ",\"ph\":\"X\",\"pid\":1,\"tid\":1"
          << ",\"ts\":" << jsonNumber(s.startUs)
          << ",\"dur\":" << jsonNumber(s.endUs - s.startUs)
          << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"query\":" << s.query << "}}";
    }
    f << "\n]}\n";
    return static_cast<bool>(f);
}

TraceTotals
parseEngineTrace(const std::string &json)
{
    // Tracer::toJson writes one event per line:
    //   {"name":"sleep","ph":"B","pid":1,"tid":3,"ts":1234...}
    TraceTotals wt;
    std::map<std::pair<uint32_t, std::string>, std::vector<double>> open;
    std::istringstream in(json);
    std::string line;
    while (std::getline(in, line)) {
        auto field = [&](const char *key) -> std::string {
            std::string k = std::string("\"") + key + "\":";
            size_t p = line.find(k);
            if (p == std::string::npos)
                return {};
            p += k.size();
            if (line[p] == '"') {
                size_t e = line.find('"', p + 1);
                return line.substr(p + 1, e - p - 1);
            }
            size_t e = line.find_first_of(",}", p);
            return line.substr(p, e - p);
        };
        std::string ph = field("ph");
        if (ph != "B" && ph != "E")
            continue;
        std::string name = field("name");
        uint32_t tid = static_cast<uint32_t>(std::stoul(field("tid")));
        double ts = std::stod(field("ts"));
        auto &stack = open[{tid, name}];
        if (ph == "B") {
            stack.push_back(ts);
            continue;
        }
        if (stack.empty())
            continue;
        double dur = ts - stack.back();
        stack.pop_back();
        if (name == "expand")
            wt.expandUs += dur;
        else if (name == "sleep")
            wt.sleepUs += dur;
        else if (name == "campaign:unit")
            wt.unitUs.push_back(dur);
        else if (name == "campaign:shrink")
            wt.shrinkUs += dur;
    }
    return wt;
}

} // namespace perfbench
