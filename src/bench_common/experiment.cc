#include "bench_common/experiment.h"

#include <atomic>
#include <cctype>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "obs/trace.h"
#include "util/json.h"

namespace baton {
namespace bench {

namespace {

// ---- JSON mirror (--json=PATH) --------------------------------------------
// One JSON array per process; rows accumulate across Emit calls. The file is
// opened eagerly by SetJsonMirror (a bad path must fail before any bench
// work runs) and is kept VALID JSON after every flush: each mirror call
// seeks back over the closing "]" it wrote last time, appends its rows, and
// re-terminates the array. A CHECK abort mid-bench (which skips atexit
// handlers) therefore leaves a parseable artifact holding every row
// emitted so far.

struct JsonMirror {
  std::string path;
  std::FILE* file = nullptr;
  bool any_rows = false;
  long body_end = 0;  // offset just past the last row (before "\n]\n")
};
JsonMirror g_json;

void CloseJsonMirror() {
  if (g_json.file == nullptr) return;
  // The array terminator is already on disk; just release the handle.
  std::fclose(g_json.file);
  g_json.file = nullptr;
}

/// True when the cell can be emitted as a JSON number verbatim (the strict
/// JSON grammar: optional minus, integer part, optional fraction/exponent).
bool LooksNumeric(const std::string& s) {
  if (s.empty()) return false;
  size_t i = s[0] == '-' ? 1 : 0;
  if (i == s.size() || !std::isdigit(static_cast<unsigned char>(s[i]))) {
    return false;
  }
  // JSON forbids leading zeros ("007"); such cells must stay quoted or the
  // whole mirror file becomes unparseable.
  if (s[i] == '0' && i + 1 < s.size() &&
      std::isdigit(static_cast<unsigned char>(s[i + 1]))) {
    return false;
  }
  bool seen_dot = false, seen_exp = false;
  for (; i < s.size(); ++i) {
    char c = s[i];
    if (std::isdigit(static_cast<unsigned char>(c))) continue;
    if (c == '.' && !seen_dot && !seen_exp) {
      seen_dot = true;
      if (i + 1 == s.size()) return false;  // "1." is not JSON
      continue;
    }
    if ((c == 'e' || c == 'E') && !seen_exp && i + 1 < s.size()) {
      seen_exp = true;
      if (s[i + 1] == '+' || s[i + 1] == '-') ++i;
      if (i + 1 == s.size()) return false;
      continue;
    }
    return false;
  }
  return true;
}

void MirrorTableToJson(const std::string& title, const TablePrinter& table) {
  if (g_json.file == nullptr) return;
  std::fseek(g_json.file, g_json.body_end, SEEK_SET);
  const auto& headers = table.headers();
  for (const auto& row : table.rows()) {
    std::fprintf(g_json.file, "%s\n  {\"schema\": %d, \"table\": \"%s\"",
                 g_json.any_rows ? "," : "", kBenchJsonSchema,
                 JsonEscape(title).c_str());
    g_json.any_rows = true;
    for (size_t c = 0; c < headers.size() && c < row.size(); ++c) {
      if (LooksNumeric(row[c])) {
        std::fprintf(g_json.file, ", \"%s\": %s",
                     JsonEscape(headers[c]).c_str(), row[c].c_str());
      } else {
        std::fprintf(g_json.file, ", \"%s\": \"%s\"",
                     JsonEscape(headers[c]).c_str(),
                     JsonEscape(row[c]).c_str());
      }
    }
    std::fprintf(g_json.file, "}");
  }
  g_json.body_end = std::ftell(g_json.file);
  std::fprintf(g_json.file, "\n]\n");
  std::fflush(g_json.file);
}

std::string JoinedRegisteredNames() {
  std::string joined;
  for (const std::string& name : overlay::RegisteredNames()) {
    if (!joined.empty()) joined += ", ";
    joined += name;
  }
  return joined;
}

// ---- Flag parsing ----------------------------------------------------------
// ParseOptions records the program name and every accepted flag here, so
// FlagError can print the usage of exactly this bench.
struct Usage {
  const char* argv0 = "bench";
  std::vector<Flag> flags;
};
Usage g_usage;

/// One --help entry: "--name=ARG" padded to a help column, with every
/// further help line indented to that column.
void PrintFlagHelp(std::FILE* out, const std::string& lhs,
                   const std::string& help) {
  constexpr size_t kHelpColumn = 24;
  std::string line = "  " + lhs;
  line.resize(std::max(line.size() + 1, kHelpColumn), ' ');
  size_t start = 0;
  for (;;) {
    size_t nl = help.find('\n', start);
    std::fprintf(out, "%s%s\n", line.c_str(),
                 help.substr(start, nl - start).c_str());
    if (nl == std::string::npos) break;
    start = nl + 1;
    line.assign(kHelpColumn, ' ');
  }
}

void PrintUsage(std::FILE* out) {
  std::fprintf(out, "usage: %s [flags]\n", g_usage.argv0);
  PrintFlagHelp(out, "--paper_scale",
                "paper setup: N=1000..10000, 1000 keys/node, 10 seeds");
  for (const Flag& f : g_usage.flags) {
    PrintFlagHelp(out, "--" + f.name + "=" + f.arg, f.help);
  }
  PrintFlagHelp(out, "--list-overlays",
                "print the registered backend names and exit");
  PrintFlagHelp(out, "--help", "print this message and exit");
}

/// Strict base-10 parse for numeric flags: the whole value must be digits
/// (no sign, no trailing junk), must not overflow uint64, and must land in
/// [min_value, max_value]. atoi-style parsing silently turned
/// "--threads=-2" into a negative and "--seeds=2x" into 2.
uint64_t ParseFlagUint(const char* flag, const char* val, uint64_t min_value,
                       uint64_t max_value = UINT64_MAX) {
  uint64_t v = 0;
  bool ok = *val != '\0';
  for (const char* p = val; ok && *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') {
      ok = false;
      break;
    }
    uint64_t d = static_cast<uint64_t>(*p - '0');
    if (v > (UINT64_MAX - d) / 10) {
      ok = false;  // overflow
      break;
    }
    v = v * 10 + d;
  }
  if (!ok || v < min_value || v > max_value) {
    FlagError("bad " + std::string(flag) + " value '" + val +
              "' (need an integer in [" + std::to_string(min_value) + ", " +
              std::to_string(max_value) + "])");
  }
  return v;
}

/// Strict double parse: the whole value must be a finite number > 0.
double ParseFlagPositiveDouble(const char* flag, const char* val) {
  char* end = nullptr;
  double v = std::strtod(val, &end);
  if (end == val || *end != '\0' || !std::isfinite(v) || v <= 0.0) {
    FlagError("bad " + std::string(flag) + " value '" + val +
              "' (need a finite number > 0)");
  }
  return v;
}

/// Strict probability parse: a finite number in (0, 1].
double ParseFlagProb(const char* flag, const char* val) {
  double v = ParseFlagPositiveDouble(flag, val);
  if (v > 1.0) {
    FlagError("bad " + std::string(flag) + " value '" + val +
              "' (need a probability in (0, 1])");
  }
  return v;
}

/// A comma list of at least one `what`, each parsed by `one`.
template <typename T, typename ParseOne>
std::vector<T> ParseFlagList(const char* flag, const char* arg,
                             const char* what, ParseOne&& one) {
  std::vector<T> out;
  for (const std::string& piece : SplitList(arg)) {
    out.push_back(static_cast<T>(one(piece.c_str())));
  }
  if (out.empty()) {
    FlagError(std::string(flag) + " needs at least one " + what);
  }
  return out;
}

/// Parses "const:N" or "uniform:LO,HI" (HI >= LO).
LatencySpec ParseLatencySpec(const char* arg) {
  LatencySpec spec;
  const std::string a = arg;
  if (a.rfind("const:", 0) == 0) {
    spec.kind = LatencySpec::Kind::kConst;
    spec.lo = spec.hi = ParseFlagUint("--latency", arg + 6, 0);
    return spec;
  }
  const size_t comma = a.find(',');
  if (a.rfind("uniform:", 0) != 0 || comma == std::string::npos) {
    FlagError("bad --latency value '" + a +
              "' (want const:N or uniform:LO,HI with LO <= HI)");
  }
  spec.kind = LatencySpec::Kind::kUniform;
  spec.lo = ParseFlagUint("--latency", a.substr(8, comma - 8).c_str(), 0);
  spec.hi = ParseFlagUint("--latency", arg + comma + 1, spec.lo);
  return spec;
}

/// Builds the latency model `spec` describes, or nullptr for Kind::kNone.
std::unique_ptr<sim::LatencyModel> MakeLatencyModel(const LatencySpec& spec) {
  switch (spec.kind) {
    case LatencySpec::Kind::kNone:
      return nullptr;
    case LatencySpec::Kind::kConst:
      return std::make_unique<sim::ConstantLatency>(spec.lo);
    case LatencySpec::Kind::kUniform:
      return std::make_unique<sim::UniformLatency>(spec.lo, spec.hi);
  }
  return nullptr;
}

/// Parses a comma list of "uniform" / "zipf:THETA" (THETA > 0) entries.
std::vector<KeyDistSpec> ParseKeyDists(const char* arg) {
  return ParseFlagList<KeyDistSpec>(
      "--key-dist", arg, "distribution", [](const char* name) {
        KeyDistSpec spec;
        if (std::strncmp(name, "zipf:", 5) == 0) {
          spec.kind = KeyDistSpec::Kind::kZipf;
          spec.theta = ParseFlagPositiveDouble("--key-dist", name + 5);
        } else if (std::strcmp(name, "uniform") != 0) {
          FlagError(std::string("bad --key-dist value '") + name +
                    "' (want uniform or zipf:THETA)");
        }
        return spec;
      });
}

/// A non-empty file path for --trace/--metrics/--json.
std::string ParsePath(const char* flag, const char* val) {
  if (*val == '\0') FlagError(std::string(flag) + " needs a file path");
  return val;
}

/// The flags every bench accepts.
FlagGroup CoreFlags() {
  return {
      {"sizes", "a,b,c", "network sizes to sweep",
       [](const char* v, Options* opt) {
         opt->sizes = ParseFlagList<size_t>(
             "--sizes", v, "network size",
             [](const char* p) { return ParseFlagUint("--sizes", p, 1); });
       }},
      {"seeds", "N", "seeds (independent runs) per point",
       [](const char* v, Options* opt) {
         opt->seeds = static_cast<int>(ParseFlagUint("--seeds", v, 1, INT_MAX));
       }},
      {"keys", "N", "keys per node",
       [](const char* v, Options* opt) {
         opt->keys_per_node =
             static_cast<size_t>(ParseFlagUint("--keys", v, 0));
       }},
      {"seed", "S", "base RNG seed",
       [](const char* v, Options* opt) {
         opt->base_seed = ParseFlagUint("--seed", v, 0);
       }},
      // Last occurrence wins, like every other repeatable flag; the mirror
      // is opened once, after parsing.
      {"json", "PATH", "mirror every table into PATH as JSON rows",
       [](const char* v, Options* opt) {
         opt->json_path = ParsePath("--json", v);
       }},
  };
}

/// --timeout-ticks=N into `dst`, with the owning group's `help`.
Flag TimeoutFlag(uint64_t* dst, const char* help) {
  return {"timeout-ticks", "N", help, [dst](const char* v, Options*) {
            *dst = ParseFlagUint("--timeout-ticks", v, 0);
          }};
}

}  // namespace

std::string KeyDistSpec::Label() const {
  if (kind == Kind::kUniform) return "uniform";
  char buf[32];
  std::snprintf(buf, sizeof buf, "zipf:%.6g", theta);
  return buf;
}

std::unique_ptr<workload::KeyGenerator> MakeKeyGenerator(
    const KeyDistSpec& spec, Key lo, Key hi) {
  switch (spec.kind) {
    case KeyDistSpec::Kind::kUniform:
      return std::make_unique<workload::UniformKeys>(lo, hi);
    case KeyDistSpec::Kind::kZipf:
      return std::make_unique<workload::ZipfKeys>(lo, hi, spec.theta);
  }
  return nullptr;
}

std::vector<std::string> SplitList(const char* arg) {
  std::vector<std::string> out;
  std::string cur;
  for (const char* p = arg;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
      if (*p == '\0') break;
    } else {
      cur += *p;
    }
  }
  return out;
}

void FlagError(const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  PrintUsage(stderr);
  std::exit(2);
}

FlagGroup QueryFlags() {
  return {
      {"queries", "N", "queries/operations per point",
       [](const char* v, Options* opt) {
         opt->queries =
             static_cast<int>(ParseFlagUint("--queries", v, 0, INT_MAX));
       }},
  };
}

FlagGroup BackendFlags() {
  return {
      {"overlay", "name[,...]",
       "backends to run (registered: " + JoinedRegisteredNames() + ")",
       [](const char* v, Options* opt) {
         opt->overlays = SplitList(v);
         if (opt->overlays.empty()) {
           FlagError("--overlay needs at least one backend name");
         }
         for (const std::string& name : opt->overlays) {
           if (!overlay::IsRegistered(name)) {
             FlagError("unknown overlay backend '" + name +
                       "' (registered: " + JoinedRegisteredNames() + ")");
           }
         }
       }},
      {"threads", "N",
       "worker threads for per-(backend,N,seed) tasks\n"
       "(default 1; 0 = hardware concurrency)",
       [](const char* v, Options* opt) {
         opt->threads =
             static_cast<int>(ParseFlagUint("--threads", v, 0, INT_MAX));
       }},
  };
}

FlagGroup LatencyFlags() {
  return {
      {"latency", "MODEL",
       "link latency: const:N or uniform:LO,HI (ticks);\n"
       "enables simulated per-op latency reporting",
       [](const char* v, Options* opt) { opt->latency = ParseLatencySpec(v); }},
  };
}

FlagGroup ObsFlags() {
  return {
      {"trace", "PATH",
       "write a Chrome trace-event JSON (open in\n"
       "Perfetto) of every measured op + message",
       [](const char* v, Options* opt) {
         opt->trace_path = ParsePath("--trace", v);
       }},
      {"metrics", "PATH", "write per-task obs metrics snapshots as JSON",
       [](const char* v, Options* opt) {
         opt->metrics_path = ParsePath("--metrics", v);
       }},
  };
}

FlagGroup KeyDistFlags() {
  return {
      {"key-dist", "D[,...]",
       "request-key distribution(s): uniform or\n"
       "zipf:THETA (THETA > 0, e.g. zipf:0.9)",
       [](const char* v, Options* opt) { opt->key_dists = ParseKeyDists(v); }},
  };
}

FlagGroup ServeFlags::Flags() {
  return {
      {"load", "f1,f2,...",
       "offered-load sweep, as fractions of calibrated\n"
       "capacity (default 0.5,0.8,0.95,1.1,1.3)",
       [this](const char* v, Options*) {
         loads = ParseFlagList<double>("--load", v, "load fraction",
                                       [](const char* p) {
                                         return ParseFlagPositiveDouble(
                                             "--load", p);
                                       });
       }},
      {"arrivals", "KIND",
       "open-loop arrival process: poisson (default)\nor fixed",
       [this](const char* v, Options*) {
         arrivals = v;
         if (arrivals != "poisson" && arrivals != "fixed") {
           FlagError("bad --arrivals value '" + arrivals +
                     "' (want poisson or fixed)");
         }
       }},
      {"service-ticks", "N",
       "per-message node service time in ticks (>= 1;\ndefault 1)",
       [this](const char* v, Options*) {
         service_ticks = ParseFlagUint("--service-ticks", v, 1);
       }},
      {"max-queue", "N",
       "per-node queue bound, arrivals past it drop\n"
       "the op (default 0 = unbounded)",
       [this](const char* v, Options*) {
         max_queue = ParseFlagUint("--max-queue", v, 0);
       }},
      TimeoutFlag(&timeout_ticks,
                  "sojourns past N ticks count as timed out\n"
                  "(default 0 = no deadline)"),
      {"stragglers", "K:F",
       "mark K nodes as stragglers with F x the\n"
       "global service time (F > 1; default 0 =\nhomogeneous fleet)",
       [this](const char* v, Options*) {
         const char* colon = std::strchr(v, ':');
         if (colon == nullptr) {
           FlagError(std::string("bad --stragglers value '") + v +
                     "' (want K:FACTOR, e.g. 4:8)");
         }
         std::string k(v, static_cast<size_t>(colon - v));
         stragglers = static_cast<size_t>(
             ParseFlagUint("--stragglers", k.c_str(), 0));
         straggler_factor = ParseFlagPositiveDouble("--stragglers", colon + 1);
         if (straggler_factor <= 1.0) {
           FlagError(std::string("bad --stragglers factor '") + (colon + 1) +
                     "' (need a multiplier > 1)");
         }
       }},
  };
}

FlagGroup FaultFlags::Flags() {
  return {
      {"drop", "p1,p2,...",
       "per-message drop probabilities to sweep\n(default 0.01,0.05,0.10)",
       [this](const char* v, Options*) {
         drop_rates = ParseFlagList<double>(
             "--drop", v, "drop probability",
             [](const char* p) { return ParseFlagProb("--drop", p); });
       }},
      {"dup", "P",
       "per-message duplicate-delivery probability\n(default 0)",
       [this](const char* v, Options*) { dup_rate = ParseFlagProb("--dup", v); }},
      {"retries", "r1,r2,...", "retry budgets to sweep (default 0,1,3)",
       [this](const char* v, Options*) {
         retry_budgets = ParseFlagList<int>(
             "--retries", v, "retry budget",
             [](const char* p) { return ParseFlagUint("--retries", p, 0, 64); });
       }},
      TimeoutFlag(&timeout_ticks,
                  "per-attempt critical-path budget of the retry\n"
                  "policy (default 0 = none)"),
  };
}

FlagGroup CacheFlags::Flags() {
  return {
      {"cache", "SIZE[,k]",
       "per-node route cache of SIZE >= 1 entries plus\n"
       "a replicated fast-table of the top k tree\n"
       "levels (default 256,2; k=0 disables the\nfast-table)",
       [this](const char* v, Options*) {
         const char* comma = std::strchr(v, ',');
         std::string size =
             comma == nullptr ? v : std::string(v, static_cast<size_t>(comma - v));
         capacity = static_cast<size_t>(
             ParseFlagUint("--cache", size.c_str(), 1));
         if (comma != nullptr) {
           levels = static_cast<int>(ParseFlagUint("--cache", comma + 1, 0, 16));
         }
       }},
      TimeoutFlag(&timeout_ticks,
                  "per-attempt critical-path budget of the lossy\n"
                  "cell's retry policy (default 0 = none)"),
  };
}

void Attach(Instance* inst, const Options& opt, uint64_t seed) {
  if (opt.latency.enabled()) {
    inst->clock = std::make_unique<sim::Clock>();
    inst->latency = MakeLatencyModel(opt.latency);
    inst->overlay->AttachLatency(inst->clock.get(), inst->latency.get(),
                                 Mix64(seed ^ 0x11c0));
  }
  if (!opt.trace_path.empty() || !opt.metrics_path.empty()) {
    inst->observer = std::make_unique<obs::Observer>(!opt.trace_path.empty());
    inst->overlay->AttachObserver(inst->observer.get());
  }
}

void WriteObsArtifacts(const Options& opt, const std::vector<SeedTask>& tasks,
                       const std::vector<const obs::Observer*>& observers) {
  BATON_CHECK(tasks.size() == observers.size())
      << "observers must align with tasks";
  auto label = [&](size_t i) {
    return tasks[i].overlay + " N=" + std::to_string(tasks[i].n) +
           " seed=" + std::to_string(tasks[i].seed);
  };
  if (!opt.trace_path.empty()) {
    std::vector<obs::TraceProcess> procs;
    for (size_t i = 0; i < tasks.size(); ++i) {
      if (observers[i] == nullptr || observers[i]->trace() == nullptr) {
        continue;
      }
      procs.push_back({label(i), observers[i]->trace()});
    }
    std::ofstream out(opt.trace_path);
    if (!out) {
      std::fprintf(stderr, "cannot open --trace file %s\n",
                   opt.trace_path.c_str());
      std::exit(2);
    }
    obs::WriteChromeTrace(out, procs);
    std::printf("wrote trace (%zu processes) to %s\n", procs.size(),
                opt.trace_path.c_str());
  }
  if (!opt.metrics_path.empty()) {
    std::ofstream out(opt.metrics_path);
    if (!out) {
      std::fprintf(stderr, "cannot open --metrics file %s\n",
                   opt.metrics_path.c_str());
      std::exit(2);
    }
    out << "[";
    bool any = false;
    for (size_t i = 0; i < tasks.size(); ++i) {
      if (observers[i] == nullptr) continue;
      out << (any ? "," : "") << "\n  {\"schema\": " << kBenchJsonSchema
          << ", \"overlay\": \"" << JsonEscape(tasks[i].overlay)
          << "\", \"N\": " << tasks[i].n << ", \"seed\": " << tasks[i].seed
          << ", \"metrics\": ";
      observers[i]->AppendJson(out);
      out << "}";
      any = true;
    }
    out << "\n]\n";
    std::printf("wrote metrics snapshots to %s\n", opt.metrics_path.c_str());
  }
}

Options ParseOptions(int argc, char** argv,
                     std::initializer_list<FlagGroup> groups) {
  Options opt;
  g_usage.argv0 = argv[0];
  g_usage.flags = CoreFlags();
  for (const FlagGroup& g : groups) {
    g_usage.flags.insert(g_usage.flags.end(), g.begin(), g.end());
  }
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--paper_scale") {
      opt.keys_per_node = 1000;
      opt.seeds = 10;
      opt.sizes = {1000, 2000, 4000, 6000, 8000, 10000};
      continue;
    }
    if (a == "--help") {
      PrintUsage(stdout);
      std::exit(0);
    }
    if (a == "--list-overlays") {
      for (const std::string& name : overlay::RegisteredNames()) {
        std::printf("%s\n", name.c_str());
      }
      std::exit(0);
    }
    const size_t eq = a.find('=');
    const Flag* flag = nullptr;
    if (a.rfind("--", 0) == 0 && eq != std::string::npos) {
      for (const Flag& f : g_usage.flags) {
        if (a.compare(2, eq - 2, f.name) == 0) flag = &f;
      }
    }
    if (flag == nullptr) FlagError("unknown flag " + a);
    flag->parse(argv[i] + eq + 1, &opt);
  }
  if (!opt.json_path.empty()) SetJsonMirror(opt.json_path);
  return opt;
}

std::vector<std::string> SelectedOverlays(const Options& opt) {
  return opt.overlays.empty() ? overlay::RegisteredNames() : opt.overlays;
}

std::vector<SeedTask> SizeMajorTasks(
    const Options& opt, const std::vector<std::string>& overlays) {
  std::vector<SeedTask> tasks;
  tasks.reserve(opt.sizes.size() * overlays.size() *
                static_cast<size_t>(opt.seeds));
  for (size_t n : opt.sizes) {
    for (const std::string& name : overlays) {
      for (int s = 0; s < opt.seeds; ++s) tasks.push_back({name, n, s});
    }
  }
  return tasks;
}

std::vector<SeedTask> BackendMajorTasks(
    const Options& opt, const std::vector<std::string>& overlays) {
  std::vector<SeedTask> tasks;
  tasks.reserve(opt.sizes.size() * overlays.size() *
                static_cast<size_t>(opt.seeds));
  for (const std::string& name : overlays) {
    for (size_t n : opt.sizes) {
      for (int s = 0; s < opt.seeds; ++s) tasks.push_back({name, n, s});
    }
  }
  return tasks;
}

void ParallelFor(size_t count, int threads,
                 const std::function<void(size_t)>& fn) {
  if (threads == 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  size_t workers = std::min(count, static_cast<size_t>(std::max(threads, 1)));
  if (workers <= 1) {
    for (size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // Atomic work cursor instead of static partitioning: tasks (per-seed
  // overlay builds + replays) have wildly different costs across backends
  // and sizes, so early-finishing workers steal the tail.
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&next, count, &fn]() {
      for (size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
        fn(i);
      }
    });
  }
  for (std::thread& t : pool) t.join();
}

BatonConfig BalancedConfig() {
  BatonConfig cfg;
  cfg.enable_load_balance = true;
  cfg.overload_factor = 2.2;
  return cfg;
}

BatonConfig ReplicatedConfig(int r) {
  BatonConfig cfg = BalancedConfig();
  cfg.replication.factor = r;
  return cfg;
}

overlay::Config BalancedOverlayConfig() {
  overlay::Config cfg;
  cfg.baton = BalancedConfig();
  return cfg;
}

Instance BuildOverlay(const std::string& name, size_t n, uint64_t seed,
                      const overlay::Config& cfg, size_t keys_per_node,
                      workload::KeyGenerator* preload) {
  // "For a network of size N, 1000 x N data values ... are inserted in
  // batches": joins and insert batches interleave, so order-preserving
  // backends keep per-node loads -- and therefore ranges -- matched to the
  // data distribution as the overlay grows.
  Instance inst;
  overlay::Config seeded = cfg;
  seeded.seed = seed;
  inst.overlay = overlay::Make(name, seeded);
  BATON_CHECK(inst.overlay != nullptr) << "unknown overlay backend " << name;
  Rng rng(Mix64(seed ^ inst.overlay->build_salt()));
  inst.members.push_back(inst.overlay->Bootstrap());
  auto insert_batch = [&](size_t count) {
    for (size_t i = 0; i < count; ++i) {
      net::PeerId from = inst.members[rng.NextBelow(inst.members.size())];
      auto st = inst.overlay->Insert(from, preload->Next(&rng));
      BATON_CHECK(st.ok()) << st.status.ToString();
    }
  };
  if (preload != nullptr) insert_batch(keys_per_node);
  for (size_t i = 1; i < n; ++i) {
    net::PeerId contact = inst.members[rng.NextBelow(inst.members.size())];
    auto joined = inst.overlay->Join(contact);
    BATON_CHECK(joined.ok()) << joined.status.ToString();
    inst.members.push_back(joined.peer);
    if (preload != nullptr) insert_batch(keys_per_node);
  }
  return inst;
}

Instance BuildPreloaded(const std::string& name, size_t n, uint64_t seed,
                        size_t keys_per_node, workload::KeyGenerator* keys) {
  overlay::Config cfg = BalancedOverlayConfig();
  if (overlay::Make(name, cfg)->Supports(overlay::kOrderedGrowth)) {
    return BuildOverlay(name, n, seed, cfg, keys_per_node, keys);
  }
  Rng load_rng(Mix64(seed ^ 0x10ad));
  Instance inst = BuildOverlay(name, n, seed, cfg);
  LoadOverlay(&inst, keys_per_node, keys, &load_rng);
  return inst;
}

void LoadOverlay(Instance* inst, size_t keys_per_node,
                 workload::KeyGenerator* gen, Rng* rng) {
  size_t total = keys_per_node * inst->overlay->size();
  for (size_t i = 0; i < total; ++i) {
    net::PeerId from = inst->members[rng->NextBelow(inst->members.size())];
    auto st = inst->overlay->Insert(from, gen->Next(rng));
    BATON_CHECK(st.ok()) << st.status.ToString();
  }
}

void JoinLeaveChurn(Instance* inst, Rng* rng, int ops,
                    const ChurnCost& on_pair) {
  net::CounterSnapshot before, mid;
  for (int i = 0; i < ops; ++i) {
    if (on_pair) before = inst->net()->Snapshot();
    auto joined = inst->overlay->Join(
        inst->members[rng->NextBelow(inst->members.size())]);
    BATON_CHECK(joined.ok()) << joined.status.ToString();
    inst->members.push_back(joined.peer);
    if (on_pair) mid = inst->net()->Snapshot();

    size_t idx = rng->NextBelow(inst->members.size());
    auto left = inst->overlay->Leave(inst->members[idx]);
    BATON_CHECK(left.ok()) << left.status.ToString();
    inst->members.erase(inst->members.begin() + static_cast<long>(idx));
    if (on_pair) on_pair(before, mid, inst->net()->Snapshot());
  }
}

uint64_t SumTypes(const net::CounterSnapshot& before,
                  const net::CounterSnapshot& after,
                  std::initializer_list<net::MsgType> types) {
  uint64_t sum = 0;
  for (net::MsgType t : types) {
    sum += net::Network::DeltaOfType(before, after, t);
  }
  return sum;
}

uint64_t MaintenanceDelta(const net::CounterSnapshot& before,
                          const net::CounterSnapshot& after) {
  return CategoryDelta(before, after, net::MsgCategory::kMaintenance);
}

uint64_t CategoryDelta(const net::CounterSnapshot& before,
                       const net::CounterSnapshot& after,
                       net::MsgCategory category) {
  uint64_t sum = 0;
  for (int i = 0; i < net::kNumMsgTypes; ++i) {
    auto t = static_cast<net::MsgType>(i);
    if (net::CategoryOf(t) == category) {
      sum += net::Network::DeltaOfType(before, after, t);
    }
  }
  return sum;
}

void SetJsonMirror(const std::string& path) {
  BATON_CHECK(g_json.file == nullptr)
      << "JSON mirror cannot be re-pointed once open";
  // Open eagerly: an unwritable path must fail at flag-parse time, not
  // after a multi-minute sweep has already run.
  g_json.path = path;
  g_json.file = std::fopen(path.c_str(), "w");
  if (g_json.file == nullptr) {
    std::fprintf(stderr, "cannot open --json file %s\n", path.c_str());
    std::exit(2);
  }
  std::fprintf(g_json.file, "[");
  g_json.body_end = std::ftell(g_json.file);
  std::fprintf(g_json.file, "\n]\n");  // valid (empty) array from the start
  std::fflush(g_json.file);
  std::atexit(CloseJsonMirror);
}

void Emit(const std::string& title, const TablePrinter& table,
          const Options& opt) {
  std::printf("== %s ==\n", title.c_str());
  std::printf("%s\n", table.ToText().c_str());
  std::fflush(stdout);
  if (!opt.json_path.empty()) MirrorTableToJson(title, table);
}

}  // namespace bench
}  // namespace baton
