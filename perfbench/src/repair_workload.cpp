// The `repair` workload: repeated passes over the paper's 16 Table IV
// errors (RunScenario, retrying #2/#4 with the tuned parameters exactly as
// bench_table4_recovery does) and the Table II per-application
// ClusterKeys + EvaluateClusters. It never touches the daemon.
//
// The machines are the fixed Table I profiles, because the paper's
// results are stated for them; the seed permutes the order of scenarios
// and applications within each pass.
#include <sys/resource.h>

#include <fstream>
#include <set>

#include "analysis/ground_truth.h"
#include "apps/catalog.h"
#include "apps/render.h"
#include "clustering/engine.h"
#include "common/rng.h"
#include "common/time.h"
#include "daemon_workloads.h"
#include "repair/search.h"
#include "scenarios/harness.h"
#include "workload/generator.h"
#include "workload/inject.h"
#include "workload/profiles.h"

namespace perfbench {
namespace {

using namespace ocasta;

// Errors the single-key NoClust baseline cannot fix: they need a
// multi-key rollback (paper, Table IV).
const std::set<int> kNoClustFails = {2, 4, 6, 7, 9};

struct AppInput {
  AppSchema schema;
  TTKV ttkv;
};

struct Inputs {
  std::vector<MachineTrace> machines;
  std::vector<AppInput> apps;

  const MachineTrace& Machine(const std::string& name) const {
    for (const MachineTrace& m : machines) {
      if (m.profile.name == name) return m;
    }
    throw std::runtime_error("unknown machine " + name);
  }
};

Inputs BuildInputs() {
  Inputs in;
  for (const MachineProfile& p : Table1Profiles()) in.machines.push_back(GenerateMachineTrace(p));
  for (const AppSchema& schema : AllAppSchemas()) {
    std::vector<const MachineTrace*> hosts;
    for (const MachineTrace& m : in.machines) {
      for (const std::string& app : m.profile.apps) {
        if (app == schema.name) {
          hosts.push_back(&m);
          break;
        }
      }
    }
    if (hosts.empty()) continue;
    in.apps.push_back({schema, BuildAppTtkvAcrossMachines(hosts, schema.name)});
  }
  return in;
}

struct Outcome {
  bool fixed = false;
  bool noclust_fixed = false;
  size_t trials_to_fix = 0;
  size_t total_trials = 0;
  size_t noclust_trials = 0;
  size_t screenshots = 0;
  bool operator==(const Outcome&) const = default;
};

Outcome OutcomeOf(const ScenarioRun& run) {
  return {run.ocasta.fixed,        run.noclust.fixed,         run.ocasta.trials_to_fix,
          run.ocasta.total_trials, run.noclust.total_trials, run.ocasta.unique_screenshots};
}

// RunScenario as bench_table4_recovery calls it: default parameters, then
// the tuned ones when the error needs tuning and was not fixed.
Outcome RepairOnce(const MachineTrace& machine, const ErrorScenario& scenario) {
  ScenarioRunOptions options;
  ScenarioRun run = RunScenario(machine, scenario, options);
  if (!run.ocasta.fixed && scenario.needs_tuning) {
    options.use_tuned_params = true;
    run = RunScenario(machine, scenario, options);
  }
  return OutcomeOf(run);
}

// The same steps RunScenario takes, composed from the layers' public
// functions with a span around each call. `root` is the scenarios.run
// span's index; its self time is the part of the pipeline no layer span
// covers.
ScenarioRun TracedRunScenario(const MachineTrace& machine, const ErrorScenario& scenario,
                              bool tuned, SpanRecorder& rec, uint64_t id) {
  const int64_t root = rec.Begin("scenarios.run", id, -1);
  int64_t s = rec.Begin("scenarios.copy", id, root);
  MachineTrace run_machine = machine;
  rec.End(s);
  const AppSchema& schema = run_machine.SchemaFor(scenario.app);
  const ScenarioRunOptions options;
  const TimeMicros t_inj = run_machine.end_time - Days(options.injection_days_before_end);
  const ConfigMap good_state = SnapshotAt(run_machine, scenario.app, t_inj);
  const std::vector<Corruption> corruptions = ResolveCorruptions(scenario.corruptions, good_state);
  std::set<std::string> frozen_keys;
  for (const Corruption& corruption : corruptions) {
    frozen_keys.insert(corruption.key);
    for (const SchemaGroup& group : schema.groups) {
      for (const KeySpec& key : group.keys) {
        if (key.path != corruption.key) continue;
        for (const KeySpec& member : group.keys) frozen_keys.insert(member.path);
      }
    }
  }
  run_machine.trace.RemoveEventsForKeys(scenario.app, frozen_keys, t_inj);

  s = rec.Begin("ttkv.build", id, root);
  const TTKV ttkv_clean = BuildAppTtkv(run_machine, scenario.app);
  rec.End(s);
  ClusteringParams params = options.params;
  if (tuned && scenario.needs_tuning) {
    params.threshold_correlation = scenario.tuned_threshold;
    params.window_seconds = scenario.tuned_window_seconds;
  }
  s = rec.Begin("clustering.cluster_keys", id, root);
  const ClusterSet clean_clusters = ClusterKeys(ttkv_clean, params);
  rec.End(s);

  InjectionSpec injection;
  injection.app = scenario.app;
  injection.at = t_inj;
  injection.corruptions = corruptions;
  injection.spurious_writes = options.spurious_writes;
  s = rec.Begin("scenarios.inject", id, root);
  InjectError(run_machine, injection);
  rec.End(s);

  s = rec.Begin("ttkv.build", id, root);
  const TTKV ttkv = BuildAppTtkv(run_machine, scenario.app);
  rec.End(s);
  s = rec.Begin("clustering.remap", id, root);
  const ClusterSet clusters = RemapClusters(clean_clusters, ttkv_clean, ttkv, params.window_seconds);
  rec.End(s);

  const ConfigMap current_state = run_machine.final_configs.at(scenario.app);
  const RequiredKeyOracle oracle(OracleRequirements(scenario, good_state));
  const Trial trial{scenario.app,
                    [schema](ConfigStore& store) { return RenderApp(schema, store); }};
  RepairConfig config;
  config.strategy = options.strategy;
  config.start_time = run_machine.end_time - Days(options.injection_days_before_end);
  config.window_seconds = params.window_seconds;
  config.cost = options.cost;

  ScenarioRun run;
  run.scenario = scenario;
  {
    s = rec.Begin("repair.search", id, root);
    RepairController controller(ttkv, clusters, current_state, schema.store, trial, oracle);
    run.ocasta = controller.Run(config);
    rec.End(s);
  }
  {
    s = rec.Begin("repair.noclust", id, root);
    const ClusterSet singles = SingletonClusters(ttkv);
    RepairController controller(ttkv, singles, current_state, schema.store, trial, oracle);
    run.noclust = controller.Run(config);
    rec.End(s);
  }
  rec.End(root);
  return run;
}

Outcome TracedRepairOnce(const MachineTrace& machine, const ErrorScenario& scenario,
                         SpanRecorder& rec, uint64_t id) {
  ScenarioRun run = TracedRunScenario(machine, scenario, false, rec, id);
  if (!run.ocasta.fixed && scenario.needs_tuning) {
    run = TracedRunScenario(machine, scenario, true, rec, id);
  }
  return OutcomeOf(run);
}

template <typename T>
std::vector<T> Shuffled(std::vector<T> v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.next_below(i)]);
  return v;
}

}  // namespace

void RunRepairWorkload(const Options& opt, Report& report) {
  // Set-up: generate the nine Table I machines and build each Table II
  // application's cross-machine TTKV, several times; the last one is used.
  std::vector<double> setup_s;
  Inputs inputs;
  for (int rep = 0; rep < (opt.trace ? 1 : 3); ++rep) {
    const int64_t t0 = NowNs();
    inputs = BuildInputs();
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  Rng rng(opt.seed ^ 0x7ab1e4ULL);
  const std::vector<ErrorScenario> scenarios = AllScenarios();
  Fnv order_hash;

  // Untraced passes until the time is up (at least one); a traced run
  // spends half its time on them and half on traced passes.
  std::map<int, Outcome> reference;
  std::vector<double> repair_us, table2_us;
  std::vector<double> accuracy, screens_mean;
  std::vector<size_t> fixed_counts, noclust_counts;
  size_t passes = 0;
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const int64_t start = NowNs();
  while (passes == 0 || static_cast<double>(NowNs() - start) / 1e9 < untraced_s) {
    size_t fixed = 0, noclust = 0, screens = 0;
    for (const ErrorScenario& sc : Shuffled(scenarios, rng)) {
      order_hash.Add(static_cast<int64_t>(sc.id));
      const int64_t t0 = NowNs();
      const Outcome o = RepairOnce(inputs.Machine(sc.machine), sc);
      repair_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      report.Check(o.fixed, "Ocasta did not fix error #" + std::to_string(sc.id));
      report.Check(o.noclust_fixed == (kNoClustFails.count(sc.id) == 0),
                   "NoClust outcome differs from Table IV for error #" + std::to_string(sc.id));
      auto [it, inserted] = reference.emplace(sc.id, o);
      report.Check(inserted || it->second == o,
                   "error #" + std::to_string(sc.id) + " repaired differently across passes");
      fixed += o.fixed ? 1 : 0;
      noclust += o.noclust_fixed ? 1 : 0;
      screens += o.fixed ? o.screenshots : 0;
    }
    size_t multi = 0, correct = 0;
    std::vector<size_t> app_order(inputs.apps.size());
    for (size_t i = 0; i < app_order.size(); ++i) app_order[i] = i;
    const int64_t t0 = NowNs();
    for (size_t index : Shuffled(app_order, rng)) {
      const AppInput& app = inputs.apps[index];
      order_hash.Add(app.schema.name);
      const ClusterSet clusters = ClusterKeys(app.ttkv, ClusteringParams{});
      const AccuracyReport r = EvaluateClusters(app.schema.name, clusters, app.ttkv,
                                                GroundTruth::FromSchema(app.schema));
      multi += r.multi_clusters;
      correct += r.correct_multi;
    }
    table2_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    fixed_counts.push_back(fixed);
    noclust_counts.push_back(noclust);
    accuracy.push_back(multi == 0 ? 0 : 100.0 * static_cast<double>(correct) / static_cast<double>(multi));
    screens_mean.push_back(fixed == 0 ? 0 : static_cast<double>(screens) / static_cast<double>(fixed));
    report.AddAttempts(scenarios.size() + 1, scenarios.size() - fixed);
    ++passes;
  }
  for (size_t i = 1; i < passes; ++i) {
    report.Check(accuracy[i] == accuracy[0], "Table II accuracy differs across passes");
  }
  report.Text("schedule_hash", order_hash.Hex());

  const Summary repair = Summarize(repair_us);
  const Summary table2 = Summarize(table2_us);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const std::string tag = opt.trace ? "untraced." : "";
  report.Set(tag + "setup_s", Median(setup_s));
  report.Set(tag + "op_p50_us", repair.p50);
  report.Set(tag + "repair_tail_us", repair.tail);
  report.Set(tag + "repair_tail_pct", repair.tail_percentile);
  report.Set(tag + "repair_count", static_cast<double>(repair.count));
  report.Set("table2_p50_ms", table2.p50 / 1e3);
  report.Set("table2_tail_ms", table2.tail / 1e3);
  report.Set("table2_tail_pct", table2.tail_percentile);
  report.Set("table2_count", static_cast<double>(table2.count));
  report.Set(tag + "rss_mb", static_cast<double>(usage.ru_maxrss) / 1e3);
  report.Set("repair_p50_ms", repair.p50 / 1e3);
  report.Set("repair_p95_ms", Percentile(repair_us, 95) / 1e3);
  report.Set("errors_fixed", static_cast<double>(fixed_counts[0]));
  report.Set("noclust_fixed", static_cast<double>(noclust_counts[0]));
  report.Set("screenshots_mean", screens_mean[0]);
  report.Set("accuracy_pct", accuracy[0]);
  report.Set("passes", static_cast<double>(passes));
  if (!opt.trace) return;

  // Traced passes: the decomposed pipeline, checked against RunScenario.
  SpanRecorder rec;
  std::vector<double> traced_us;
  size_t traced_passes = 0;
  size_t trials = 0;
  const int64_t tstart = NowNs();
  while (traced_passes == 0 || static_cast<double>(NowNs() - tstart) / 1e9 < opt.seconds / 2) {
    trials = 0;
    for (const ErrorScenario& sc : Shuffled(scenarios, rng)) {
      const uint64_t id = traced_passes * 100 + static_cast<uint64_t>(sc.id);
      const int64_t t0 = NowNs();
      const Outcome o = TracedRepairOnce(inputs.Machine(sc.machine), sc, rec, id);
      traced_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      report.Check(o == reference.at(sc.id), "traced pipeline differs from RunScenario on error #" +
                                                 std::to_string(sc.id));
      trials += o.total_trials + o.noclust_trials;
    }
    ++traced_passes;
  }
  const std::vector<Span>& spans = rec.spans();
  const std::vector<int64_t> self = SelfTimes(spans);
  // Per scenario repair (trace id): milliseconds per layer.
  std::map<std::string, std::map<uint64_t, double>> per_layer;
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    const double ms = static_cast<double>(name == "scenarios.run"
                                              ? self[i]
                                              : spans[i].end_ns - spans[i].start_ns) /
                      1e6;
    per_layer[name][spans[i].trace_id] += ms;
  }
  auto median_ms = [&](const char* name) {
    std::vector<double> v;
    for (const auto& [id, ms] : per_layer[name]) v.push_back(ms);
    return Median(v);
  };
  report.Set("ttkv.build_ms", median_ms("ttkv.build"));
  report.Set("clustering.cluster_keys_ms", median_ms("clustering.cluster_keys"));
  report.Set("repair.search_ms", median_ms("repair.search"));
  report.Set("repair.noclust_ms", median_ms("repair.noclust"));
  report.Set("repair.trials", static_cast<double>(trials));
  report.Set("scenarios.unattributed_ms", median_ms("scenarios.run"));
  report.Set("traced.op_p50_us", Median(traced_us));

  std::ofstream f(opt.work_dir + "/spans.tsv");
  f << "name\ttrace_id\tparent\tstart_ns\tend_ns\n";
  for (const Span& s : spans) {
    f << s.name << '\t' << s.trace_id << '\t' << s.parent << '\t' << s.start_ns << '\t'
      << s.end_ns << '\n';
  }
}

}  // namespace perfbench
