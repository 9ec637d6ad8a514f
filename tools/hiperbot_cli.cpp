// hiperbot — command-line autotuning over CSV datasets or the built-in
// simulated applications.
//
//   hiperbot info       --csv runs.csv | --dataset kripke
//   hiperbot tune       --csv runs.csv --method hiperbot --budget 100
//                       [--batch 4] [--fail-rate 0.2] [--crash-rate 0.05]
//                       [--journal tune.hpbj] [--eval-timeout 500]
//                       [--max-seconds 60] [--trace tune.trace.jsonl]
//                       [--metrics-out tune.metrics.json]
//   hiperbot tune       --csv runs.csv --resume tune.hpbj
//   hiperbot importance --csv runs.csv [--alpha 0.2]
//   hiperbot compare    --csv runs.csv --methods hiperbot,geist,random
//                       --budget 100 --reps 10 [--ell 5]
//   hiperbot transfer   --source-csv small_scale.csv --csv target.csv
//                       --budget 150 [--weight 2.0]
//   hiperbot serve      --socket /tmp/hpb.sock | --port 7421
//                       [--session-dir sessions] [--max-resident 1000]
//                       [--max-connections 256] [--max-pending 64]
//                       [--trace serve.trace.jsonl] [--metrics-out m.json]
//
// The CSV format is one header row (parameter columns, objective last) and
// one row per measured configuration — the same layout `info --export`
// writes for the built-in datasets.
#include <atomic>
#include <chrono>
#include <csignal>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>

#include "apps/registry.hpp"
#include "common/cli.hpp"
#include "core/engine.hpp"
#include "core/hiperbot.hpp"
#include "core/importance.hpp"
#include "core/history_io.hpp"
#include "core/journal.hpp"
#include "core/surrogate.hpp"
#include "core/stopping.hpp"
#include "common/fsio.hpp"
#include "core/session_manager.hpp"
#include "eval/experiment.hpp"
#include "eval/methods.hpp"
#include "eval/metrics.hpp"
#include "eval/report.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/factory.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "stats/inference.hpp"
#include "tabular/csv.hpp"
#include "tabular/fault_injection.hpp"

namespace {

using hpb::tabular::TabularObjective;

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream is(csv);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (!item.empty()) {
      out.push_back(item);
    }
  }
  return out;
}

TabularObjective load_dataset(const hpb::cli::ArgParser& args) {
  const std::string& csv = args.get_string("csv");
  const std::string& dataset = args.get_string("dataset");
  HPB_REQUIRE(csv.empty() != dataset.empty(),
              "provide exactly one of --csv <file> or --dataset <name>");
  if (!csv.empty()) {
    return hpb::tabular::load_csv(csv);
  }
  return hpb::apps::dataset_by_name(dataset).make();
}

int cmd_info(const hpb::cli::ArgParser& args) {
  const TabularObjective ds = load_dataset(args);
  std::cout << "dataset:        " << ds.name() << '\n'
            << "configurations: " << ds.size() << '\n'
            << "parameters:     " << ds.space().num_params() << '\n';
  for (std::size_t p = 0; p < ds.space().num_params(); ++p) {
    const auto& param = ds.space().param(p);
    std::cout << "  " << std::left << std::setw(12) << param.name()
              << param.num_levels() << " levels:";
    for (std::size_t l = 0; l < param.num_levels() && l < 8; ++l) {
      std::cout << ' ' << param.level_label(l);
    }
    if (param.num_levels() > 8) {
      std::cout << " ...";
    }
    std::cout << '\n';
  }
  std::cout << "objective:      best " << ds.best_value() << ", median "
            << ds.percentile_value(50.0) << ", worst " << ds.worst_value()
            << '\n'
            << "best config:    " << ds.space().to_string(ds.best_config())
            << '\n';
  const std::string& export_path = args.get_string("export");
  if (!export_path.empty()) {
    ds.write_csv(export_path);
    std::cout << "exported to:    " << export_path << '\n';
  }
  return 0;
}

// Raised by SIGINT/SIGTERM; the engine checks it between rounds and winds
// the session down with a resumable journal and a partial result. A lock-
// free atomic store is the only async-signal-safe thing the handler does.
std::atomic<bool> g_stop{false};
static_assert(std::atomic<bool>::is_always_lock_free);

void handle_shutdown_signal(int) {
  g_stop.store(true, std::memory_order_relaxed);
}

// `serve` distinguishes the two shutdown signals: SIGTERM requests a
// graceful drain (stop accepting, answer everything already sent,
// checkpoint, exit), SIGINT a prompt stop. Both are only flag stores.
std::atomic<bool> g_drain{false};
static_assert(std::atomic<bool>::is_always_lock_free);

void handle_drain_signal(int) {
  g_drain.store(true, std::memory_order_relaxed);
}

int cmd_tune(const hpb::cli::ArgParser& args) {
  TabularObjective ds = load_dataset(args);

  const std::string& resume_path = args.get_string("resume");
  const std::string journal_path = args.was_set("journal")
                                       ? args.get_string("journal")
                                       : hpb::eval::journal_path_from_env();
  HPB_REQUIRE(resume_path.empty() || journal_path.empty(),
              "tune: --resume continues its own journal; do not also pass "
              "--journal / HPB_JOURNAL");
  std::string trace_path = args.was_set("trace")
                               ? args.get_string("trace")
                               : hpb::eval::trace_path_from_env();
  const std::string& metrics_out = args.get_string("metrics-out");

  // Session parameters: from the flags for a fresh session, from the
  // journal header for a resumed one — a resumed run *is* the same run, so
  // its method/seed/batch/stopping/fault setup is not renegotiable.
  std::string method = args.get_string("method");
  std::uint64_t seed = static_cast<std::uint64_t>(args.get_size("seed"));
  std::size_t batch = args.get_size("batch");
  std::string warm_start = args.get_string("warm-start");
  hpb::core::StopConfig stop;
  stop.max_evaluations = args.get_size("budget");
  stop.stagnation_patience = args.get_size("patience");
  if (args.was_set("target")) {
    stop.target_value = args.get_double("target");
  }
  hpb::tabular::FaultConfig faults{.fail_rate = args.get_double("fail-rate"),
                                   .crash_rate = args.get_double("crash-rate"),
                                   .hang_rate = args.get_double("hang-rate"),
                                   .seed = seed};

  std::optional<hpb::core::JournalContents> resumed;
  if (!resume_path.empty()) {
    resumed = hpb::core::read_journal(resume_path);
    if (resumed->finalized) {
      std::cout << "journal " << resume_path << " is already complete ("
                << resumed->finish_reason << "); nothing to resume\n";
      return 0;
    }
    const hpb::core::JournalHeader& h = resumed->header;
    HPB_REQUIRE(h.dataset == ds.name(),
                "tune --resume: journal was recorded on dataset '" +
                    h.dataset + "' but --csv/--dataset loaded '" + ds.name() +
                    "'");
    method = h.method;
    seed = h.seed;
    batch = h.batch_size;
    warm_start = h.warm_start;
    stop.max_evaluations = h.max_evaluations;
    stop.stagnation_patience = h.stagnation_patience;
    stop.target_value = h.target_value;
    faults = {.fail_rate = h.fail_rate,
              .crash_rate = h.crash_rate,
              .hang_rate = h.hang_rate,
              .seed = h.seed};
    // The trace file is part of the session: a resumed run appends to the
    // journaled trace (span ids continue after the crash point) rather
    // than starting a second file.
    if (!h.trace_path.empty()) {
      HPB_REQUIRE(trace_path.empty() || trace_path == h.trace_path,
                  "tune --resume: journal traces to '" + h.trace_path +
                      "'; do not pass a different --trace / HPB_TRACE");
      trace_path = h.trace_path;
    }
  }
  // Runtime knobs (not session identity): allowed to differ on resume.
  stop.max_wall_time_seconds = args.get_double("max-seconds");
  const std::size_t timeout_ms =
      args.was_set("eval-timeout")
          ? args.get_size("eval-timeout")
          : hpb::eval::eval_timeout_ms_from_env(0);

  auto tuner = hpb::eval::make_named_tuner(method, ds, seed);
  if (!warm_start.empty()) {
    const std::size_t rows =
        hpb::core::warm_start_from_csv(warm_start, ds.space(), *tuner);
    std::cout << "warm start: replayed " << rows << " observations from "
              << warm_start << '\n';
  }

  std::optional<hpb::core::JournalWriter> journal;
  std::vector<hpb::core::Observation> replayed;
  if (resumed) {
    replayed = hpb::core::replay_journal(*tuner, ds.space(), *resumed);
    std::cout << "resume: replayed " << replayed.size()
              << " journaled observations (" << resumed->rounds.size()
              << " rounds) from " << resume_path << '\n';
    journal.emplace(hpb::core::JournalWriter::append(resume_path, *resumed));
  } else if (!journal_path.empty()) {
    hpb::core::JournalHeader h;
    h.method = method;
    h.dataset = ds.name();
    h.warm_start = warm_start;
    h.seed = seed;
    h.batch_size = batch;
    h.num_params = ds.space().num_params();
    h.max_evaluations = stop.max_evaluations;
    h.stagnation_patience = stop.stagnation_patience;
    h.target_value = stop.target_value;
    h.fail_rate = faults.fail_rate;
    h.crash_rate = faults.crash_rate;
    h.hang_rate = faults.hang_rate;
    h.trace_path = trace_path;
    journal.emplace(hpb::core::JournalWriter::create(journal_path, h));
  }

  // Observability sinks; absent flags leave the recorder all-null and the
  // run bitwise identical to an untraced one.
  std::optional<hpb::obs::JsonlTraceSink> trace_sink;
  if (!trace_path.empty()) {
    trace_sink.emplace(resumed
                           ? hpb::obs::JsonlTraceSink::append_to(trace_path)
                           : hpb::obs::JsonlTraceSink::create(trace_path));
  }
  hpb::obs::MetricsRegistry metrics;

  std::signal(SIGINT, handle_shutdown_signal);
  std::signal(SIGTERM, handle_shutdown_signal);

  const hpb::core::TuningEngine engine(
      {.batch_size = batch,
       .eval_deadline = std::chrono::milliseconds(timeout_ms),
       .journal = journal ? &*journal : nullptr,
       .stop_flag = &g_stop,
       .recorder = {.trace = trace_sink ? &*trace_sink : nullptr,
                    .metrics = metrics_out.empty() ? nullptr : &metrics}});
  // Pass-through when all rates are 0 (the default).
  hpb::tabular::FaultInjectingObjective faulty(ds, faults);
  const auto stopped = engine.run_until(*tuner, faulty, stop, replayed,
                                        resumed ? resumed->rounds.size() : 0);
  const auto& result = stopped.result;
  std::cout << "method:      " << tuner->name() << '\n'
            << "evaluations: " << result.history.size() << " (stopped: ";
  switch (stopped.reason) {
    case hpb::core::StopReason::kBudgetExhausted:
      std::cout << "budget exhausted";
      break;
    case hpb::core::StopReason::kStagnation:
      std::cout << "stagnation";
      break;
    case hpb::core::StopReason::kTargetReached:
      std::cout << "target reached";
      break;
    case hpb::core::StopReason::kWallTime:
      std::cout << "wall-clock limit";
      break;
    case hpb::core::StopReason::kInterrupted:
      std::cout << "interrupted";
      break;
  }
  std::cout << ")\n";
  if (result.num_failed > 0) {
    std::cout << "failed:      " << result.num_failed << " evaluations\n";
  }
  if (result.history.size() == result.num_failed) {
    std::cout << "best value:  n/a (no successful evaluation)\n";
  } else {
    std::cout << "best value:  " << result.best_value << "  (exhaustive best "
              << ds.best_value() << ")\n"
              << "best config: " << ds.space().to_string(result.best_config)
              << '\n';
  }
  if (!result.best_so_far.empty()) {
    std::cout << "trajectory:  ";
    const std::size_t n = result.best_so_far.size();
    for (std::size_t i = 0; i < n; i += std::max<std::size_t>(1, n / 8)) {
      std::cout << result.best_so_far[i] << ' ';
    }
    std::cout << result.best_so_far.back() << '\n';
  }
  if (stopped.reason == hpb::core::StopReason::kInterrupted && journal) {
    std::cout << "session interrupted; resume with: hiperbot tune "
              << (args.get_string("csv").empty()
                      ? "--dataset " + args.get_string("dataset")
                      : "--csv " + args.get_string("csv"))
              << " --resume " << journal->path() << '\n';
  }
  const std::string& history_out = args.get_string("history-out");
  if (!history_out.empty()) {
    hpb::core::write_history_csv(history_out, ds.space(), result.history);
    std::cout << "history written to " << history_out << '\n';
  }
  if (trace_sink) {
    trace_sink->flush();
    std::cout << "trace written to " << trace_sink->path() << '\n';
  }
  if (!metrics_out.empty()) {
    metrics.write_json(metrics_out);
    std::cout << "metrics written to " << metrics_out << '\n';
  }
  return 0;
}

int cmd_importance(const hpb::cli::ArgParser& args) {
  const TabularObjective ds = load_dataset(args);
  const auto entries =
      hpb::core::dataset_importance(ds, args.get_double("alpha"));
  std::cout << "parameter importance (JS divergence, alpha="
            << args.get_double("alpha") << "):\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    std::cout << "  " << std::left << std::setw(4) << (i + 1) << std::setw(16)
              << entries[i].parameter << std::fixed << std::setprecision(4)
              << entries[i].js_divergence << '\n';
  }
  return 0;
}

int cmd_transfer(const hpb::cli::ArgParser& args) {
  // Source: a fully observed small-scale study. Target: the expensive
  // domain to tune. Both must share the parameter structure.
  const std::string& source_path = args.get_string("source-csv");
  HPB_REQUIRE(!source_path.empty(), "transfer: --source-csv is required");
  const TabularObjective source = hpb::tabular::load_csv(source_path);
  TabularObjective target = load_dataset(args);
  HPB_REQUIRE(source.space().num_params() == target.space().num_params(),
              "transfer: source and target parameter counts differ");

  hpb::core::HiPerBOtConfig config;
  config.transfer_weight = args.get_double("weight");
  // The prior is estimated over the *target's* space object so densities
  // and candidates line up; source rows are mapped through their shared
  // parameter structure by re-encoding each configuration's levels.
  std::vector<hpb::space::Configuration> source_configs(
      source.configs().begin(), source.configs().end());
  std::vector<double> source_values(source.values().begin(),
                                    source.values().end());
  hpb::core::HiPerBOt tuner(target.space_ptr(), config,
                            args.get_size("seed"));
  tuner.set_transfer_prior(hpb::core::make_transfer_prior(
      target.space_ptr(), source_configs, source_values, config.quantile));

  const hpb::core::TuningEngine engine({.batch_size = args.get_size("batch")});
  const auto result = engine.run(tuner, target, args.get_size("budget"));
  std::cout << "source:      " << source.name() << " (" << source.size()
            << " observed runs, best " << source.best_value() << ")\n"
            << "target:      " << target.name() << " (" << target.size()
            << " configs)\n"
            << "prior weight w = " << config.transfer_weight << '\n'
            << "evaluations: " << result.history.size() << '\n'
            << "best value:  " << result.best_value << "  (exhaustive best "
            << target.best_value() << ")\n"
            << "best config: " << target.space().to_string(result.best_config)
            << '\n';
  return 0;
}

int cmd_serve(const hpb::cli::ArgParser& args) {
  const std::string& socket_path = args.get_string("socket");
  const bool tcp = args.was_set("port");
  HPB_REQUIRE(!socket_path.empty() || tcp,
              "serve: pass --socket <path>, --port <n> (0 = ephemeral), or "
              "both");
  // Create the session-journal root before binding anything: a typo'd
  // --session-dir fails here with a clear message instead of aborting the
  // first create verb mid-service.
  const std::string& session_dir = args.get_string("session-dir");
  hpb::fs::ensure_dir(session_dir);

  std::optional<hpb::obs::JsonlTraceSink> trace_sink;
  const std::string& trace_path = args.get_string("trace");
  if (!trace_path.empty()) {
    trace_sink.emplace(hpb::obs::JsonlTraceSink::create(trace_path));
  }
  const std::string& metrics_out = args.get_string("metrics-out");
  hpb::obs::MetricsRegistry metrics;

  hpb::core::SessionManagerConfig mconfig;
  mconfig.journal_dir = session_dir;
  mconfig.max_resident = args.get_size("max-resident");
  mconfig.max_pending_per_session = args.get_size("max-pending");
  mconfig.recorder = {.trace = trace_sink ? &*trace_sink : nullptr,
                      .metrics = metrics_out.empty() ? nullptr : &metrics};
  hpb::core::SessionManager manager(hpb::service::dataset_session_factory(),
                                    std::move(mconfig));
  // Cold-start recovery ran in the constructor: every resumable journal
  // in the session dir is already adopted, every unreadable one moved to
  // *.hpbj.corrupt. Say so — after a crash this line is the operator's
  // first confirmation that nothing was lost.
  const hpb::core::RecoveryReport& recovery = manager.recovery();
  if (!recovery.adopted.empty() || !recovery.finished.empty() ||
      !recovery.quarantined.empty()) {
    std::cout << "recovered session dir: " << recovery.adopted.size()
              << " adopted, " << recovery.finished.size() << " finished, "
              << recovery.quarantined.size() << " quarantined\n";
    for (const std::string& name : recovery.quarantined) {
      std::cout << "  quarantined " << name << " -> "
                << manager.journal_path(name) << ".corrupt\n";
    }
  }
  hpb::service::WireService wire(manager);

  std::signal(SIGINT, handle_shutdown_signal);
  std::signal(SIGTERM, handle_drain_signal);

  hpb::service::LineServer server(
      [&wire](std::string_view line) { return wire.handle_line(line); },
      {.unix_path = socket_path,
       .tcp_port = tcp ? static_cast<int>(args.get_size("port")) : -1,
       .stop_flag = &g_stop,
       .max_connections = args.get_size("max-connections"),
       .drain_flag = &g_drain});
  if (!socket_path.empty()) {
    std::cout << "listening on unix socket " << socket_path << '\n';
  }
  if (tcp) {
    // The actual port matters with --port 0; clients scrape this line.
    std::cout << "listening on 127.0.0.1:" << server.port() << '\n';
  }
  std::cout << "session dir " << session_dir
            << "; Ctrl-C stops, SIGTERM drains" << std::endl;
  server.serve();
  if (g_drain.load(std::memory_order_relaxed) &&
      !g_stop.load(std::memory_order_relaxed)) {
    // Journals are fsync'd per verb; the checkpoint sweep verifies every
    // resident session's durability before the process exits.
    const std::size_t checkpointed = manager.checkpoint_all();
    std::cout << "drained; checkpointed " << checkpointed
              << " resident sessions\n";
  }
  server.stop();
  std::cout << "served " << server.connections_accepted()
            << " connections (" << server.connections_shed()
            << " shed); sessions: " << manager.created_count()
            << " created, " << manager.resumed_count() << " resumed, "
            << manager.evicted_count() << " evicted, "
            << manager.closed_count() << " closed ("
            << manager.resident_count() << " resident, "
            << manager.degraded_count() << " degraded at shutdown)\n";
  if (trace_sink) {
    trace_sink->flush();
    std::cout << "trace written to " << trace_sink->path() << '\n';
  }
  if (!metrics_out.empty()) {
    metrics.write_json(metrics_out);
    std::cout << "metrics written to " << metrics_out << '\n';
  }
  return 0;
}

int cmd_compare(const hpb::cli::ArgParser& args) {
  TabularObjective ds = load_dataset(args);
  const auto methods = split_list(args.get_string("methods"));
  HPB_REQUIRE(!methods.empty(), "compare: --methods must name >= 1 tuner");
  const std::size_t budget = args.get_size("budget");
  const std::size_t reps = args.get_size("reps");
  const double ell = args.get_double("ell");

  // Per method: the per-rep best values and recalls.
  std::vector<std::vector<double>> bests(methods.size());
  std::vector<std::vector<double>> recalls(methods.size());
  const hpb::core::TuningEngine engine({.batch_size = args.get_size("batch")});
  for (std::size_t m = 0; m < methods.size(); ++m) {
    hpb::Rng seeder(args.get_size("seed") + 17 * m);
    for (std::size_t rep = 0; rep < reps; ++rep) {
      auto tuner =
          hpb::eval::make_named_tuner(methods[m], ds, seeder.next_u64());
      const auto result = engine.run(*tuner, ds, budget);
      bests[m].push_back(result.best_value);
      recalls[m].push_back(
          hpb::eval::recall_percentile(ds, result.history, budget, ell));
    }
  }

  std::cout << "dataset " << ds.name() << ", budget " << budget << ", reps "
            << reps << ", recall ell " << ell << "%\n"
            << "exhaustive best: " << ds.best_value() << "\n\n"
            << std::left << std::setw(12) << "method" << std::setw(24)
            << "best (mean, 95% CI)" << std::setw(20) << "recall (mean)"
            << "p vs " << methods[0] << '\n';
  for (std::size_t m = 0; m < methods.size(); ++m) {
    const auto best_stats = hpb::stats::summarize(bests[m]);
    const auto ci = hpb::stats::bootstrap_mean_ci(bests[m]);
    const auto recall_stats = hpb::stats::summarize(recalls[m]);
    std::ostringstream best_cell;
    best_cell << std::fixed << std::setprecision(3) << best_stats.mean()
              << " [" << ci.lo << ", " << ci.hi << "]";
    std::cout << std::left << std::setw(12) << methods[m] << std::setw(24)
              << best_cell.str() << std::setw(20) << recall_stats.mean();
    if (m == 0 || reps < 2) {
      std::cout << "-";
    } else {
      const auto test = hpb::stats::mann_whitney_u(bests[0], bests[m]);
      std::cout << std::setprecision(4) << test.p_value;
    }
    std::cout << '\n';
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  hpb::cli::ArgParser args(
      "hiperbot",
      "Bayesian-optimization autotuning over CSV datasets or the built-in "
      "simulated applications.\ncommands: info, tune, importance, compare, "
      "transfer, serve");
  args.add_string("csv", "", "CSV dataset (params..., objective)")
      .add_string("dataset", "",
                  "built-in dataset: kripke, kripke_energy, hypre, lulesh, "
                  "openAtom, systolic_small")
      .add_string("method", "hiperbot",
                  "tuner: hiperbot, geist, random, gp, anneal, hillclimb, brt, "
                  "ridge, exhaustive")
      .add_string("methods", "hiperbot,geist,random",
                  "comma list of tuners for `compare`")
      .add_string("export", "", "`info`: write the dataset to this CSV path")
      .add_string("history-out", "",
                  "`tune`: write the evaluated history to this CSV path")
      .add_string("warm-start", "",
                  "`tune`: replay a previous history CSV before tuning")
      .add_string("journal", "",
                  "`tune`: write-ahead observation journal (crash-tolerant; "
                  "default $HPB_JOURNAL)")
      .add_string("resume", "",
                  "`tune`: resume an interrupted session from its journal "
                  "(method/seed/budget come from the journal header)")
      .add_string("trace", "",
                  "`tune`: write JSON-lines spans (rounds, evaluations, "
                  "tuner fits) to this file (default $HPB_TRACE)")
      .add_string("metrics-out", "",
                  "`tune`: write the aggregated metrics registry as JSON to "
                  "this file at session end")
      .add_size("eval-timeout", 0,
                "`tune`: per-evaluation watchdog deadline in ms; overdue "
                "evaluations become timeout failures (0 = off; default "
                "$HPB_EVAL_TIMEOUT_MS)")
      .add_double("max-seconds", 0.0,
                  "`tune`: wall-clock limit for the session, checked between "
                  "rounds (0 = off)")
      .add_double("hang-rate", 0.0,
                  "`tune`: fraction of the space hanging until the watchdog "
                  "cancels it (fault injection)")
      .add_string("source-csv", "",
                  "`transfer`: fully observed source-domain CSV")
      .add_double("weight", 2.0, "`transfer`: prior mixture weight w")
      .add_size("budget", 100, "evaluation budget")
      .add_size("batch", 1,
                "suggest/observe batch size per engine round (1 = serial)")
      .add_size("reps", 10, "`compare`: replications per method")
      .add_size("seed", 42, "random seed")
      .add_size("patience", 0, "`tune`: stop after N evals w/o improvement")
      .add_double("target", 0.0, "`tune`: stop when best <= target")
      .add_double("fail-rate", 0.0,
                  "`tune`: fraction of the space failing permanently "
                  "(deterministic fault injection)")
      .add_double("crash-rate", 0.0,
                  "`tune`: per-attempt transient crash probability")
      .add_double("alpha", 0.2, "good/bad split quantile")
      .add_double("ell", 5.0, "recall percentile")
      .add_string("socket", "", "`serve`: unix-domain socket path")
      .add_size("port", 0,
                "`serve`: TCP port on 127.0.0.1 (0 = ephemeral, printed at "
                "startup)")
      .add_string("session-dir", "hpb_sessions",
                  "`serve`: root directory for per-session write-ahead "
                  "journals (created if missing)")
      .add_size("max-resident", 0,
                "`serve`: max in-memory sessions before LRU eviction to the "
                "journal (0 = unlimited)")
      .add_size("max-connections", 0,
                "`serve`: max simultaneous client connections; beyond it an "
                "accept is answered with an `overloaded` error and closed "
                "(0 = unlimited)")
      .add_size("max-pending", 0,
                "`serve`: per-session cap on outstanding async suggestions; "
                "a suggest beyond it is shed with an `overloaded` error "
                "(0 = unlimited)");

  try {
    args.parse(argc, argv);
    const auto& positional = args.positional();
    if (positional.empty()) {
      std::cerr << args.usage();
      return 2;
    }
    const std::string& command = positional.front();
    if (command == "info") {
      return cmd_info(args);
    }
    if (command == "tune") {
      return cmd_tune(args);
    }
    if (command == "importance") {
      return cmd_importance(args);
    }
    if (command == "compare") {
      return cmd_compare(args);
    }
    if (command == "transfer") {
      return cmd_transfer(args);
    }
    if (command == "serve") {
      return cmd_serve(args);
    }
    std::cerr << "unknown command '" << command << "'\n" << args.usage();
    return 2;
  } catch (const hpb::Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
