#include "harness/workloads.h"

#include <sys/resource.h>

#include <barrier>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>

#include "bench/queries.h"
#include "dist/dispatcher.h"
#include "dist/protocol.h"
#include "harness/layer_probes.h"
#include "harness/sample_stats.h"
#include "service/query_service.h"
#include "stats/collection_stats.h"
#include "storage/storage_tier.h"

#ifndef PERFBENCH_WORKER_BIN
#define PERFBENCH_WORKER_BIN ""
#endif

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr const char* kPaperThreaded = "paper_threaded";
constexpr const char* kServiceChurn = "service_churn";
constexpr const char* kDistCluster = "dist_cluster";

/// Threads of the threaded engine, service workers, and cluster workers:
/// with the dispatcher or clients mostly waiting, each workload keeps at
/// most three of the host's four cores busy.
constexpr int kParallelism = 2;

constexpr const char* kQueryKeys[kQueryCount] = {"q0", "q0b", "q1", "q1b",
                                                 "q2"};

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double Seconds(Clock::time_point start) { return MsSince(start) / 1000.0; }

const char* QueryText(int q) { return jparbench::kAllQueries[q].text; }

double MaxRssMb(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The engine configuration a workload runs under.
jpar::EngineOptions WorkloadEngineOptions(const std::string& workload) {
  jpar::EngineOptions options;
  options.rules = jpar::RuleOptions::All();
  if (workload == kServiceChurn) {
    options.exec.partitions = 1;
  } else {
    options.exec.partitions = kParallelism;
    options.exec.use_threads = true;
  }
  return options;
}

/// Samples of one kind of round (traced or untraced).
struct Window {
  std::vector<double> latency_ms[kQueryCount];
  double busy_s = 0;  // time inside query rounds
  uint64_t completed = 0;

  double QueriesPerSecond() const {
    return busy_s > 0 ? static_cast<double>(completed) / busy_s : 0;
  }
};

/// ExecStats of the traced rounds, folded per layer.
struct ExecTotals {
  uint64_t queries = 0;
  double scan_ms = 0, groupby_ms = 0, join_ms = 0, exchange_ms = 0;
  uint64_t exchange_bytes = 0, pipeline_bytes = 0, batches = 0, morsels = 0;
  double partition_ms = 0, thread_capacity_ms = 0;
  uint64_t peak_retained = 0;
  uint64_t tape_builds = 0, tape_hits = 0, columns_read = 0,
           blocks_pruned = 0, stats_paths_built = 0;
  uint64_t dist_frames = 0, dist_bytes = 0, dist_rounds = 0;

  void Add(const jpar::ExecStats& s, int threads) {
    ++queries;
    for (const jpar::StageStats& stage : s.stages) {
      const double busy = stage.SumPartitionMs();
      if (stage.name.rfind("DATASCAN", 0) == 0) {
        scan_ms += busy;
      } else if (stage.name.rfind("group-by", 0) == 0) {
        groupby_ms += busy;
      } else if (stage.name == "hash-join") {
        join_ms += busy;
      }
      exchange_ms += stage.exchange_ms;
      exchange_bytes += stage.exchange_bytes;
      pipeline_bytes += stage.pipeline_bytes;
      partition_ms += busy;
    }
    thread_capacity_ms += threads * s.real_ms;
    batches += s.batches_emitted;
    morsels += s.morsels_scanned;
    peak_retained = std::max(peak_retained, s.peak_retained_bytes);
    tape_builds += s.tape_builds;
    tape_hits += s.tape_hits;
    columns_read += s.columns_read;
    blocks_pruned += s.blocks_pruned;
    stats_paths_built += s.stats_paths_built;
    dist_frames += s.dist_frames;
    dist_bytes += s.dist_bytes;
    dist_rounds += s.dist_rounds;
  }

  /// Per-query means of every runtime, storage, stats and dist counter.
  void ReportTo(Report* r) const {
    const double n = queries > 0 ? static_cast<double>(queries) : 1;
    auto per = [n](double v) { return v / n; };
    r->Set("runtime.scan_ms", per(scan_ms), "ms");
    r->Set("runtime.groupby_ms", per(groupby_ms), "ms");
    r->Set("runtime.join_ms", per(join_ms), "ms");
    r->Set("runtime.exchange_ms", per(exchange_ms), "ms");
    r->Set("runtime.exchange_bytes", per(exchange_bytes), "bytes");
    r->Set("runtime.pipeline_bytes", per(pipeline_bytes), "bytes");
    r->Set("runtime.batches", per(batches), "count");
    r->Set("runtime.morsels", per(morsels), "count");
    r->Set("runtime.thread_util",
           thread_capacity_ms > 0 ? partition_ms / thread_capacity_ms : 0,
           "ratio");
    r->Set("runtime.peak_retained_mb",
           static_cast<double>(peak_retained) / (1 << 20), "MB");
    r->Set("storage.tape_builds", per(tape_builds), "count");
    r->Set("storage.tape_hits", per(tape_hits), "count");
    r->Set("storage.columns_read", per(columns_read), "count");
    r->Set("storage.blocks_pruned", per(blocks_pruned), "count");
    const double scanned =
        static_cast<double>(tape_hits + tape_builds + columns_read);
    r->Set("storage.hit_ratio",
           scanned > 0 ? (tape_hits + columns_read) / scanned : 0, "ratio");
    r->Set("stats.paths_built", per(stats_paths_built), "count");
    r->Set("dist.frames", per(dist_frames), "count");
    r->Set("dist.bytes", per(dist_bytes), "bytes");
    r->Set("dist.rounds", per(dist_rounds), "count");
  }
};

/// The end-to-end metrics of an untraced run.
void ReportEndToEnd(const Window& w, const std::vector<double>& setup_s,
                    double peak_rss_mb, const AnswerChecker& checker,
                    Report* r) {
  r->Set("setup_s", Median(setup_s), "s");
  for (int q = 0; q < kQueryCount; ++q) {
    const std::vector<double>& lat = w.latency_ms[q];
    const std::string key = kQueryKeys[q];
    r->Set(key + "_p50_ms", Median(lat), "ms");
    r->Set(key + "_tail_ms", TailValue(lat), "ms");
    char note[160];
    if (lat.size() > kTailBeyond) {
      std::snprintf(note, sizeof(note),
                    "%s_tail_ms is p%.1f of %zu samples (%zu beyond it)",
                    key.c_str(), TailPercentile(lat.size()), lat.size(),
                    kTailBeyond);
    } else {
      std::snprintf(note, sizeof(note),
                    "%s_tail_ms is the maximum: %zu samples support no "
                    "percentile with %zu beyond it",
                    key.c_str(), lat.size(), kTailBeyond);
    }
    r->notes.push_back(note);
  }
  r->Set("queries_per_s", w.QueriesPerSecond(), "1/s");
  r->Set("peak_rss_mb", peak_rss_mb, "MB");
  r->Set("ok_frac", 1.0 - checker.FailedFraction(), "ratio");
}

/// trace.overhead_pct: how much slower traced rounds ran than untraced.
void ReportTraceOverhead(const Window& untraced, const Window& traced,
                         Report* r) {
  const double base = untraced.QueriesPerSecond();
  const double with = traced.QueriesPerSecond();
  r->Set("trace.overhead_pct", with > 0 ? (base / with - 1.0) * 100.0 : 0,
         "%");
}

void ZeroWithNote(Report* r, const std::vector<std::string>& names,
                  const char* unit, const std::string& why) {
  for (const std::string& n : names) r->Set(n, 0, unit);
  std::string note;
  for (const std::string& n : names) note += (note.empty() ? "" : ", ") + n;
  r->notes.push_back(note + ": 0 by construction, " + why);
}

void ZeroServiceMetrics(Report* r, const std::string& why) {
  ZeroWithNote(r, {"service.overhead_p50_ms", "service.overhead_p95_ms"},
               "ms", why);
  ZeroWithNote(r, {"service.plan_cache_hit_ratio"}, "ratio", why);
  ZeroWithNote(r, {"service.queued_peak", "service.rejected"}, "count", why);
}

void ZeroDistMetrics(Report* r, const std::string& why) {
  ZeroWithNote(r, {"dist.overhead_ratio"}, "ratio", why);
  ZeroWithNote(r, {"dist.catalog_sync_mb"}, "MB", why);
  ZeroWithNote(r, {"dist.start_ms"}, "ms", why);
}

void ZeroStorageProbes(Report* r, const std::string& why) {
  ZeroWithNote(r,
               {"storage.acquire_tape_cold_ms", "storage.acquire_tape_warm_ms",
                "storage.get_column_ms"},
               "ms", why);
}

/// Probes shared by every traced run: front end and JSON layers.
jpar::Status ProbeCommonLayers(const jpar::Engine& engine,
                               const Corpus& corpus,
                               const std::vector<jpar::CompiledQuery>& plans,
                               Tracer* tracer, Report* r) {
  JPAR_RETURN_NOT_OK(ProbeFrontEnd(engine, tracer, r));
  return ProbeJson(corpus, FirstScanSteps(plans[0]), FirstScanSteps(plans[1]),
                   tracer, r);
}

jpar::Status CompileAll(const jpar::Engine& engine,
                        std::vector<jpar::CompiledQuery>* plans) {
  plans->clear();
  for (int q = 0; q < kQueryCount; ++q) {
    auto compiled = engine.Compile(QueryText(q));
    if (!compiled.ok()) return compiled.status();
    plans->push_back(std::move(compiled).ValueOrDie());
  }
  return jpar::Status::OK();
}

/// Runs rounds of the five queries until `seconds` of rounds have run;
/// in a traced run odd rounds are traced, so the overhead comparison
/// sees the same host phases. `run_round(traced, window)` runs one round
/// and returns its busy seconds. Every round runs the queries in the same
/// order, so each query meets the same neighbours (and, on
/// service_churn, the same rebuild work) in every round.
template <typename RoundFn>
void RunRounds(double seconds, bool trace, Tracer* tracer, Window* untraced,
               Window* traced, RoundFn run_round) {
  double elapsed = 0;
  for (int round = 0; elapsed < seconds; ++round) {
    const bool traced_round = trace && round % 2 == 1;
    tracer->set_active(traced_round);
    Window* w = traced_round ? traced : untraced;
    const double busy = run_round(traced_round, w);
    w->busy_s += busy;
    elapsed += busy;
  }
  tracer->set_active(false);
}

// ---------------------------------------------------------------------
// paper_threaded: one client, Engine::Execute, partitions=2 threaded.

jpar::Status RunPaperThreaded(const RunConfig& config, const Corpus& corpus,
                              AnswerChecker* checker, Tracer* tracer,
                              Report* report) {
  const jpar::EngineOptions options = WorkloadEngineOptions(kPaperThreaded);
  const jpar::Collection data = corpus.InMemory(0);

  std::vector<double> setup_s;
  std::unique_ptr<jpar::Engine> engine;
  std::vector<jpar::CompiledQuery> plans;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto start = Clock::now();
    engine = std::make_unique<jpar::Engine>(options);
    engine->catalog()->RegisterCollection("/sensors", data);
    JPAR_RETURN_NOT_OK(CompileAll(*engine, &plans));
    for (int q = 0; q < kQueryCount; ++q) {
      auto out = engine->Execute(plans[q]);
      checker->Check(0, q, out.status(), out.ok() ? out->items
                                                  : std::vector<jpar::Item>());
    }
    setup_s.push_back(Seconds(start));
  }

  Window untraced, traced;
  ExecTotals totals;
  RunRounds(config.seconds, config.trace, tracer, &untraced, &traced,
            [&](bool traced_round, Window* w) {
              double busy_ms = 0;
              for (int q = 0; q < kQueryCount; ++q) {
                const uint64_t req = tracer->NewRequest();
                Tracer::Scope root(tracer, kQueryKeys[q], req, 0);
                const auto start = Clock::now();
                jpar::Result<jpar::QueryOutput> out = [&] {
                  Tracer::Scope span(tracer, "engine.execute", req, root.id());
                  return engine->Execute(plans[q]);
                }();
                const double ms = MsSince(start);
                busy_ms += ms;
                Tracer::Scope check(tracer, "harness.check", req, root.id());
                if (checker->Check(0, q, out.status(),
                                   out.ok() ? out->items
                                            : std::vector<jpar::Item>())) {
                  w->latency_ms[q].push_back(ms);
                  ++w->completed;
                  if (traced_round) totals.Add(out->stats, kParallelism);
                }
              }
              return busy_ms / 1000.0;
            });

  if (!config.trace) {
    ReportEndToEnd(untraced, setup_s, MaxRssMb(RUSAGE_SELF), *checker,
                   report);
    return jpar::Status::OK();
  }
  totals.ReportTo(report);
  ReportTraceOverhead(untraced, traced, report);
  const std::string bypass = "paper_threaded runs no service or cluster";
  ZeroServiceMetrics(report, bypass);
  ZeroDistMetrics(report, bypass);
  ZeroStorageProbes(report,
                    "paper_threaded scans in-memory files (storage bypassed)");
  return ProbeCommonLayers(*engine, corpus, plans, tracer, report);
}

// ---------------------------------------------------------------------
// service_churn: two closed-loop sessions on a path-backed directory
// whose churned files are rewritten between rounds.

jpar::Status RunServiceChurn(const RunConfig& config, const Corpus& corpus,
                             AnswerChecker* checker, Tracer* tracer,
                             Report* report) {
  constexpr int kClients = 2;
  jpar::ServiceOptions options;
  options.engine = WorkloadEngineOptions(kServiceChurn);
  options.worker_threads = kParallelism;
  options.plan_cache_capacity = 128;

  std::vector<double> setup_s;
  std::unique_ptr<ChurnDirectory> dir;
  std::unique_ptr<jpar::QueryService> service;
  std::vector<std::shared_ptr<jpar::Session>> sessions;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    // Each repetition gets new paths, so in-memory entries and sidecars
    // of the previous one cannot serve it.
    sessions.clear();
    service.reset();
    if (dir != nullptr) dir->Remove();
    jpar::StorageManager::Instance().Clear();
    jpar::StatsStore::Instance().Clear();
    dir = std::make_unique<ChurnDirectory>(
        &corpus, config.data_dir + "/serve-" + std::to_string(rep));
    JPAR_RETURN_NOT_OK(dir->Create());

    const auto start = Clock::now();
    service = std::make_unique<jpar::QueryService>(options);
    service->catalog()->RegisterCollection("/sensors", dir->PathBacked());
    for (int c = 0; c < kClients; ++c) {
      sessions.push_back(service->CreateSession());
    }
    for (int q = 0; q < kQueryCount; ++q) {
      jpar::QueryTicket t = sessions[q % kClients]->Submit(QueryText(q));
      t.Wait();
      checker->Check(0, q, t.status(),
                     t.status().ok() ? t.output().items
                                     : std::vector<jpar::Item>());
    }
    setup_s.push_back(Seconds(start));
  }

  const jpar::ServiceMetrics before = service->Metrics();
  std::mutex mu;  // guards the windows, totals and overhead below
  Window untraced, traced;
  ExecTotals totals;
  std::vector<double> overhead;
  bool stop = false;
  // Main thread and clients meet at the start and the end of each
  // round; churn happens between rounds with no query in flight. Both
  // clients submit the same query at the same time, so after a churn
  // both copies of the first query over a path wait for its rebuild:
  // every sample of a query sees the same kind of work, and no
  // percentile falls between a rebuild mode and a warm mode.
  std::barrier sync(kClients + 1);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (;;) {
        sync.arrive_and_wait();
        if (stop) return;
        const int version = dir->version();
        const bool traced_round = tracer->active();
        for (int q = 0; q < kQueryCount; ++q) {
          const uint64_t req = tracer->NewRequest();
          Tracer::Scope root(tracer, kQueryKeys[q], req, 0);
          const auto start = Clock::now();
          jpar::QueryTicket ticket = [&] {
            Tracer::Scope span(tracer, "service.ticket", req, root.id());
            jpar::QueryTicket t = sessions[c]->Submit(QueryText(q));
            t.Wait();
            return t;
          }();
          const double ms = MsSince(start);
          Tracer::Scope check(tracer, "harness.check", req, root.id());
          const jpar::Status st = ticket.status();
          if (!checker->Check(version, q, st,
                              st.ok() ? ticket.output().items
                                      : std::vector<jpar::Item>())) {
            continue;
          }
          std::lock_guard<std::mutex> lock(mu);
          Window* w = traced_round ? &traced : &untraced;
          w->latency_ms[q].push_back(ms);
          ++w->completed;
          if (traced_round) {
            const jpar::ExecStats& stats = ticket.output().stats;
            totals.Add(stats, 1);
            overhead.push_back(ms - stats.real_ms);
          }
        }
        sync.arrive_and_wait();
      }
    });
  }
  jpar::Status churn_status;
  RunRounds(config.seconds, config.trace, tracer, &untraced, &traced,
            [&](bool, Window*) {
              const auto start = Clock::now();
              sync.arrive_and_wait();  // clients start the round
              sync.arrive_and_wait();  // every client is done
              const double busy = Seconds(start);
              if (churn_status.ok()) churn_status = dir->Flip();
              return busy;
            });
  stop = true;
  sync.arrive_and_wait();
  for (std::thread& t : clients) t.join();
  JPAR_RETURN_NOT_OK(churn_status);

  const jpar::ServiceMetrics after = service->Metrics();
  if (!config.trace) {
    ReportEndToEnd(untraced, setup_s, MaxRssMb(RUSAGE_SELF), *checker,
                   report);
    return jpar::Status::OK();
  }

  totals.ReportTo(report);
  ReportTraceOverhead(untraced, traced, report);
  report->Set("service.overhead_p50_ms", Median(overhead), "ms");
  report->Set("service.overhead_p95_ms", Percentile(overhead, 95), "ms");
  const double hits =
      static_cast<double>(after.plan_cache.hits - before.plan_cache.hits);
  const double lookups =
      hits + static_cast<double>(after.plan_cache.misses -
                                 before.plan_cache.misses);
  report->Set("service.plan_cache_hit_ratio", lookups > 0 ? hits / lookups : 0,
              "ratio");
  report->Set("service.queued_peak",
              static_cast<double>(after.admission.queued_peak), "count");
  report->Set("service.rejected",
              static_cast<double>(after.rejected - before.rejected), "count");
  ZeroDistMetrics(report, "service_churn runs no cluster");

  std::vector<jpar::CompiledQuery> plans;
  JPAR_RETURN_NOT_OK(CompileAll(service->engine(), &plans));
  std::vector<std::string> files;
  for (size_t i = 0; i < corpus.files.size(); ++i) {
    files.push_back(dir->FilePath(static_cast<int>(i)));
  }
  JPAR_RETURN_NOT_OK(ProbeStorage(corpus, config.data_dir + "/probe", files,
                                  jpar::PathToString(FirstScanSteps(plans[2])),
                                  tracer, report));
  return ProbeCommonLayers(service->engine(), corpus, plans, tracer, report);
}

// ---------------------------------------------------------------------
// dist_cluster: one client, Cluster::Run over two local jpar_worker
// processes.

jpar::Status RunDistCluster(const RunConfig& config, const Corpus& corpus,
                            AnswerChecker* checker, Tracer* tracer,
                            Report* report) {
  const jpar::EngineOptions options = WorkloadEngineOptions(kDistCluster);
  jpar::DistOptions dist;
  dist.local_workers = kParallelism;
  dist.worker_binary = PERFBENCH_WORKER_BIN;
  const jpar::Collection data = corpus.InMemory(0);

  std::vector<double> setup_s, start_ms;
  std::unique_ptr<jpar::Cluster> cluster;
  std::unique_ptr<jpar::Engine> engine;
  std::vector<jpar::CompiledQuery> plans;
  auto run = [&](int q) {
    return cluster->Run(QueryText(q), options.rules, options.exec, plans[q],
                        *engine->catalog(), nullptr);
  };
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (cluster != nullptr) cluster->Stop();
    const auto start = Clock::now();
    cluster = std::make_unique<jpar::Cluster>(dist);
    JPAR_RETURN_NOT_OK(cluster->Start());
    start_ms.push_back(MsSince(start));
    engine = std::make_unique<jpar::Engine>(options);
    engine->catalog()->RegisterCollection("/sensors", data);
    JPAR_RETURN_NOT_OK(CompileAll(*engine, &plans));
    for (int q = 0; q < kQueryCount; ++q) {
      auto out = run(q);
      checker->Check(0, q, out.status(), out.ok() ? out->items
                                                  : std::vector<jpar::Item>());
    }
    setup_s.push_back(Seconds(start));
  }

  Window untraced, traced;
  ExecTotals totals;
  double dist_ms = 0, local_ms = 0;
  RunRounds(config.seconds, config.trace, tracer, &untraced, &traced,
            [&](bool traced_round, Window* w) {
              double busy_ms = 0;
              for (int q = 0; q < kQueryCount; ++q) {
                const uint64_t req = tracer->NewRequest();
                Tracer::Scope root(tracer, kQueryKeys[q], req, 0);
                const auto start = Clock::now();
                jpar::Result<jpar::QueryOutput> out = [&] {
                  Tracer::Scope span(tracer, "dist.run", req, root.id());
                  return run(q);
                }();
                const double ms = MsSince(start);
                busy_ms += ms;
                {
                  Tracer::Scope check(tracer, "harness.check", req,
                                      root.id());
                  if (!checker->Check(0, q, out.status(),
                                      out.ok() ? out->items
                                               : std::vector<jpar::Item>())) {
                    continue;
                  }
                }
                w->latency_ms[q].push_back(ms);
                ++w->completed;
                if (!traced_round) continue;
                totals.Add(out->stats, kParallelism);
                // The paired in-process call at the same parallelism.
                Tracer::Scope span(tracer, "engine.execute", req, root.id());
                const auto local_start = Clock::now();
                auto local = engine->Execute(plans[q]);
                if (local.ok()) {
                  local_ms += MsSince(local_start);
                  dist_ms += ms;
                }
              }
              return busy_ms / 1000.0;
            });

  const double self_mb = MaxRssMb(RUSAGE_SELF);
  cluster->Stop();  // reaps the workers, so their peaks are visible
  if (!config.trace) {
    // Both workers run the same fragments on equal halves of the data;
    // getrusage reports only the larger peak of the two.
    ReportEndToEnd(untraced, setup_s,
                   self_mb + kParallelism * MaxRssMb(RUSAGE_CHILDREN),
                   *checker, report);
    return jpar::Status::OK();
  }
  totals.ReportTo(report);
  ReportTraceOverhead(untraced, traced, report);
  report->Set("dist.overhead_ratio", local_ms > 0 ? dist_ms / local_ms : 0,
              "ratio");
  report->Set("dist.catalog_sync_mb",
              static_cast<double>(
                  jpar::EncodeCatalogSync(*engine->catalog()).size()) /
                  (1 << 20),
              "MB");
  report->Set("dist.start_ms", Median(start_ms), "ms");
  ZeroServiceMetrics(report, "dist_cluster runs no query service");
  ZeroStorageProbes(report,
                    "dist_cluster ships in-memory files (storage bypassed)");
  return ProbeCommonLayers(*engine, corpus, plans, tracer, report);
}

}  // namespace

bool KnownWorkload(const std::string& name) {
  return name == kPaperThreaded || name == kServiceChurn ||
         name == kDistCluster;
}

int CorpusVersions(const std::string& workload) {
  return workload == kServiceChurn ? 2 : 1;
}

jpar::Result<ReferenceDigests> ComputeReferences(const Corpus& corpus,
                                                 int versions) {
  jpar::EngineOptions options;
  options.rules = jpar::RuleOptions::All();
  ReferenceDigests digests;
  for (int v = 0; v < versions; ++v) {
    jpar::Engine engine(options);
    engine.catalog()->RegisterCollection("/sensors", corpus.InMemory(v));
    std::vector<uint64_t> row;
    for (int q = 0; q < kQueryCount; ++q) {
      auto out = engine.Run(QueryText(q));
      if (!out.ok()) return out.status();
      row.push_back(AnswerDigest(out->items));
    }
    digests.push_back(std::move(row));
  }
  return digests;
}

jpar::Status RunWorkload(const RunConfig& config, const Corpus& corpus,
                         AnswerChecker* checker, Report* report) {
  std::error_code ec;
  if (std::filesystem::exists(config.data_dir, ec)) {
    return jpar::Status::InvalidArgument("data directory already exists: " +
                                         config.data_dir);
  }
  std::filesystem::create_directories(config.data_dir, ec);
  if (ec) return jpar::Status::IOError("cannot create " + config.data_dir);

  Tracer tracer;
  jpar::Status st;
  if (config.workload == kPaperThreaded) {
    st = RunPaperThreaded(config, corpus, checker, &tracer, report);
  } else if (config.workload == kServiceChurn) {
    st = RunServiceChurn(config, corpus, checker, &tracer, report);
  } else {
    st = RunDistCluster(config, corpus, checker, &tracer, report);
  }
  std::filesystem::remove_all(config.data_dir, ec);
  if (st.ok() && config.trace && !config.trace_out.empty()) {
    st = tracer.WriteJsonl(config.trace_out);
  }
  return st;
}

}  // namespace perfbench
