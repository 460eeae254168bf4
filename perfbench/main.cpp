/// qkbench: end-to-end benchmark of qkmps's training path and serving path.
///
///   qkbench --workload NAME --seed N --seconds S --trace 0|1
///
/// Every workload runs the same phases, in order, through the public API of
/// data, kernel, svm and serve:
///
///   data   draw the labelled pool, subsample, split and scale (set-up)
///   train  simulate the training states, Gram matrix, fit the SVC
///   score  simulate the test states, cross kernel, decision values, AUC
///   serve  a closed loop, then an open loop, against a RankShardedEngine
///
/// The set-up is repeated and its median reported. Train + score rounds
/// then alternate with serve rounds, so every timed figure samples the whole
/// run: a train round runs with no engine alive, and each serve round starts
/// its own engine, warms it, runs a closed and an open loop, and stops it.
/// Round counts follow from --seconds and the workload, never from timing,
/// and every output is checked against a relation of the method or an
/// independent computation.
/// The last line of stdout is one JSON object: {correct, attempted, failed,
/// metrics}. With --trace 0 the metrics are the end-to-end ones; with
/// --trace 1 they are the per-layer ones, timed around each layer's calls
/// from this file and read from the telemetry the program exports.
/// perfbench/README.md gives the workloads and the metric definitions.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "circuit/ansatz.hpp"
#include "circuit/routing.hpp"
#include "data/elliptic_synthetic.hpp"
#include "data/preprocess.hpp"
#include "data/splits.hpp"
#include "obs/metrics.hpp"
#include "qkbench.hpp"
#include "svm/metrics.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

#ifndef QKBENCH_RANKD_PATH
#define QKBENCH_RANKD_PATH ""
#endif

namespace qkbench {
namespace {

using qkmps::kernel::RealMatrix;
namespace serve = qkmps::serve;

/// One workload: the model, the serving deployment and the traffic.
struct Workload {
  const char* name;
  idx distance;            ///< ansatz interaction distance d
  idx train_per_class;     ///< balanced training set: 2x this many rows
  idx test_per_class;      ///< balanced held-out set: 2x this many rows
  std::size_t shards;      ///< RankShardedEngine shard count
  serve::TransportKind transport;
  idx warm_requests;       ///< untimed closed-loop requests on a new engine
  idx closed_requests;     ///< closed-loop requests per serve round
  std::size_t window;      ///< closed-loop requests outstanding
  idx open_requests;       ///< open-loop requests per serve round
  double open_rate;        ///< open-loop requests per second
  int train_rounds;        ///< train + score rounds per 45 s of --seconds
  int serve_rounds;        ///< serve rounds per 45 s of --seconds
  bool auc_above_chance;   ///< check test_auc > 0.5
};

// Each workload puts most of its time in one layer (README.md, Workloads):
// d1-large in the zipper overlaps, d3-sim in simulation. Serving is cold:
// every request simulates its circuit. d3-sim serves over sockets, so the
// wire and worker processes are measured where a millisecond of host stall
// is small against a request. Open-loop rates sit at 20-35% of the
// closed-loop throughput. The round counts fill 45-55 s on the
// reference box.
constexpr Workload kWorkloads[] = {
    {"d1-large", 1, 128, 64, 2, serve::TransportKind::kInProcess, 64, 128, 16,
     80, 20.0, 4, 4, true},
    {"d3-sim", 3, 24, 24, 4, serve::TransportKind::kSocket, 48, 48, 16, 80,
     8.0, 1, 2, false},
};

// The paper's ansatz and data pipeline (m = 165, r = 2, gamma = 0.1). The
// labelled data set is fixed, as the paper's is: --seed drives the traffic.
constexpr idx kFeatures = 165;
constexpr idx kPoolSize = 4000;
constexpr std::uint64_t kSplitSeed = 1;
constexpr double kSvcC = 1.0;
// One engine lane per shard keeps busy threads (lanes, router, client)
// within the 4 cores of the reference box.
constexpr std::size_t kLanesPerShard = 1;
constexpr int kSetupRepeats = 15;
constexpr int kEngineStarts = 9;
constexpr idx kOracleFeatures = 10;
constexpr double kMaxDiscardedPerCircuit = 1e-10;

/// Rounds of a run: `per_45s` scaled to --seconds, at least one.
int rounds_for(int per_45s, double seconds) {
  return std::max(1, static_cast<int>(std::floor(per_45s * seconds / 45.0)));
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "qkbench: %s\nusage: qkbench --workload NAME --seed N "
               "--seconds S --trace 0|1\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (flag == "--trace") a.trace = std::strcmp(v, "0") != 0;
    else usage(("unknown flag " + flag).c_str());
  }
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

double median(std::vector<double> v) { return qkmps::quantile(std::move(v), 0.5); }

/// The labelled data of one workload, scaled for the ansatz.
struct Prepared {
  RealMatrix x_train, x_test;  ///< scaled to (0, 2)
  std::vector<int> y_train, y_test;
  qkmps::data::FeatureScaler scaler;
  std::vector<std::vector<double>> raw_test;  ///< what clients send
  double generate_seconds = 0.0;
};

Prepared prepare_data(const Workload& w) {
  Prepared p;
  const auto t0 = Clock::now();
  qkmps::data::EllipticSyntheticParams gen;
  gen.num_points = kPoolSize;
  gen.num_features = kFeatures;
  const qkmps::data::Dataset pool = qkmps::data::generate_elliptic_synthetic(gen);
  p.generate_seconds = since(t0);
  qkmps::Rng rng(kSplitSeed);
  const qkmps::data::Dataset sample = qkmps::data::balanced_subsample(
      pool, w.train_per_class + w.test_per_class, rng);
  const double test_fraction =
      static_cast<double>(w.test_per_class) /
      static_cast<double>(w.train_per_class + w.test_per_class);
  const auto split = qkmps::data::train_test_split(sample, test_fraction, rng);
  p.scaler = qkmps::data::FeatureScaler::fit(split.train.x);
  p.x_train = p.scaler.transform(split.train.x);
  p.x_test = p.scaler.transform(split.test.x);
  p.y_train = split.train.y;
  p.y_test = split.test.y;
  for (idx i = 0; i < split.test.x.rows(); ++i)
    p.raw_test.emplace_back(split.test.x.row(i),
                            split.test.x.row(i) + split.test.x.cols());
  return p;
}

/// A uniformly shuffled 0..n-1.
std::vector<idx> permutation(idx n, qkmps::Rng& rng) {
  std::vector<idx> p(static_cast<std::size_t>(n));
  for (idx i = 0; i < n; ++i) p[static_cast<std::size_t>(i)] = i;
  for (idx i = n - 1; i > 0; --i)
    std::swap(p[static_cast<std::size_t>(i)],
              p[static_cast<std::size_t>(rng.uniform_int(
                  static_cast<std::uint64_t>(i + 1)))]);
  return p;
}

/// Test-row order of one load loop: `count` requests cycling a fresh
/// shuffle of the test rows, so a row never repeats within n_test requests
/// (and so never twice in one batch) and every request simulates a circuit.
std::vector<idx> traffic(idx count, idx n_test, qkmps::Rng& rng) {
  const std::vector<idx> perm = permutation(n_test, rng);
  std::vector<idx> order;
  order.reserve(static_cast<std::size_t>(count));
  for (idx i = 0; i < count; ++i)
    order.push_back(perm[static_cast<std::size_t>(i % n_test)]);
  return order;
}

/// Per-layer figures of one train + score round.
struct RoundLayers {
  double simulate_s = 0.0, gram_s = 0.0, cross_s = 0.0, fit_s = 0.0,
         svm_score_s = 0.0;
  std::uint64_t alloc_simulate = 0, alloc_gram = 0, alloc_cross = 0,
                alloc_svm = 0;
};

/// One metric as printed: value and unit.
struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Registry counters of the socket transport (router side).
struct WireCounters {
  std::uint64_t frames = 0, bytes = 0;
};

WireCounters wire_counters() {
  auto& reg = qkmps::obs::Registry::global();
  return {reg.counter("parallel.socket.frames_sent").value() +
              reg.counter("parallel.socket.frames_received").value(),
          reg.counter("parallel.socket.bytes_sent").value() +
              reg.counter("parallel.socket.bytes_received").value()};
}

/// Removes the run's scratch directory (socket bundle and socket file).
struct WorkdirGuard {
  std::string dir;
  ~WorkdirGuard() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

int run(const Workload& w, const Args& args) {
  CheckLog log;
  std::uint64_t attempted = 0, failed = 0;
  qkmps::Rng traffic_rng(args.seed);

  // ---- data (set-up) ------------------------------------------------------
  std::vector<double> setup_s, generate_s;
  Prepared data;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    data = prepare_data(w);
    setup_s.push_back(since(t0));
    generate_s.push_back(data.generate_seconds);
  }
  const idx n_test = data.x_test.rows();

  qkmps::kernel::QuantumKernelConfig cfg;
  cfg.ansatz = {.num_features = kFeatures, .layers = 2, .distance = w.distance,
                .gamma = 0.1};
  const auto policy = cfg.sim.policy;

  // Socket bundle and socket file live under the checkout's build tree.
  WorkdirGuard workdir{".bench_build/qkbench-" + std::to_string(::getpid())};
  std::filesystem::create_directories(workdir.dir);
  serve::RankShardedEngineConfig rc;
  rc.num_shards = w.shards;
  rc.engine.num_threads = kLanesPerShard;
  // Cold serving: with the state cache and the memo off, every request
  // simulates its circuit and scores it against the support vectors.
  rc.engine.cache_capacity = 0;
  rc.engine.memo_capacity = 0;
  rc.transport = w.transport;
  rc.socket.worker_path = QKBENCH_RANKD_PATH;
  rc.socket.bundle_dir = workdir.dir + "/bundle";
  rc.socket.listen_address = "unix:" + workdir.dir + "/rankd.sock";

  std::vector<double> train_s, score_s, serve_rps, latency_s, late_s;
  std::vector<double> start_s;
  std::vector<RoundLayers> layers;
  std::map<std::string, std::vector<double>> span_self;
  std::uint64_t requests_sent = 0;

  // ---- train and score: one round, with no engine running -----------------
  // Round 0 is checked and kept for serving; later rounds must repeat it
  // bit for bit.
  std::vector<qkmps::mps::Mps> train_states;
  std::optional<qkmps::svm::SvcModel> model;
  RealMatrix k_first, kt_first;
  std::vector<double> dv_first;
  double auc = 0.0;
  qkmps::kernel::GramStats train_stats_first, test_stats_first;
  const int train_rounds = rounds_for(w.train_rounds, args.seconds);
  const auto train_round = [&](int round) {
    RoundLayers L;
    // ---- train ------------------------------------------------------------
    qkmps::kernel::GramStats train_stats;
    auto t0 = Clock::now();
    auto a0 = thread_allocations();
    auto states = qkmps::kernel::simulate_states(cfg, data.x_train, &train_stats);
    L.simulate_s += since(t0);
    L.alloc_simulate += thread_allocations() - a0;
    auto t1 = Clock::now();
    a0 = thread_allocations();
    const RealMatrix k =
        qkmps::kernel::gram_from_states(states, policy, &train_stats);
    L.gram_s = since(t1);
    L.alloc_gram = thread_allocations() - a0;
    t1 = Clock::now();
    a0 = thread_allocations();
    qkmps::svm::SvcModel fitted =
        qkmps::svm::train_svc(k, data.y_train, {.c = kSvcC});
    L.fit_s = since(t1);
    L.alloc_svm = thread_allocations() - a0;
    train_s.push_back(since(t0));
    ++attempted;

    // ---- score ------------------------------------------------------------
    qkmps::kernel::GramStats test_stats;
    t0 = Clock::now();
    a0 = thread_allocations();
    const auto test_states =
        qkmps::kernel::simulate_states(cfg, data.x_test, &test_stats);
    L.simulate_s += since(t0);
    L.alloc_simulate += thread_allocations() - a0;
    t1 = Clock::now();
    a0 = thread_allocations();
    const RealMatrix kt = qkmps::kernel::cross_from_states(test_states, states,
                                                           policy, &test_stats);
    L.cross_s = since(t1);
    L.alloc_cross = thread_allocations() - a0;
    t1 = Clock::now();
    a0 = thread_allocations();
    const std::vector<double> dv = fitted.decision_values(kt);
    const double round_auc = qkmps::svm::roc_auc(data.y_test, dv);
    L.svm_score_s = since(t1);
    L.alloc_svm += thread_allocations() - a0;
    score_s.push_back(since(t0));
    ++attempted;
    layers.push_back(L);
    std::fprintf(stderr, "%s train/score round %d/%d: train %.3f s, score %.3f s\n",
                 w.name, round + 1, train_rounds, train_s.back(), score_s.back());

    if (round > 0) {
      log.expect(std::equal(k.data(), k.data() + k.rows() * k.cols(),
                            k_first.data()) &&
                     dv == dv_first,
                 "train and score repeat bit for bit across rounds");
      return;
    }
    check_gram(states, k, train_stats, kMaxDiscardedPerCircuit, args.seed, log);
    check_cross(kt, log);
    log.expect(test_stats.total_discarded_weight /
                       static_cast<double>(test_stats.circuits_simulated) <=
                   kMaxDiscardedPerCircuit,
               "test-state discarded weight per circuit under bound");
    check_statevector(cfg, data.x_train, kOracleFeatures, log);
    check_svc(fitted, kSvcC, kt, dv, log);
    log.expect(pair_count_auc(data.y_test, dv) == round_auc,
               "roc_auc equals the pair-counting AUC exactly");
    if (w.auc_above_chance) log.expect(round_auc > 0.5, "test_auc is above chance");
    k_first = k;
    kt_first = kt;
    dv_first = dv;
    auc = round_auc;
    train_stats_first = train_stats;
    test_stats_first = test_stats;
    train_states = std::move(states);
    model = std::move(fitted);
  };

  // ---- serve: one round on its own engine ---------------------------------
  std::shared_ptr<const serve::ModelBundle> bundle;
  std::vector<double> offline;
  const auto check_served = [&](const LoadResult& r) {
    for (std::size_t i = 0; i < r.results.size(); ++i) {
      const serve::RoutedPrediction& p = r.results[i];
      ++attempted;
      ++requests_sent;
      if (p.status != serve::ServeStatus::kServed) {
        ++failed;
        continue;
      }
      const double f = p.prediction.decision_value;
      log.expect(f == offline[static_cast<std::size_t>(r.rows[i])],
                 "served decision value is bitwise equal to the offline one");
      log.expect(p.prediction.label == (f >= 0.0 ? 1 : -1),
                 "served label is the sign of its decision value");
      if (args.trace)
        for (const auto& [name, s] : span_self_seconds(p.trace))
          span_self[name].push_back(s);
    }
  };
  // Engine counters summed over the serve rounds' engines.
  serve::RankShardedStats served_stats;
  std::vector<std::uint64_t> routed(w.shards, 0);
  std::uint64_t simulated = 0, requests = 0, batches = 0;
  WireCounters wire;
  const int serve_rounds = rounds_for(w.serve_rounds, args.seconds);
  const auto serve_round = [&](int round) {
    const auto s0 = Clock::now();
    serve::RankShardedEngine engine(bundle, rc);
    start_s.push_back(since(s0));
    const WireCounters wire_start = wire_counters();
    // Serving is measured warm: a new engine's first ~100 requests read
    // ~30% slow on the reference box, so an untimed closed loop goes first.
    check_served(closed_loop(engine, data.raw_test,
                             traffic(w.warm_requests, n_test, traffic_rng),
                             w.window));
    const std::vector<idx> closed_order =
        traffic(w.closed_requests, n_test, traffic_rng);
    const std::vector<idx> open_order =
        traffic(w.open_requests, n_test, traffic_rng);
    const LoadResult closed =
        closed_loop(engine, data.raw_test, closed_order, w.window);
    const LoadResult open =
        open_loop(engine, data.raw_test, open_order, w.open_rate);
    serve_rps.push_back(static_cast<double>(closed.results.size()) /
                        closed.seconds);
    latency_s.insert(latency_s.end(), open.latency_seconds.begin(),
                     open.latency_seconds.end());
    late_s.insert(late_s.end(), open.late_seconds.begin(),
                  open.late_seconds.end());
    check_served(closed);
    check_served(open);
    std::fprintf(stderr,
                 "%s serve round %d/%d: closed %.1f req/s, open p50 %.3f ms, "
                 "p90 %.3f ms\n",
                 w.name, round + 1, serve_rounds, serve_rps.back(),
                 1e3 * qkmps::quantile(open.latency_seconds, 0.5),
                 1e3 * qkmps::quantile(open.latency_seconds, 0.9));

    const WireCounters wire_end = wire_counters();
    wire.frames += wire_end.frames - wire_start.frames;
    wire.bytes += wire_end.bytes - wire_start.bytes;
    const serve::RankShardedStats st = engine.stats();
    served_stats.submitted += st.submitted;
    served_stats.completed += st.completed;
    served_stats.rejected += st.rejected;
    served_stats.shed += st.shed;
    for (std::size_t s = 0; s < st.shards.size(); ++s) {
      routed[s] += st.shards[s].routed;
      simulated += st.shards[s].engine.circuits_simulated;
      requests += st.shards[s].engine.requests;
      batches += st.shards[s].engine.batches;
    }
  };

  // ---- rounds: train + score and serve alternate ---------------------------
  for (int round = 0; round < std::max(train_rounds, serve_rounds); ++round) {
    if (round < train_rounds) train_round(round);
    if (round == 0) {
      bundle = std::make_shared<const serve::ModelBundle>(
          serve::make_bundle(cfg, data.scaler, *model, train_states));
      offline = offline_decisions(*bundle, kt_first, data.x_test, log);
      log.expect(offline == dv_first,
                 "compacted-model decision values equal the full model's");
      // Engine start is the serving part of the set-up: time it a few
      // more times than there are serve rounds, so its median is steady.
      for (int i = 0; i < kEngineStarts; ++i) {
        const auto s0 = Clock::now();
        serve::RankShardedEngine engine(bundle, rc);
        start_s.push_back(since(s0));
      }
    }
    if (round < serve_rounds) serve_round(round);
  }

  // ---- serving counters ---------------------------------------------------
  const serve::RankShardedStats& st = served_stats;
  const std::uint64_t busiest = *std::max_element(routed.begin(), routed.end());
  log.expect(st.submitted == st.completed + st.rejected + st.shed,
             "submitted == served + rejected + shed");
  log.expect(st.rejected == 0 && st.shed == 0, "no request rejected or shed");
  log.expect(st.submitted == requests_sent, "engine saw every request sent");
  log.expect(simulated == requests_sent, "one circuit simulated per request");

  // ---- report -------------------------------------------------------------
  std::vector<Metric> metrics;
  const auto ms = [](double s) { return s * 1e3; };
  if (!args.trace) {
    metrics = {
        {"setup_s", median(setup_s) + median(start_s), "s"},
        {"train_s", median(train_s), "s"},
        {"score_s", median(score_s), "s"},
        {"test_auc", auc, "1"},
        {"serve_rps", median(serve_rps), "req/s"},
        // The median over every open-loop request of the run (>= 200).
        {"lat_p50_ms", ms(qkmps::quantile(latency_s, 0.5)), "ms"},
    };
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    metrics.push_back({"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"});
  } else {
    // circuit: building (and routing) the feature-map circuits of the
    // training rows, timed on its own.
    const auto t0 = Clock::now();
    for (idx i = 0; i < data.x_train.rows(); ++i) {
      const auto c = qkmps::circuit::feature_map_circuit(
          cfg.ansatz, std::vector<double>(data.x_train.row(i),
                                          data.x_train.row(i) + kFeatures));
      const auto routed = qkmps::circuit::route_to_chain(c);
      log.expect(routed.num_qubits() == kFeatures, "routed circuit width");
    }
    const double build_us =
        since(t0) * 1e6 / static_cast<double>(data.x_train.rows());

    const auto layer_median = [&](double RoundLayers::*field) {
      std::vector<double> v;
      for (const auto& L : layers) v.push_back(L.*field);
      return median(v);
    };
    const RoundLayers& L0 = layers.front();
    const double circuits = static_cast<double>(
        train_stats_first.circuits_simulated + test_stats_first.circuits_simulated);
    const double gram_overlaps = static_cast<double>(train_stats_first.inner_products);
    const double overlaps = static_cast<double>(
        train_stats_first.inner_products + test_stats_first.inner_products);
    const double simulate = layer_median(&RoundLayers::simulate_s);
    const double gram = layer_median(&RoundLayers::gram_s);
    const double cross = layer_median(&RoundLayers::cross_s);
    const double bond_avg =
        (train_stats_first.avg_max_bond * static_cast<double>(train_stats_first.circuits_simulated) +
         test_stats_first.avg_max_bond * static_cast<double>(test_stats_first.circuits_simulated)) /
        circuits;
    const auto span_ms = [&](const char* name) {
      const auto it = span_self.find(name);
      return it == span_self.end() ? 0.0 : ms(median(it->second));
    };
    const double sent = static_cast<double>(requests_sent);
    metrics = {
        {"data.generate_s", median(generate_s), "s"},
        {"circuit.build_us", build_us, "us"},
        {"kernel.simulate_s", simulate, "s"},
        {"kernel.circuits", circuits, "count"},
        {"mps.circuit_ms", ms(simulate) / circuits, "ms"},
        {"mps.bond_avg", bond_avg, "1"},
        {"mps.discarded_weight",
         train_stats_first.total_discarded_weight +
             test_stats_first.total_discarded_weight,
         "1"},
        {"kernel.gram_s", gram, "s"},
        {"kernel.cross_s", cross, "s"},
        {"kernel.overlaps", overlaps, "count"},
        {"mps.overlap_us", (gram + cross) * 1e6 / overlaps, "us"},
        {"alloc.simulate", static_cast<double>(L0.alloc_simulate), "count"},
        {"alloc.gram", static_cast<double>(L0.alloc_gram), "count"},
        {"alloc.cross", static_cast<double>(L0.alloc_cross), "count"},
        {"alloc.svm", static_cast<double>(L0.alloc_svm), "count"},
        {"alloc.per_overlap",
         static_cast<double>(L0.alloc_gram) / gram_overlaps, "count"},
        {"svm.fit_s", layer_median(&RoundLayers::fit_s), "s"},
        {"svm.iterations", static_cast<double>(model->iterations), "count"},
        {"svm.score_s", layer_median(&RoundLayers::svm_score_s), "s"},
        {"svm.support_vectors", static_cast<double>(model->support_vector_count()), "count"},
        {"serve.start_s", median(start_s), "s"},
        {"serve.submitted", static_cast<double>(st.submitted), "count"},
        {"serve.served", static_cast<double>(st.completed), "count"},
        {"serve.rejected", static_cast<double>(st.rejected), "count"},
        {"serve.shed", static_cast<double>(st.shed), "count"},
        {"serve.simulated", static_cast<double>(simulated), "count"},
        {"serve.batch_avg",
         static_cast<double>(requests) / static_cast<double>(std::max<std::uint64_t>(batches, 1)),
         "req"},
        // Reported per layer, not end to end: on this class of host the
        // p90 of a ~20 ms cold request tracks how long the lanes' vCPUs sat
        // idle before it (README.md, Noise), not the program.
        {"serve.lat_p90_ms", ms(qkmps::quantile(latency_s, 0.9)), "ms"},
        {"serve.shard_imbalance",
         static_cast<double>(busiest) * static_cast<double>(routed.size()) /
             sent,
         "1"},
        {"span.simulate_ms", span_ms("simulate"), "ms"},
        {"span.kernel_ms", span_ms("kernel"), "ms"},
        {"span.scale_ms", span_ms("scale"), "ms"},
        {"span.memo_ms", span_ms("memo"), "ms"},
        {"span.cache_ms", span_ms("cache"), "ms"},
        {"span.score_ms", span_ms("score"), "ms"},
        {"span.admission_wait_ms", span_ms("admission_wait"), "ms"},
        {"span.route_ms", span_ms("route"), "ms"},
        {"span.wire_ms", span_ms("wire"), "ms"},
        {"span.gather_wait_ms", span_ms("gather_wait"), "ms"},
        {"span.reply_ms", span_ms("reply"), "ms"},
        {"parallel.frames_per_req",
         static_cast<double>(wire.frames) / sent, "count"},
        {"parallel.bytes_per_req",
         static_cast<double>(wire.bytes) / sent, "B"},
        {"load.late_p90_ms", ms(qkmps::quantile(late_s, 0.9)), "ms"},
    };
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              log.ok() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  std::printf("}}\n");
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace qkbench

int main(int argc, char** argv) {
  const qkbench::Args args = qkbench::parse_args(argc, argv);
  for (const qkbench::Workload& w : qkbench::kWorkloads)
    if (args.workload == w.name) {
      try {
        return qkbench::run(w, args);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "qkbench: %s\n", e.what());
        return 1;
      }
    }
  qkbench::usage(("unknown workload '" + args.workload + "'").c_str());
}
