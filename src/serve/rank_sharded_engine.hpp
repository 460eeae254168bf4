#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "util/sync.hpp"

#include "obs/flight_recorder.hpp"
#include "parallel/socket_transport.hpp"
#include "serve/inference_engine.hpp"
#include "serve/model_bundle.hpp"
#include "serve/router.hpp"
#include "serve/shard_wire.hpp"
#include "serve/sharded_engine.hpp"

namespace qkmps::serve {

/// Which kind of worker serves each shard slot. Both kinds speak the
/// same ShardEnvelope/ShardReply protocol (shard_wire.hpp) over a
/// SocketTransport and go through one lifecycle — spawn, link, drain,
/// remove, respawn, demote (DESIGN.md §2); only spawning and reaping
/// differ.
enum class TransportKind : std::uint8_t {
  /// Thread workers: each shard is a std::thread running
  /// serve::run_shard_worker on its own InferenceEngine over the shared
  /// in-memory bundle, linked to the router by a socketpair. No bundle
  /// file, no listener, no handshake; reaped by closing the link and
  /// joining.
  kInProcess,
  /// Process workers (the serving_rankd binary in tools/), spawned by
  /// the engine, connected over a Unix-domain or TCP socket and pinned
  /// by a handshake; reaped by closing the link and waiting, escalating
  /// to SIGKILL. A process can also die from outside (kill -9) — the
  /// shed-on-death and respawn semantics below cover both kinds.
  kSocket,
};

const char* to_string(TransportKind kind);

/// Process-worker deployment knobs, plus the self-healing knobs
/// (respawn*) that govern both worker kinds.
struct SocketTransportConfig {
  /// The shard worker executable (tools/serving_rankd.cpp). Required.
  std::string worker_path;
  /// Directory the engine saves its bundle to and workers load it from
  /// (save_bundle is atomic, so a half-written handoff cannot be
  /// observed). Required.
  std::string bundle_dir;
  /// "unix:<path>" or "tcp:<ip>:<port>"; empty picks a fresh Unix-domain
  /// socket under /tmp.
  std::string listen_address;
  /// Bound on spawn -> connect -> handshake per worker; a worker that
  /// cannot connect and handshake in time fails construction loudly.
  std::chrono::milliseconds connect_timeout{15000};
  /// Extra argv entries appended to every worker spawn — the test hook
  /// that lets the suites simulate crashing workers (--die-after=N).
  std::vector<std::string> worker_extra_args;
  /// Self-healing (both worker kinds): when a worker's link dies
  /// mid-serve, the router respawns a replacement (next generation of
  /// the same shard slot, same ring weight, so routing is undisturbed
  /// and a process worker's handshake can refuse stragglers from the
  /// dead generation). In-flight and interim requests still shed — the
  /// respawn restores capacity, it never silently retries work.
  bool respawn = true;
  /// Consecutive failed respawn attempts before the slot is permanently
  /// demoted (it keeps shedding, stats report it `demoted`).
  std::size_t max_respawn_attempts = 3;
  /// First retry delay after a death; doubles per failed attempt.
  std::chrono::milliseconds respawn_backoff{200};
  /// Ceiling on the doubling.
  std::chrono::milliseconds respawn_backoff_max{5000};
};

struct RankShardedEngineConfig {
  /// Initial shard workers (threads or processes, per `transport`).
  std::size_t num_shards = 2;
  /// Per-shard engine knobs; num_threads == 0 divides hardware threads
  /// across the shards exactly as in ShardedEngine — process workers are
  /// handed their lane count on the command line (the workers share this
  /// host, so full-width pools would oversubscribe it N-fold).
  EngineConfig engine;
  /// Key->shard assignment. Defaults to the consistent-hash ring because
  /// this engine supports add_shard(): growth only remigrates ~1/(N+1) of
  /// keys, so the per-shard StateCaches stay warm across a resize.
  RouterConfig router{RouterKind::kConsistentHash, 64};
  /// Bound on requests queued at the router (admission control). When
  /// full, submit() resolves the new future kRejected immediately —
  /// reject-new semantics; the blocking/shedding policies of
  /// ShardedEngine belong to the in-process frontend where the submitter
  /// and the queue share an address space.
  std::size_t ingress_capacity = 1024;
  /// Per shard-drain batch bound; 0 = engine.max_batch.
  std::size_t drain_max_batch = 0;
  /// How long the idle router sleeps between ingress/reply polls. Lower =
  /// less added latency, more wakeups; the default adds at most ~0.1 ms.
  std::chrono::microseconds router_poll{100};
  /// Worker kind + process-worker and self-healing knobs.
  TransportKind transport = TransportKind::kInProcess;
  SocketTransportConfig socket;
  /// Ring weights of the initial fleet (heterogeneous shards: a worker
  /// with twice the --threads budget can carry twice the ring share).
  /// Empty = uniform 1.0. Otherwise must have num_shards entries, all
  /// positive; non-uniform weights require the consistent-hash router.
  std::vector<double> shard_weights;
  /// Flight-recorder ring sizes (obs/flight_recorder.hpp): recent trace
  /// summaries and fleet lifecycle events kept for postmortems.
  std::size_t flight_trace_capacity = 256;
  std::size_t flight_event_capacity = 512;
  /// When non-empty, the recorder dumps its JSON here on every worker
  /// demotion and again at destruction (the rings are cumulative, so the
  /// later dump supersedes the earlier one — but the demotion-time dump
  /// survives even if the process never reaches a clean shutdown).
  std::string flight_dump_path;
};

/// Per-shard snapshot: router-side routing counters plus the shard
/// engine's own counters (cache, memo, circuits). The engine counters are
/// fetched over the worker's link (kStats flow) and are zeros for a dead
/// worker.
struct RankShardStats {
  std::uint64_t routed = 0;  ///< envelopes the router sent this shard
  std::uint64_t served = 0;  ///< predictions this shard replied
  bool alive = true;         ///< false once the worker's link died
  bool removed = false;      ///< drained out of the topology by remove_shard
  bool demoted = false;      ///< respawn budget exhausted; permanently dead
  std::uint64_t respawns = 0;    ///< successful self-heals of this slot
  std::uint64_t generation = 0;  ///< current spawn generation (0 = initial)
  double weight = 1.0;           ///< consistent-hash ring weight
  EngineStats engine;
};

/// Aggregate snapshot. Invariant (once traffic settles): submitted ==
/// admitted + rejected and admitted == completed + shed — shed counts
/// requests lost to a dead worker (a killed process, or a worker of
/// either kind whose link failed or broke the protocol).
struct RankShardedStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t resizes = 0;  ///< add_shard() + remove_shard() calls served
  std::vector<RankShardStats> shards;
};

/// Rank-distributed sharded serving frontend: the shard boundary of
/// ShardedEngine lifted onto a byte-message link per shard.
///
///   caller threads ── submit() ─► [ingress queue]
///                                      │ router thread:
///                                      │   route = Router(feature_hash)
///                                      ▼   forward / poll replies
///      shard 0 ◄── ShardEnvelope ── link ── ShardEnvelope ──► shard N-1
///   InferenceEngine                    ▲                  InferenceEngine
///      └────────── ShardReply ─────────┴───── ShardReply ──────────┘
///
/// The router pulls submitted requests off the ingress queue, assigns
/// ids, routes by feature-bit hash through the configured Router,
/// forwards request envelopes, and multiplexes the shards' reply links
/// with try_recv. Each shard worker owns an InferenceEngine (with its
/// StateCache and memo) and runs the shared gather->predict->reply loop
/// (serve::run_shard_worker): block on the first envelope,
/// opportunistically try_recv more up to the drain batch bound, score
/// through the engine, reply per request. The only state crossing the
/// shard boundary is protocol bytes, so the two worker kinds
/// (TransportKind) differ only in how a worker is spawned and reaped:
///
///  - kInProcess: a thread worker on a socketpair, its engine built on
///    the shared in-memory bundle.
///  - kSocket: a serving_rankd process; links are framed over TCP or
///    Unix-domain sockets. Construction is listen -> spawn N workers ->
///    accept N connections -> handshake each (wire-version + shard-index
///    + model-shape check, see shard_wire.hpp).
///
/// Everything after the link exists is one code path on the router
/// thread: routing, the drain barrier, resizes, stats over the kStats
/// flow, the shutdown handshake, and failure handling.
///
/// Worker-death semantics: a dead link — worker crash, kill, protocol
/// violation — marks that shard dead and sheds with status instead of
/// hanging or poisoning the engine: every in-flight request on that
/// shard, and every later request routed to it while it is down,
/// resolves ServeStatus::kShed with RoutedPrediction::error naming the
/// cause. Other shards keep serving. Requests are deliberately not
/// re-routed: the assignment must stay a pure function of (hash,
/// topology) so client-side routing stays possible.
///
/// Self-healing (socket.respawn): after shedding, the router respawns
/// the dead slot — reap the corpse, bump the slot's generation, spawn a
/// fresh worker with the same shard index / ring weight, and (process
/// workers) handshake it in, the pinned generation refusing any
/// straggler from the dead spawn. Ring points never move, so the
/// respawned worker inherits exactly the keyspace its predecessor owned.
/// Failed attempts back off exponentially (socket.respawn_backoff,
/// doubling to respawn_backoff_max); socket.max_respawn_attempts
/// consecutive failures demote the slot permanently — it sheds forever
/// and stats() reports it `demoted`. Every future owed at any point in
/// this state machine resolves; none ride the respawn.
///
/// Elasticity — the router thread is the single topology writer, and
/// add_shard()/remove_shard() hand it a command and wait:
///  - add_shard(weight): spawns (and links) one more worker, then
///    extends the ring while the survivors keep serving — their engines
///    and caches are never touched.
///  - remove_shard(i): hands i's ring keys to the clockwise survivors
///    (no survivor key moves), drains i's in-flight envelopes, then
///    shutdown-handshakes and reaps it. Shard ids are never reused: the
///    slot stays, marked `removed`, so assignments remain a pure
///    function of (hash, topology-history).
/// With the consistent-hash router growth remigrates only ~1/(N+1) of
/// keys, so hot caches stay hot (tests/test_rank_sharded_engine.cpp pins
/// the retention). Requests submitted during a resize wait in the
/// ingress queue until the router has finished it.
///
/// Determinism contract: identical to ShardedEngine's — routing,
/// batching, and worker kind are scheduling decisions only; every served
/// prediction is bitwise-identical to the sequential simulate_states +
/// decision_values pipeline regardless of shard count, worker kind,
/// batch composition, arrival order, or resize history.
///
/// Thread safety: submit(), shard_for(), num_shards(), worker_pid(),
/// and stats() are safe from any number of threads. add_shard() and
/// remove_shard() serialize against each other and the destructor
/// (lifecycle_mu_), and may run concurrently with submitters. The
/// router thread is the single writer of the live topology (links,
/// ring, shard slots); external readers synchronize through
/// topology_mu_, never through the router — so a resize can make
/// progress while stats()/shard_for() callers come and go.
///
/// Shutdown contract: the destructor stops admission (later submits
/// throw), serves every request already admitted to the ingress queue or
/// in flight (shedding those owed to dead workers), shuts the shards
/// down with control envelopes, joins the router, and reaps every
/// worker — no future is ever dropped.
class RankShardedEngine {
 public:
  explicit RankShardedEngine(ModelBundle bundle,
                             RankShardedEngineConfig config = {});
  RankShardedEngine(std::shared_ptr<const ModelBundle> bundle,
                    RankShardedEngineConfig config);
  ~RankShardedEngine();

  RankShardedEngine(const RankShardedEngine&) = delete;
  RankShardedEngine& operator=(const RankShardedEngine&) = delete;

  /// Validates, applies ingress admission, and returns a future that
  /// always resolves: kServed or kRejected, plus kShed when the routed
  /// shard's worker died. Throws immediately on a
  /// malformed feature vector, or on submit after the destructor began.
  std::future<RoutedPrediction> submit(std::vector<double> features);

  /// The shard `features` routes to under the current topology (pure
  /// function of the feature bits and the shard count).
  int shard_for(const std::vector<double>& features) const;

  /// Grows the shard set by one shard of ring weight `weight`: the router
  /// spawns and links one more worker while the survivors keep serving —
  /// no restart, no cache disturbance. Blocks until the new topology is
  /// serving; throws if the worker could not be spawned or linked.
  /// Non-1.0 weights require the consistent-hash router.
  void add_shard(double weight = 1.0);

  /// Shrinks the fleet: hands shard `shard`'s ring keys to the
  /// clockwise survivors, drains its in-flight envelopes, shutdown-
  /// handshakes it, and reaps the worker. The id is
  /// never reused — the slot stays, reported `removed` by stats(), and
  /// num_shards() keeps counting it. Throws when `shard` is out of
  /// range, already removed, or the last shard standing. Blocks until
  /// the handoff is complete.
  void remove_shard(std::size_t shard);

  /// The pid of the process worker currently serving shard `shard`, or
  /// -1 when there is none (thread worker, removed slot, dead worker
  /// awaiting respawn, demoted slot, or engine stopped). Test/ops hook —
  /// it is inherently racy against respawn.
  long worker_pid(std::size_t shard) const;

  RankShardedStats stats() const;
  std::size_t num_shards() const;
  const RankShardedEngineConfig& config() const { return config_; }
  const ModelBundle& bundle() const { return *bundle_; }

  /// The engine's flight recorder: recent stitched traces plus the fleet
  /// lifecycle event log (spawn/death/shed/respawn/demotion/...). All
  /// reader methods are safe during traffic; dump_to_file writes the
  /// postmortem JSON on demand.
  const obs::FlightRecorder& flight_recorder() const { return flight_; }

 private:
  struct Ingress {
    std::vector<double> features;
    std::promise<RoutedPrediction> promise;
    std::chrono::steady_clock::time_point submitted;
    /// Begun at submit() (epoch == submitted); the router appends its
    /// spans, stitches the worker's in, and finishes it into
    /// RoutedPrediction::trace.
    obs::TraceContext trace;
  };

  /// Router-side per-shard slot: routing counters, liveness, and the
  /// respawn state machine. Atomics are the cross-thread surface
  /// (stats() snapshots them); the trailing plain fields belong to the
  /// router thread, the single topology writer.
  struct ShardState {
    std::atomic<std::uint64_t> routed{0};
    std::atomic<std::uint64_t> served{0};
    std::atomic<bool> alive{true};
    std::atomic<bool> removed{false};
    std::atomic<bool> demoted{false};
    std::atomic<std::uint64_t> respawns{0};
    std::atomic<std::uint64_t> generation{0};
    /// weight and threads are immutable after the slot is published into
    /// shard_state_ (set before the locked push_back), so readers need no
    /// lock beyond the one that found the slot.
    double weight = 1.0;
    std::size_t threads = 0;  ///< engine lane budget of the slot's workers
    /// Respawn bookkeeping (router-thread-only).
    std::size_t respawn_attempts = 0;
    std::chrono::milliseconds respawn_delay{0};
    std::chrono::steady_clock::time_point next_respawn{};
  };

  /// What one worker is spawned as.
  struct WorkerSpec {
    std::size_t shard = 0;
    std::size_t threads = 0;
    double weight = 1.0;
    std::uint64_t generation = 0;
  };

  /// One linked shard worker: the router's end of its link plus what
  /// reaping waits on — the child pid of a process worker, or the thread
  /// of a thread worker.
  struct Worker {
    std::unique_ptr<parallel::SocketTransport> link;
    long pid = -1;
    std::thread thread;
    std::string label;  ///< "pid N" or "thread", for the flight recorder

    Worker() = default;
    Worker(const Worker&) = delete;
    Worker& operator=(const Worker&) = delete;
    /// Closes the router's end of the link — a worker still running sees
    /// EOF and exits — then waits the worker out: joins a thread, or
    /// reaps a process, escalating to SIGKILL after `grace`. Idempotent.
    void reap(std::chrono::milliseconds grace);
    /// Last resort on a path that never reaped (a spawn that threw).
    ~Worker() { reap(std::chrono::milliseconds(0)); }
  };

  /// add_shard()/remove_shard() -> router handoff: the router is the
  /// single topology writer, so resizes execute on its thread between
  /// routing iterations.
  struct TopologyCommand {
    enum class Op : std::uint8_t { kAdd, kRemove };
    Op op = Op::kAdd;
    std::size_t shard = 0;  ///< kRemove target
    double weight = 1.0;    ///< kAdd ring weight
    std::promise<void> done;
  };

  /// Spawns and links the initial fleet, then starts the router thread.
  void start();
  /// Creates the workers of `specs` and links each to the router — the
  /// only place the worker kind is read besides Worker::reap. A thread
  /// worker gets a socketpair, an engine and a thread; process workers
  /// are spawned, then accepted and handshaken (pinned to the spec when
  /// there is exactly one). Throws, with every worker it made reaped,
  /// when one cannot be spawned or linked in time.
  std::vector<std::unique_ptr<Worker>> spawn_workers(
      const std::vector<WorkerSpec>& specs, std::size_t fleet_size);
  std::unique_ptr<Worker> spawn_thread_worker(const WorkerSpec& spec) const;
  /// Accepts and handshakes one connection per process worker in
  /// `workers` (spawned from the matching `specs`).
  void link_process_workers(const std::vector<WorkerSpec>& specs,
                            std::size_t fleet_size,
                            std::vector<std::unique_ptr<Worker>>& workers);
  /// Command line for one serving_rankd spawn.
  std::vector<std::string> worker_args(const WorkerSpec& spec) const;
  /// Hands a topology command to the router and waits for it.
  void run_topology_command(TopologyCommand cmd);
  /// The router loop: one link per shard slot (nullptr once removed or
  /// reaped), grown in place by add_shard.
  void router_loop(std::vector<parallel::SocketTransport*> links);
  /// Snapshot every live worker's EngineStats over the kStats flow.
  /// Called by stats() via the stats_requests_ queue the router services
  /// between iterations.
  std::vector<EngineStats> fetch_worker_stats() const;
  std::size_t drain_batch_limit() const;

  const std::shared_ptr<const ModelBundle> bundle_;
  const RankShardedEngineConfig config_;
  /// Declared after config_ (ring capacities come from it); internally
  /// synchronized, so recording needs no engine lock.
  obs::FlightRecorder flight_;

  /// Serializes public lifecycle ops (add_shard, remove_shard, dtor)
  /// against each other. Never taken by the router thread — a resize
  /// caller holds it while *waiting on* the router, so the router
  /// taking it would deadlock.
  mutable util::Mutex lifecycle_mu_;
  /// Guards the topology containers (router_, shard_state_, workers_).
  /// The router thread is their only writer once it runs, but every
  /// access — including the router's own pointer-grab reads — takes the
  /// lock, so the discipline is machine-checked instead of commented.
  /// Held for pointer-swap moments only, never across a drain or a
  /// spawn; ShardState objects themselves are stable once published
  /// (unique_ptr slots are never erased), so holders of a ShardState*
  /// drop the lock before touching its atomics.
  mutable util::Mutex topology_mu_;
  std::unique_ptr<Router> router_ QKMPS_GUARDED_BY(topology_mu_);
  std::vector<std::unique_ptr<ShardState>> shard_state_
      QKMPS_GUARDED_BY(topology_mu_);
  /// One worker per shard slot; nullptr once the slot is removed, or
  /// while a dead slot awaits its respawn.
  std::vector<std::unique_ptr<Worker>> workers_ QKMPS_GUARDED_BY(topology_mu_);

  mutable util::Mutex mu_;  ///< guards ingress_, request queues, flags
  mutable util::CondVar cv_ingress_;
  std::deque<Ingress> ingress_ QKMPS_GUARDED_BY(mu_);
  /// stats() -> router handoff: the router answers each with a kStats
  /// sweep of the live workers.
  mutable std::deque<std::promise<std::vector<EngineStats>>> stats_requests_
      QKMPS_GUARDED_BY(mu_);
  /// add/remove_shard -> router handoff.
  std::deque<TopologyCommand> topology_requests_ QKMPS_GUARDED_BY(mu_);
  /// Router: finish outstanding work and return.
  bool draining_ QKMPS_GUARDED_BY(mu_) = false;
  /// Terminal: submit() throws from now on.
  bool stopped_ QKMPS_GUARDED_BY(mu_) = false;

  /// Process workers connect here. Opened on the first process spawn
  /// (in the constructor) and kept for the engine's life — add_shard()
  /// and the respawn path accept fresh workers on it. Touched only by
  /// the constructor, then the router thread, then the destructor after
  /// that thread is joined — single-owner by construction.
  std::unique_ptr<parallel::SocketListener> listener_;
  std::thread router_thread_;
  /// First router-loop escapee, if any.
  std::exception_ptr router_error_ QKMPS_GUARDED_BY(mu_);

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> resizes_{0};
  std::uint64_t next_id_ = 0;  ///< router-thread-only
};

}  // namespace qkmps::serve
