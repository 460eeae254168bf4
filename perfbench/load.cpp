/// Serving load loops of the qkbench driver. Both run on the calling
/// thread, so the client adds exactly one thread to the engine's own.

#include <deque>
#include <future>
#include <thread>

#include "qkbench.hpp"

namespace qkbench {

using qkmps::serve::RoutedPrediction;

LoadResult closed_loop(qkmps::serve::RankShardedEngine& engine,
                       const std::vector<std::vector<double>>& rows,
                       const std::vector<idx>& order, std::size_t window) {
  LoadResult out;
  out.rows = order;
  out.results.reserve(order.size());
  std::deque<std::future<RoutedPrediction>> inflight;
  std::size_t next = 0;
  const auto t0 = Clock::now();
  while (next < order.size() || !inflight.empty()) {
    while (next < order.size() && inflight.size() < window)
      inflight.push_back(
          engine.submit(rows[static_cast<std::size_t>(order[next++])]));
    out.results.push_back(inflight.front().get());
    inflight.pop_front();
  }
  out.seconds = since(t0);
  return out;
}

LoadResult open_loop(qkmps::serve::RankShardedEngine& engine,
                     const std::vector<std::vector<double>>& rows,
                     const std::vector<idx>& order, double rate) {
  LoadResult out;
  out.rows = order;
  std::vector<std::future<RoutedPrediction>> futures;
  futures.reserve(order.size());
  const auto gap = std::chrono::duration<double>(1.0 / rate);
  // A thread woken from sleep on a shared host can run milliseconds late,
  // and the client's lateness counts as latency: sleep to within
  // kSpinLead of each due time, then spin.
  constexpr auto kSpinLead = std::chrono::milliseconds(2);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto due =
        t0 + std::chrono::duration_cast<Clock::duration>(gap * static_cast<double>(i));
    std::this_thread::sleep_until(due - kSpinLead);
    while (Clock::now() < due) {
    }
    const auto sent = Clock::now();
    futures.push_back(engine.submit(rows[static_cast<std::size_t>(order[i])]));
    out.late_seconds.push_back(std::chrono::duration<double>(sent - due).count());
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    out.results.push_back(futures[i].get());
    // total_seconds runs from admission inside submit() to fulfilment.
    out.latency_seconds.push_back(out.late_seconds[i] +
                                  out.results.back().total_seconds);
  }
  out.seconds = since(t0);
  return out;
}

std::map<std::string, double> span_self_seconds(
    const qkmps::obs::TraceSummary& trace) {
  using qkmps::obs::SpanOrigin;
  std::map<std::string, double> self;
  for (const auto& s : trace.spans) {
    double ns = static_cast<double>(s.duration_ns);
    if (s.origin == SpanOrigin::kRouter) {
      const std::uint64_t end = s.start_ns + s.duration_ns;
      for (const auto& c : trace.spans)
        if (c.origin == SpanOrigin::kWorker && c.start_ns >= s.start_ns &&
            c.start_ns + c.duration_ns <= end)
          ns -= static_cast<double>(c.duration_ns);
    }
    self[s.name] += ns * 1e-9;
  }
  return self;
}

}  // namespace qkbench
