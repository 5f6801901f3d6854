// Open-loop load generation, latency summaries and the offered-rate
// ladder. Header-only and free of any Ocasta type, so the self-test can
// drive it with fake servers.
//
// Open loop: every operation has a due time fixed before the run starts
// (Poisson arrivals). A connection sends its next operation at its due
// time, or as soon as its previous reply arrives if that is later, and
// the operation's latency is measured from the due time. A server stall
// therefore shows up in the latency of every operation queued behind it
// instead of silently lowering the offered load (a closed loop's failure
// mode).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Latency value recorded for a failed or refused operation: it misses
// every limit.
inline constexpr double kFailed = std::numeric_limits<double>::infinity();

// The percentile a sample of `n` supports: the highest of 50, 90, 99,
// 99.9 and 99.99 with at least ten samples beyond it (nearest rank).
// Returns 0 when even the median has fewer than ten samples beyond it.
inline double SupportedPercentile(size_t n) {
  double best = 0;
  for (double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    if (rank >= 1 && n - rank >= 10) best = p;
  }
  return best;
}

// Nearest-rank percentile of an unsorted sample (copied).
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

struct Summary {
  size_t count = 0;
  size_t failed = 0;
  double p50 = 0;
  double tail_percentile = 0;  // Chosen by SupportedPercentile(count).
  double tail = 0;
};

inline Summary Summarize(const std::vector<double>& values) {
  Summary s;
  s.count = values.size();
  for (double v : values) s.failed += std::isinf(v) ? 1 : 0;
  if (values.empty()) return s;
  s.p50 = Percentile(values, 50);
  s.tail_percentile = SupportedPercentile(values.size());
  s.tail = s.tail_percentile > 0 ? Percentile(values, s.tail_percentile) : s.p50;
  return s;
}

// One scheduled operation: which connection sends it and when, relative
// to the start of the run.
struct Slot {
  int64_t due_ns = 0;
  uint32_t conn = 0;
};

struct SlotResult {
  double latency_ns = 0;  // Completion minus due time; kFailed on failure.
  double late_ns = 0;     // How late the generator itself sent it.
  int64_t sent_ns = 0;    // Relative to the run start.
  int64_t done_ns = 0;
};

// Runs `slots` (sorted by due time) open-loop from one busy-polling
// thread, so the generator never sleeps through a due time. Each
// connection carries one request at a time, in due order, which keeps every
// key's operations ordered (keys are pinned to connections).
//
// `transport` provides:
//   void Send(uint32_t conn, size_t index);  // start operation `index`
//   int Poll(uint32_t conn);  // -1: no reply yet, 1: reply ok, 0: failed
// Either may throw, which records the operation as failed. Lateness is
// charged to the generator only for time it could have sent but did not:
// the send time minus the later of the due time and the previous
// completion on that connection. At `give_up_ns` after the start, every
// operation not yet answered is recorded as failed (a connection still
// waiting for a reply is abandoned), which bounds a run against a
// stalled server.
template <typename Transport>
std::vector<SlotResult> RunOpenLoop(const std::vector<Slot>& slots, uint32_t connections,
                                    Transport& transport, int64_t give_up_ns = INT64_MAX) {
  std::vector<SlotResult> results(slots.size());
  std::vector<std::vector<size_t>> queue(connections);
  for (size_t i = 0; i < slots.size(); ++i) queue[slots[i].conn % connections].push_back(i);
  std::vector<size_t> head(connections, 0);
  std::vector<int64_t> in_flight(connections, -1);
  std::vector<int64_t> prev_done(connections, 0);
  size_t remaining = slots.size();
  const int64_t start = NowNs();
  auto finish = [&](uint32_t c, size_t index, bool ok, int64_t now) {
    SlotResult& r = results[index];
    r.latency_ns = ok ? static_cast<double>(now - start - slots[index].due_ns) : kFailed;
    r.done_ns = now - start;
    prev_done[c] = now;
    in_flight[c] = -1;
    --remaining;
  };
  while (remaining > 0) {
    for (uint32_t c = 0; c < connections; ++c) {
      int64_t now = NowNs();
      if (in_flight[c] >= 0) {
        int state = 0;
        try {
          state = transport.Poll(c);
        } catch (...) {
          state = 0;
        }
        if (state < 0 && now - start < give_up_ns) continue;
        now = NowNs();
        finish(c, static_cast<size_t>(in_flight[c]), state == 1, now);
        if (state < 0) {
          // Abandon a connection whose reply never came: later replies
          // could no longer be matched to their requests.
          for (; head[c] < queue[c].size(); ++head[c]) finish(c, queue[c][head[c]], false, now);
          continue;
        }
      }
      if (head[c] == queue[c].size()) continue;
      const size_t index = queue[c][head[c]];
      const int64_t due = start + slots[index].due_ns;
      now = NowNs();
      if (now < due) continue;
      ++head[c];
      SlotResult& r = results[index];
      r.sent_ns = now - start;
      r.late_ns = static_cast<double>(now - std::max(due, prev_done[c]));
      if (now - start >= give_up_ns) {
        finish(c, index, false, now);
        continue;
      }
      in_flight[c] = static_cast<int64_t>(index);
      try {
        transport.Send(c, index);
      } catch (...) {
        finish(c, index, false, NowNs());
      }
    }
  }
  return results;
}

// Poisson arrival times (ns) at `rate` per second for `seconds`;
// `next_uniform` yields doubles in [0, 1).
template <typename Uniform>
std::vector<int64_t> PoissonDueTimes(double rate, double seconds, Uniform&& next_uniform) {
  std::vector<int64_t> due;
  double t = 0;
  for (;;) {
    const double u = next_uniform();
    t += -std::log(1.0 - std::min(u, 0.9999999999999999)) / rate;
    if (t >= seconds) break;
    due.push_back(static_cast<int64_t>(t * 1e9));
  }
  return due;
}

// --- Offered-rate ladder ----------------------------------------------------

struct LadderStep {
  double rate = 0;
  Summary latency;              // Of every operation in the step, in ns.
  double p99 = 0;               // Failed operations count as infinitely late.
  double last_quarter_p50 = 0;  // Median latency of the step's last quarter (ns).
  bool passed = false;
};

// A step passes when nothing failed, it has enough samples to support a
// p99, its p99 is under `limit_ns`, and so is the median of its last
// quarter (a growing backlog pushes the late operations past it).
inline bool StepPasses(const std::vector<double>& latencies_in_due_order, double limit_ns,
                       LadderStep* step) {
  step->latency = Summarize(latencies_in_due_order);
  const size_t n = latencies_in_due_order.size();
  step->p99 = Percentile(latencies_in_due_order, 99);
  std::vector<double> last(latencies_in_due_order.begin() + static_cast<std::ptrdiff_t>(n - n / 4),
                           latencies_in_due_order.end());
  step->last_quarter_p50 = last.empty() ? 0 : Percentile(last, 50);
  step->passed = SupportedPercentile(n) >= 99 && step->latency.failed == 0 &&
                 step->p99 <= limit_ns && step->last_quarter_p50 <= limit_ns;
  return step->passed;
}

// Climbs `rates` in order, running one step per rate through `run_step`
// (which returns the step's latencies in due order), and stops at the
// first step that fails. Returns every step run; the highest passing rate
// is the last passed one.
inline std::vector<LadderStep> RunLadder(
    const std::vector<double>& rates, double limit_ns,
    const std::function<std::vector<double>(double rate)>& run_step) {
  std::vector<LadderStep> steps;
  for (double rate : rates) {
    LadderStep step;
    step.rate = rate;
    const bool ok = StepPasses(run_step(rate), limit_ns, &step);
    steps.push_back(step);
    if (!ok) break;
  }
  return steps;
}

inline double HighestPassingRate(const std::vector<LadderStep>& steps) {
  double best = 0;
  for (const LadderStep& step : steps) {
    if (!step.passed) break;
    best = step.rate;
  }
  return best;
}

// Geometric ladder from `low` to `high` with each step `ratio` above the
// previous one.
inline std::vector<double> GeometricRates(double low, double high, double ratio) {
  std::vector<double> rates;
  for (double r = low; r <= high * 1.0000001; r *= ratio) rates.push_back(std::round(r));
  return rates;
}

// --- Spans ------------------------------------------------------------------

// One traced interval. Spans of one request share `trace_id`; `parent`
// is the index of the enclosing span in the same recorder, or -1.
struct Span {
  const char* name = "";
  uint64_t trace_id = 0;
  int64_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// In-memory span sink, one per thread; written out when the run ends.
class SpanRecorder {
 public:
  int64_t Begin(const char* name, uint64_t trace_id, int64_t parent) {
    spans_.push_back({name, trace_id, parent, NowNs(), 0});
    return static_cast<int64_t>(spans_.size() - 1);
  }
  void End(int64_t index) { spans_[static_cast<size_t>(index)].end_ns = NowNs(); }
  // Records an interval measured elsewhere.
  int64_t Add(const char* name, uint64_t trace_id, int64_t parent, int64_t start, int64_t end) {
    spans_.push_back({name, trace_id, parent, start, end});
    return static_cast<int64_t>(spans_.size() - 1);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// Self time of each span: its duration minus the union of its direct
// children's intervals (children may overlap when they ran in parallel).
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) children[static_cast<size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cur_start = 0;
    int64_t cur_end = std::numeric_limits<int64_t>::min();
    for (const auto& [b, e] : kids) {
      const int64_t lo = std::max(b, spans[i].start_ns);
      const int64_t hi = std::min(e, spans[i].end_ns);
      if (hi <= lo) continue;
      if (lo > cur_end) {
        if (cur_end > cur_start) covered += cur_end - cur_start;
        cur_start = lo;
        cur_end = hi;
      } else {
        cur_end = std::max(cur_end, hi);
      }
    }
    if (cur_end > cur_start) covered += cur_end - cur_start;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

}  // namespace perfbench
