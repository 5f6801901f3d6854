// Self-test of the benchmark's own measurement code (openloop.h): the
// percentile rule, timing from the due time, failures missing the limit,
// the ladder's stopping rule, and span self time. Exits non-zero on the
// first failed expectation.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "openloop.h"

using namespace perfbench;

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void PercentileRule() {
  // Nearest rank: p99 of 1000 leaves 10 samples beyond it, p99.9 only 1.
  Expect(SupportedPercentile(1000) == 99, "1000 samples support p99 and no higher");
  Expect(SupportedPercentile(10010) == 99.9, "10010 samples support p99.9");
  Expect(SupportedPercentile(100) == 90, "100 samples support p90 only");
  Expect(SupportedPercentile(15) == 0, "15 samples support no percentile");
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const Summary s = Summarize(v);
  Expect(s.count == 1000 && s.tail_percentile == 99 && s.tail == 990 && s.p50 == 500,
         "summary of 1..1000 reports p50 500, p99 990 and the sample count");
}

// A fake server: each request is answered `service_ns` after it was sent,
// except those listed in `stall_ns`; `fail` requests throw.
struct FakeTransport {
  int64_t service_ns = 100'000;
  std::vector<std::pair<size_t, int64_t>> stall_ns;
  std::vector<size_t> fail;
  std::vector<int64_t> ready_at = std::vector<int64_t>(64, 0);
  std::vector<size_t> current = std::vector<size_t>(64, 0);

  void Send(uint32_t c, size_t index) {
    for (size_t f : fail) {
      if (f == index) throw std::runtime_error("refused");
    }
    int64_t service = service_ns;
    for (const auto& [i, ns] : stall_ns) service = i == index ? ns : service;
    ready_at[c] = NowNs() + service;
    current[c] = index;
  }
  int Poll(uint32_t c) { return NowNs() >= ready_at[c] ? 1 : -1; }
};

void StalledServerDelaysQueuedRequests() {
  // One connection, a request due every millisecond; the first reply takes
  // 50 ms. Requests due during the stall wait behind it, and timing from
  // the due time charges them that wait.
  std::vector<Slot> slots;
  for (int i = 0; i < 100; ++i) slots.push_back({i * 1'000'000LL, 0});
  FakeTransport server;
  server.stall_ns = {{0, 50'000'000}};
  const auto results = RunOpenLoop(slots, 1, server);
  Expect(results[0].latency_ns >= 50e6, "the stalled request itself takes >= 50 ms");
  Expect(results[10].latency_ns >= 35e6,
         "a request due 10 ms into the stall is >= 35 ms late (got " +
             std::to_string(results[10].latency_ns / 1e6) + " ms)");
  Expect(results[10].late_ns < 5e6,
         "that wait is charged to the server, not to the generator's lateness");
  Expect(results[99].latency_ns < 5e6, "requests due after the backlog drains are fast again");
}

void FailuresMissTheLimit() {
  std::vector<double> lat(1000, 1000.0);  // 1 us each, limit 1 ms.
  LadderStep ok_step;
  Expect(StepPasses(lat, 1e6, &ok_step), "a fast step with no failures passes");
  for (int i = 0; i < 20; ++i) lat[static_cast<size_t>(i) * 50] = kFailed;
  LadderStep failed_step;
  Expect(!StepPasses(lat, 1e6, &failed_step) && failed_step.latency.failed == 20,
         "2% failed requests count as missing the limit");
  Expect(std::isinf(failed_step.p99), "failed requests push the p99 past any limit");
  FakeTransport refusing;
  refusing.fail = {1};
  const auto results = RunOpenLoop({{0, 0}, {1000, 0}, {2000, 0}}, 1, refusing);
  Expect(std::isinf(results[1].latency_ns) && !std::isinf(results[2].latency_ns),
         "a refused request is recorded as failed and the next one still runs");
  FakeTransport hung;
  hung.stall_ns = {{0, 60'000'000'000LL}};
  const auto given_up = RunOpenLoop({{0, 0}, {1000, 0}}, 1, hung, 20'000'000);
  Expect(std::isinf(given_up[0].latency_ns) && std::isinf(given_up[1].latency_ns),
         "a server that never answers fails every pending request at the give-up time");
}

void LadderStopsAtFirstFailure() {
  std::vector<double> run;
  const auto steps = RunLadder({100, 200, 300, 400, 500}, 1e6, [&](double rate) {
    run.push_back(rate);
    // 300 fails on backlog: its last quarter is slow although most is fast.
    std::vector<double> lat(2000, 1000.0);
    if (rate == 300) {
      for (size_t i = 1500; i < 2000; ++i) lat[i] = 5e6;
    }
    return lat;
  });
  Expect(run.size() == 3 && steps.size() == 3, "the ladder runs no step after the first failure");
  Expect(HighestPassingRate(steps) == 200, "the highest passing rate is the one before it");
  Expect(!steps[2].passed && steps[2].last_quarter_p50 == 5e6,
         "a growing backlog (slow last quarter) fails the step");
  const auto rates = GeometricRates(100, 200, 1.1);
  Expect(rates.size() == 8 && rates[1] == 110, "geometric rates step by the ratio");
}

void SpanSelfTime() {
  const std::vector<Span> spans = {
      {"root", 1, -1, 0, 100}, {"a", 1, 0, 10, 40}, {"b", 1, 0, 30, 60}, {"c", 1, 1, 15, 20}};
  const auto self = SelfTimes(spans);
  Expect(self[0] == 50, "root self time excludes the union of its children (100 - 50)");
  Expect(self[1] == 25 && self[2] == 30 && self[3] == 5, "child self times");
}

}  // namespace

int main() {
  PercentileRule();
  StalledServerDelaysQueuedRequests();
  FailuresMissTheLimit();
  LadderStopsAtFirstFailure();
  SpanSelfTime();
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}
