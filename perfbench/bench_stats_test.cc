// Checks of the benchmark's own arithmetic (bench_stats.h). Run through
// `python3 perfbench/run.py --selftest`; exits non-zero on the first failure.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_stats.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestQuantile() {
  EXPECT(Near(Quantile({}, 0.5), 0.0));
  EXPECT(Near(Quantile({3.0}, 0.99), 3.0));
  EXPECT(Near(Median({4.0, 1.0, 3.0, 2.0}), 2.5));
  EXPECT(Near(Quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.25), 2.0));
  EXPECT(Near(Quantile({10.0, 20.0}, 0.95), 19.5));
}

void TestBestOf() {
  EXPECT(BestOf({}).empty());
  const std::vector<double> one = BestOf({{3.0, 1.0}});
  EXPECT(one.size() == 2 && Near(one[0], 3.0) && Near(one[1], 1.0));
  // Each position takes its own fastest repeat.
  const std::vector<double> best =
      BestOf({{5.0, 2.0, 9.0}, {4.0, 3.0, 9.5}, {6.0, 2.5, 8.0}});
  EXPECT(best.size() == 3);
  EXPECT(Near(best[0], 4.0) && Near(best[1], 2.0) && Near(best[2], 8.0));
  // A shorter repeat cuts the result to its length.
  EXPECT(BestOf({{1.0, 2.0, 3.0}, {0.5, 4.0}}).size() == 2);
}

void TestTailRule() {
  // p95 needs 200 samples: 200 - ceil(190) = 10 beyond; 199 leaves 9.
  EXPECT(SamplesBeyond(200, 95.0) == 10);
  EXPECT(TailResolved(200, 95.0));
  EXPECT(!TailResolved(199, 95.0));
  // p99 needs 1000, p50 needs 20.
  EXPECT(TailResolved(1000, 99.0));
  EXPECT(!TailResolved(999, 99.0));
  EXPECT(TailResolved(20, 50.0));
  EXPECT(!TailResolved(19, 50.0));
  // Non-integral ranks round the "at or below" count up.
  EXPECT(SamplesBeyond(201, 95.0) == 10);
  EXPECT(SamplesBeyond(219, 95.0) == 10);
  EXPECT(SamplesBeyond(220, 95.0) == 11);
}

void TestCoveredLength() {
  EXPECT(CoveredLength({}, 0, 100) == 0);
  // Disjoint children.
  EXPECT(CoveredLength({{10, 20}, {30, 45}}, 0, 100) == 25);
  // Overlapping children count once.
  EXPECT(CoveredLength({{10, 30}, {20, 40}}, 0, 100) == 30);
  // A child contained in another.
  EXPECT(CoveredLength({{10, 50}, {20, 30}}, 0, 100) == 40);
  // Children sticking out of the parent are clipped.
  EXPECT(CoveredLength({{-5, 10}, {90, 120}}, 0, 100) == 20);
  // Unsorted input.
  EXPECT(CoveredLength({{60, 70}, {0, 5}, {65, 80}}, 0, 100) == 25);
}

void TestSelfTimes() {
  // root [0,100) with children a [10,40) and b [30,50) (overlap 10), and a
  // grandchild g [15,25) inside a. Self: root 100-40=60, a 30-10=20, b 20,
  // g 10.
  const std::vector<SpanNode> spans = {
      {1, -1, "root", 0, 100},
      {2, 1, "a", 10, 30},
      {3, 2, "g", 15, 10},
      {4, 1, "b", 30, 20},
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT(self[0] == 60);
  EXPECT(self[1] == 20);
  EXPECT(self[2] == 10);
  EXPECT(self[3] == 20);
  // A span whose parent is missing from the set is a root.
  const std::vector<int64_t> orphan = SelfTimes({{7, 99, "x", 0, 5}});
  EXPECT(orphan[0] == 5);
  // Self times of a properly nested tree sum to the root's duration.
  int64_t sum = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].stage != "b") sum += self[i];
  }
  EXPECT(sum + self[3] - 10 == 100);  // b overlaps a by 10us
}

void TestPhaseVerdict() {
  const PhaseLimits limits;
  PhaseOutcome ok;
  ok.sent = 1000;
  ok.succeeded = 1000;
  ok.latency_p99_ms = 3.0;
  ok.generator_late_p99_ms = 0.2;
  ok.drain_ms = 2.5;
  EXPECT(PhaseMeetsLimit(ok, limits));

  PhaseOutcome slow = ok;
  slow.latency_p99_ms = 5.01;
  EXPECT(!PhaseMeetsLimit(slow, limits));
  PhaseOutcome at_limit = ok;
  at_limit.latency_p99_ms = 5.0;
  EXPECT(PhaseMeetsLimit(at_limit, limits));

  PhaseOutcome refused = ok;
  refused.succeeded = 999;
  refused.failed = 1;
  EXPECT(!PhaseMeetsLimit(refused, limits));

  PhaseOutcome backlog = ok;
  backlog.drain_ms = 40.0;
  EXPECT(!NoBacklog(backlog, limits));
  EXPECT(!PhaseMeetsLimit(backlog, limits));

  PhaseOutcome lagging = ok;
  lagging.generator_late_p99_ms = 1.0;
  EXPECT(!GeneratorKeptUp(lagging, limits));
  EXPECT(!PhaseMeetsLimit(lagging, limits));

  EXPECT(!PhaseMeetsLimit(PhaseOutcome{}, limits));
}

void TestBisection() {
  // Capacity 150k: the answer lands within the resolution below it.
  std::vector<double> probes;
  const double found = BisectMaxRate(
      50000, 400000, 0.04, 12, [](double r) { return r <= 150000; }, &probes);
  EXPECT(found <= 150000);
  EXPECT(found >= 150000 / 1.04);
  EXPECT(probes.front() == 400000);
  EXPECT(probes.size() <= 12);
  // hi itself met: returned after one probe.
  probes.clear();
  EXPECT(BisectMaxRate(1, 100, 0.01, 10, [](double) { return true; },
                       &probes) == 100);
  EXPECT(probes.size() == 1);
  // Nothing above lo met: lo comes back.
  EXPECT(BisectMaxRate(10, 1000, 0.05, 20, [](double r) { return r <= 10; }) ==
         10);
  // The probe budget caps the search.
  probes.clear();
  BisectMaxRate(1, 1e6, 1e-6, 5, [](double r) { return r < 777; }, &probes);
  EXPECT(probes.size() == 5);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestQuantile();
  perfbench::TestBestOf();
  perfbench::TestTailRule();
  perfbench::TestCoveredLength();
  perfbench::TestSelfTimes();
  perfbench::TestPhaseVerdict();
  perfbench::TestBisection();
  if (perfbench::g_failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", perfbench::g_failures);
    return 1;
  }
  std::printf("bench_stats: all checks passed\n");
  return 0;
}
