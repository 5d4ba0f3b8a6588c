// Self-tests of the benchmark's own arithmetic: percentiles and their tail
// counts, self time under nested spans, coverage, the sampled decorator's
// scale-up and bit transparency, and the replay-equals-service byte check.
#include <gtest/gtest.h>

#include <numeric>

#include "core/thread_pool.hpp"
#include "ledger.hpp"
#include "replay.hpp"
#include "sampled_backend.hpp"
#include "service/accelerator_service.hpp"
#include "shard/wire.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<double> oneTo(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, InterpolatesBetweenRanks) {
  const std::vector<double> v = oneTo(100);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 50.5);
  EXPECT_NEAR(percentile(v, 0.9), 90.1, 1e-9);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 100.0);
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.9), 7.0);
}

TEST(Percentile, OrderDoesNotMatter) {
  std::vector<double> v = oneTo(50);
  std::reverse(v.begin(), v.end());
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 25.5);
  EXPECT_DOUBLE_EQ(median(v), 25.5);
}

TEST(Percentile, HundredSamplesLeaveTenBeyondP90) {
  const std::vector<double> v = oneTo(100);
  EXPECT_EQ(countAbove(v, percentile(v, 0.9)), 10u);
  const std::vector<double> few = oneTo(50);
  EXPECT_EQ(countAbove(few, percentile(few, 0.9)), 5u);
  EXPECT_EQ(countAbove(v, percentile(v, 0.5)), 50u);
}

Span span(const char* name, double a, double b, std::int64_t parent) {
  Span s;
  s.name = name;
  s.startUs = a;
  s.endUs = b;
  s.parent = parent;
  return s;
}

TEST(SelfTime, SubtractsTheUnionOfDirectChildren) {
  // root [0,100] with overlapping children [10,40] and [30,60], and a
  // grandchild inside the first child that must not count for the root.
  const std::vector<Span> spans = {
      span("root", 0, 100, -1), span("a", 10, 40, 0), span("b", 30, 60, 0),
      span("a.child", 15, 20, 1), span("c", 90, 120, 0)};
  const std::vector<double> self = selfTimesUs(spans);
  EXPECT_DOUBLE_EQ(self[0], 100 - 50 - 10);  // children clipped to [90,100]
  EXPECT_DOUBLE_EQ(self[1], 30 - 5);
  EXPECT_DOUBLE_EQ(self[2], 30);
  EXPECT_DOUBLE_EQ(self[3], 5);
  EXPECT_DOUBLE_EQ(self[4], 30);
}

TEST(SelfTime, LayerTotalsSumPerName) {
  const std::vector<Span> spans = {
      span("req", 0, 10, -1), span("lane", 0, 4, 0), span("lane", 2, 8, 0),
      span("req", 20, 30, -1)};
  const auto totals = layerTotals(spans);
  EXPECT_EQ(totals.at("req").count, 2u);
  EXPECT_DOUBLE_EQ(totals.at("req").totalUs, 20);
  EXPECT_DOUBLE_EQ(totals.at("req").selfUs, 2 + 10);
  EXPECT_DOUBLE_EQ(totals.at("lane").selfUs, 10);
}

TEST(Coverage, IsTheChildCoveredShareOfRootTime) {
  const std::vector<Span> spans = {span("req", 0, 10, -1), span("x", 0, 9, 0),
                                   span("req", 10, 20, -1),
                                   span("y", 10, 20, 2)};
  EXPECT_DOUBLE_EQ(coverage(spans), 19.0 / 20.0);
  EXPECT_DOUBLE_EQ(coverage({}), 0.0);
}

TEST(SpanRecorder, DisabledRecordsNothing) {
  SpanRecorder off(false);
  EXPECT_EQ(off.begin("x", -1, 1), -1);
  off.end(-1);
  EXPECT_TRUE(off.spans().empty());
  SpanRecorder on(true);
  const std::int64_t root = on.begin("root", -1, 7);
  on.end(on.begin("child", root, 7));
  on.end(root);
  const std::vector<Span> spans = on.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[1].request, 7u);
  EXPECT_GE(spans[0].endUs, spans[1].endUs);
  EXPECT_NE(chromeTraceJson(spans).find("\"traceEvents\""), std::string::npos);
}

TEST(SampledBackend, ScaleUpMultipliesBySampledShare) {
  EXPECT_DOUBLE_EQ(scaledEstimate(100.0, 160, 10), 1600.0);
  EXPECT_DOUBLE_EQ(scaledEstimate(42.0, 5, 5), 42.0);
  EXPECT_DOUBLE_EQ(scaledEstimate(0.0, 9, 0), 0.0);
}

TEST(SampledBackend, SamplesOneCallInEveryAndForwardsBits) {
  aimsc::core::BackendFactoryConfig bc;
  bc.seed = 99;
  auto plain = aimsc::core::makeBackend(DesignKind::SwScLfsr, bc);
  auto inner = aimsc::core::makeBackend(DesignKind::SwScLfsr, bc);
  SampledBackend sampled(*inner, 4);

  const std::vector<std::uint8_t> px = {10, 200, 77, 128};
  auto a = plain->encodePixels(px);
  auto b = sampled.encodePixels(px);
  std::vector<aimsc::core::ScValue> pa, pb;
  for (int k = 0; k < 10; ++k) {
    pa.push_back(plain->multiply(a[0], a[1]));
    pb.push_back(sampled.multiply(b[0], b[1]));
  }
  EXPECT_EQ(plain->decodePixels(pa), sampled.decodePixels(pb));
  EXPECT_EQ(plain->opCount(), sampled.opCount());

  const StageTimes& t = sampled.times();
  EXPECT_EQ(t[Stage::Encode].calls, 1u);
  EXPECT_EQ(t[Stage::Ops].calls, 10u);
  EXPECT_EQ(t[Stage::Decode].calls, 1u);
  EXPECT_LE(t[Stage::Ops].sampled, t[Stage::Ops].calls);
}

TEST(SampledBackend, SamplesAboutOneCallInEvery) {
  auto inner = aimsc::core::makeBackend(DesignKind::SwScLfsr, {});
  SampledBackend sampled(*inner, 16);
  const auto x = sampled.encodePixels(std::vector<std::uint8_t>{100, 50});
  for (int k = 0; k < 16000; ++k) sampled.multiply(x[0], x[1]);
  const StageTally& ops = sampled.times()[Stage::Ops];
  EXPECT_EQ(ops.calls, 16000u);
  EXPECT_GT(ops.sampled, 800u);
  EXPECT_LT(ops.sampled, 1200u);
  EXPECT_DOUBLE_EQ(sampled.times().estimatedNs(Stage::Ops),
                   ops.sampledNs * 16000.0 / static_cast<double>(ops.sampled));
}

/// A small request on each path the replay mirrors: a plain lane fleet, a
/// ReRAM fleet with the two-wave morphology schedule, and TMR voting.
std::vector<Item> replayItems() {
  Workload w = makeWorkload("small_clean", 3);
  std::vector<Item> items;
  for (Item& it : w.items) {
    if (it.app == AppKind::Gamma || it.app == AppKind::Morphology ||
        it.replicas > 1) {
      items.push_back(std::move(it));
    }
  }
  return items;
}

TEST(Replay, BytesEqualTheService) {
  const std::vector<Item> items = replayItems();
  ASSERT_GE(items.size(), 3u);
  Workload w;
  w.workerThreads = 2;
  aimsc::service::AcceleratorService service(serviceConfigFor(w));
  aimsc::core::ThreadPool pool(2);
  aimsc::service::FaultModelCache cache;
  SpanRecorder rec(true);
  for (const Item& it : items) {
    aimsc::img::Image served(it.outWidth, it.outHeight);
    const aimsc::service::RequestResult res =
        service.run(it.tenant, requestFor(it, served));
    aimsc::img::Image scratch(it.outWidth, it.outHeight);
    const ReplayResult r =
        replayRequest(requestFor(it, scratch), {kLanes, kRowsPerTile}, cache,
                      pool, rec, 1, 8);
    EXPECT_EQ(aimsc::shard::fnv1a64(r.pixels),
              aimsc::shard::fnv1a64(served.pixels()))
        << it.label();
    EXPECT_EQ(r.events, res.events) << it.label();
    EXPECT_EQ(r.opCount, res.opCount) << it.label();
    EXPECT_EQ(r.fleetBuildMs.size(), it.replicas);
    EXPECT_EQ(r.stage1.empty(), it.app != AppKind::Morphology);
    EXPECT_EQ(r.voteMs >= 0, it.replicas > 1);
  }
  EXPECT_GT(coverage(rec.spans()), 0.5);
}

}  // namespace
}  // namespace perfbench
