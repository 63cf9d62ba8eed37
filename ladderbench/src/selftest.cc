// The harness's self-test (ladder_bench --self-test): proves that the
// verdict, the percentile code and the open loop's lag accounting report
// what they should, before any number from them is trusted.
//
//   1. Order statistics return known values on known inputs.
//   2. The delivery checker passes an exact delivery stream in any order
//      within a document, and fails a dropped, duplicated or altered one.
//   3. The same three faults injected into real push, pull and wire targets
//      on the protein workload flip the run's verdict; the clean runs pass.
//   4. On a synthetic schedule with one 50 ms stall, the open loop charges
//      the stall to every document due during it (latency from due time)
//      and reports the late generator in its lag percentile.

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checker.h"
#include "drive.h"
#include "stats.h"
#include "twigm/multi_query.h"
#include "workloads.h"

namespace ladder {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("  %s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool Near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

void TestQuantiles() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  Expect(Near(Quantile(v, 0.5), 500.5, 1e-9), "median of 1..1000 is 500.5");
  Expect(Near(Quantile(v, 0.99), 990.01, 1e-9), "p99 of 1..1000 is 990.01");
  Expect(CountAbove(v, 0.99) == 10, "ten samples lie beyond p99 of 1000");
  Expect(Near(Median({3, 1, 2}), 2, 1e-12), "median of {3,1,2} is 2");
  Expect(Quantile({}, 0.5) == 0, "quantile of nothing is 0");
  Expect(Near(WindowedQuantile(v, 0.99), 990.01, 1e-9),
         "under 2000 samples the windowed p99 is the plain p99");
  // 10000 samples, ten windows; one window holds a burst of 200 huge values.
  std::vector<double> series(10000, 1.0);
  for (int i = 0; i < 200; ++i) series[3000 + static_cast<size_t>(i)] = 1000;
  Expect(Near(Quantile(series, 0.99), 1000, 1e-9), "a burst sets the plain p99");
  Expect(Near(WindowedQuantile(series, 0.99), 1, 1e-9),
         "a burst in one window does not set the windowed p99");
}

// Two subscriptions, two corpus documents; each test replays documents
// 0, 1, 0, 1 with one edit.
void TestChecker() {
  const std::vector<std::string> docs = {"<r><a>x</a><a>y</a><b>z</b></r>",
                                         "<r><b>w</b><a>v</a></r>"};
  vitex::Result<GroundTruth> truth = ComputeGroundTruth(docs, {"//a/text()", "//b"});
  if (!truth.ok()) {
    Expect(false, "ground truth: " + truth.status().ToString());
    return;
  }
  // What each document delivers, per subscription, in emission order —
  // produced by the streaming engine, an independent route from the DOM.
  struct D {
    size_t sub;
    uint64_t seq;
    std::string frag;
  };
  std::vector<std::vector<D>> per_doc;
  for (const std::string& doc : docs) {
    vitex::twigm::MultiQueryEngine engine;
    vitex::twigm::VectorResultCollector out[2];
    const bool ok = engine.AddQuery("//a/text()", &out[0]).ok() &&
                    engine.AddQuery("//b", &out[1]).ok() && engine.RunString(doc).ok();
    Expect(ok, "the streaming engine runs the test document");
    per_doc.emplace_back();
    for (size_t sub = 0; sub < 2; ++sub) {
      for (const auto& e : out[sub].results()) per_doc.back().push_back({sub, e.sequence, e.fragment});
    }
  }
  auto run = [&](const char* what, bool want_pass, auto edit) {
    DeliveryChecker c(&truth.value(), 8);
    for (int k = 0; k < 4; ++k) {
      c.Begin(NowNs());
      std::vector<D> ds = per_doc[k % 2];
      edit(k, &ds);
      for (const D& d : ds) c.OnDelivery(d.sub, d.seq, d.frag);
    }
    const bool pass = c.Check().failures() == 0 && c.completed() == 4;
    Expect(pass == want_pass, what);
  };
  run("exact deliveries pass", true, [](int, std::vector<D>*) {});
  run("reordered within a document pass", true, [](int k, std::vector<D>* ds) {
    if (k == 0) std::swap((*ds)[0], (*ds)[1]);
  });
  run("a dropped delivery fails", false, [](int k, std::vector<D>* ds) {
    if (k == 1) ds->erase(ds->begin());
  });
  run("a duplicated delivery fails", false, [](int k, std::vector<D>* ds) {
    if (k == 2) ds->push_back(ds->front());
  });
  run("an altered fragment fails", false, [](int k, std::vector<D>* ds) {
    if (k == 3) (*ds)[1].frag += "!";
  });
  run("an altered sequence fails", false, [](int k, std::vector<D>* ds) {
    if (k == 0) (*ds)[0].seq += 1;
  });
}

void TestFaultInjection() {
  WorkloadSpec spec = *FindWorkload("protein");
  spec.corpus_docs = 3;
  vitex::Result<Workload> w = BuildWorkload(spec, 7);
  if (!w.ok()) {
    Expect(false, "protein workload: " + w.status().ToString());
    return;
  }
  const std::pair<Mode, const char*> modes[] = {
      {Mode::kPush, "push"}, {Mode::kPull, "pull"}, {Mode::kWire, "wire"}};
  const std::pair<TargetOptions::Fault, const char*> faults[] = {
      {TargetOptions::Fault::kNone, "clean"},
      {TargetOptions::Fault::kDrop, "drop"},
      {TargetOptions::Fault::kDuplicate, "duplicate"},
      {TargetOptions::Fault::kAlter, "alter"}};
  for (const auto& [mode, mode_name] : modes) {
    for (const auto& [fault, fault_name] : faults) {
      TargetOptions options;
      options.mode = mode;
      options.fault = fault;
      options.fault_at = fault == TargetOptions::Fault::kNone ? 0 : 37;
      vitex::Result<std::unique_ptr<Target>> t = Target::Create(w.value(), options);
      if (!t.ok()) {
        Expect(false, std::string("protein (") + mode_name + ") target: " +
                          t.status().ToString());
        continue;
      }
      RunClosedLoop(t->get(), spec.window, 0.15, 1);
      const Settled s = Settle(t->get(), 1.0);
      const bool pass = s.failed() == 0 && s.attempted > 0;
      const bool clean = fault == TargetOptions::Fault::kNone;
      Expect(pass == clean, std::string("protein (") + mode_name + "): " + fault_name +
                                " run " + (pass ? "passes" : "fails"));
    }
  }
}

// A target whose "service" delivers each document inside Publish, instantly,
// except that publishing document 500 stalls for 50 ms.
class StallTarget : public Target {
 public:
  StallTarget(const Workload& w, uint64_t sequence) : sequence_(sequence) {
    workload_ = &w;
    checker_ = std::make_unique<DeliveryChecker>(&w.truth);
  }
  vitex::Service& service() override { return service_; }
  vitex::Status Publish(uint64_t k) override {
    if (k == 500) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    checker_->OnDelivery(0, sequence_, "x");
    return vitex::Status::OK();
  }
  bool WaitOutstandingBelow(uint64_t limit, int64_t) override {
    return checker_->outstanding() < limit;
  }
  void IdleUntil(int64_t t_ns) override {
    while (NowNs() < t_ns) std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  bool Quiesce(int64_t) override { return true; }
  uint64_t side_failures() const override { return 0; }
  uint64_t control_calls() const override { return 0; }
  vitex::Status Stop() override { return vitex::Status::OK(); }

 private:
  const uint64_t sequence_;
  vitex::Service service_{[] {
    vitex::ServiceOptions o;
    o.shard_count = 1;
    return o;
  }()};
};

void TestOpenLoopSchedule() {
  Workload w;
  w.docs = {"<r>x</r>"};
  w.queries = {"/r/text()"};
  vitex::Result<GroundTruth> truth = ComputeGroundTruth(w.docs, w.queries);
  if (!truth.ok()) {
    Expect(false, "ground truth: " + truth.status().ToString());
    return;
  }
  w.truth = truth.value();
  vitex::twigm::MultiQueryEngine engine;
  vitex::twigm::VectorResultCollector out;
  const bool ok = engine.AddQuery(w.queries[0], &out).ok() &&
                  engine.RunString(w.docs[0]).ok() && out.size() == 1;
  Expect(ok, "the streaming engine runs the schedule document");
  if (!ok) return;
  StallTarget t(w, out.results()[0].sequence);
  // 1000 documents at 1000/s: documents 501..549 fall due during the stall
  // and wait behind it, so their latency is 50 - (k - 500) ms, as is the
  // generator's lag in publishing them.
  const OpenLoopResult r = RunOpenLoop(&t, 1000, 1.0);
  const double p99 = Quantile(r.latency_ms, 0.99);
  const double lag99 = Quantile(r.gen_lag_ms, 0.99);
  char buf[160];
  std::snprintf(buf, sizeof(buf), "stall charged to the documents behind it (p99 %.2f ms, "
                "expected ~40)", p99);
  Expect(r.latency_ms.size() == 1000 && p99 > 36 && p99 < 48, buf);
  Expect(t.checker().Check().failures() == 0, "every scheduled document verified");
  std::snprintf(buf, sizeof(buf), "late generator reported (lag p99 %.2f ms, expected ~39)",
                lag99);
  Expect(lag99 > 35 && lag99 < 47, buf);
  std::snprintf(buf, sizeof(buf), "median unaffected (p50 %.3f ms)", Quantile(r.latency_ms, 0.5));
  Expect(Quantile(r.latency_ms, 0.5) < 2, buf);
}

}  // namespace

int RunSelfTest() {
  std::printf("self-test: order statistics\n");
  TestQuantiles();
  std::printf("self-test: delivery checker\n");
  TestChecker();
  std::printf("self-test: fault injection through real targets\n");
  TestFaultInjection();
  std::printf("self-test: open-loop schedule with a stall\n");
  TestOpenLoopSchedule();
  std::printf("self-test: %s (%d failure%s)\n", failures == 0 ? "PASS" : "FAIL", failures,
              failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}

}  // namespace ladder
