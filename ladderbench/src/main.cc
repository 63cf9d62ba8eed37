// ladder_bench: the layer-ladder pub/sub benchmark harness.
//
//   ladder_bench --workload NAME --seed N --seconds S --trace 0|1
//                [--out-dir DIR] [--window W]
//   ladder_bench --self-test
//
// --window overrides the workload's closed-loop window; DESIGN.md's window
// sweep is made with it.
// --trace 0 measures the end-to-end metrics with no tracing; --trace 1 is
// the separate traced run that yields the per-layer metrics (spans around
// every public call, the eight-rung ladder, stats snapshots). Either way
// every delivery is checked against DOM ground truth. The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// The exit code is non-zero when any check failed. DESIGN.md in this
// directory documents the workloads and every metric.

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "drive.h"
#include "ladder.h"
#include "probes.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

#ifndef LADDER_BUILD_TYPE
#define LADDER_BUILD_TYPE "unknown"
#endif

namespace ladder {

int RunSelfTest();  // selftest.cc

namespace {

// Set-up runs in bursts spread over the run: one before each closed- and
// each open-loop slice. The host changes state every fraction of a second,
// and a burst of set-ups is short enough to land in one state, so a run's
// set-ups must come from many moments. The first kSetupCold set-ups of a
// burst run cold and are not counted (DESIGN.md).
constexpr int kSetupBurst = 7;
constexpr int kSetupCold = 2;
constexpr double kWarmupSeconds = 1.5;
constexpr double kClosedShare = 0.35;  // of --seconds; the open loop gets the rest
constexpr int kIntervals = 20;
// The untraced run alternates closed- and open-loop slices this many times,
// so a slow spell of the host, which lasts seconds, lands on both loops'
// samples instead of on whichever loop happened to be running.
constexpr int kRounds = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir = ".";
  size_t window = 0;  // 0: the workload's
  bool self_test = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      a->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a->trace = std::atoi(v);
    } else if (flag == "--out-dir") {
      a->out_dir = v;
    } else if (flag == "--window") {
      a->window = std::strtoull(v, nullptr, 10);
    } else {
      return false;
    }
  }
  return a->self_test || (!a->workload.empty() && a->seconds > 0);
}

// Ordered name -> (value, unit) collection, printed as text and as JSON.
class Metrics {
 public:
  void Set(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) value = 0;
    if (index_.count(name) == 0) {
      index_[name] = order_.size();
      order_.push_back({name, value, unit});
    } else {
      order_[index_[name]].value = value;
    }
  }
  std::string Json() const {
    std::string out = "{";
    char buf[512];
    for (size_t i = 0; i < order_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", order_[i].name.c_str(), order_[i].value,
                    order_[i].unit);
      out += buf;
    }
    return out + "}";
  }
  void Print(const char* heading) const {
    std::printf("%s\n", heading);
    for (const Entry& e : order_) {
      std::printf("  %-34s %14.6g %s\n", e.name.c_str(), e.value, e.unit);
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> order_;
  std::map<std::string, size_t> index_;
};

// Failures the whole run saw, against operations attempted.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> notes;

  void Fail(uint64_t n, const std::string& what) {
    if (n == 0) return;
    failed += n;
    notes.push_back(what + ": " + std::to_string(n));
  }
  double share() const {
    return attempted == 0 ? 0 : static_cast<double>(failed) / static_cast<double>(attempted);
  }
};

// Checks a target once it is quiet and folds its failures into the tally.
void Settle(Target* t, Tally* tally, const char* label) {
  const Settled settled = ladder::Settle(t);
  tally->attempted += settled.attempted;
  for (const auto& [what, n] : settled.failures) {
    tally->Fail(n, std::string(label) + " " + what);
  }
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string Series(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + Num(v[i]);
  return out + "]";
}

void WriteRecord(const std::string& path, const Args& a, const Tally& tally,
                 const Metrics& metrics,
                 const std::vector<std::pair<std::string, std::string>>& extra) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n  \"seconds\": %s,\n"
               "  \"trace\": %d,\n  \"build_type\": \"%s\",\n  \"nproc\": %d,\n"
               "  \"attempted\": %llu,\n  \"failed\": %llu,\n",
               a.workload.c_str(), static_cast<unsigned long long>(a.seed),
               Num(a.seconds).c_str(), a.trace, LADDER_BUILD_TYPE, CoreCount(),
               static_cast<unsigned long long>(tally.attempted),
               static_cast<unsigned long long>(tally.failed));
  std::fprintf(f, "  \"failure_notes\": [");
  for (size_t i = 0; i < tally.notes.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i ? ", " : "", tally.notes[i].c_str());
  }
  std::fprintf(f, "],\n");
  for (const auto& [k, v] : extra) std::fprintf(f, "  \"%s\": %s,\n", k.c_str(), v.c_str());
  std::fprintf(f, "  \"metrics\": %s\n}\n", metrics.Json().c_str());
  std::fclose(f);
}

double Share(double part, double whole) { return whole > 0 ? part / whole : 0; }

std::pair<uint64_t, uint64_t> BlockedNanos(const vitex::ServiceStats& s) {
  uint64_t publish = 0, fanout = 0;
  for (const auto& st : s.streams) publish += st.publish_blocked_nanos;
  for (const auto& sh : s.shards) fanout += sh.fanout_blocked_nanos;
  return {publish, fanout};
}

// --- untraced run: the end-to-end metrics -------------------------------------

int RunEndToEnd(const Args& a, const Workload& w, Metrics* m, Tally* tally,
                std::vector<std::pair<std::string, std::string>>* extra) {
  const WorkloadSpec& spec = w.spec;
  // Per set-up, in time order: wall time, and CPU time of the set-up
  // thread and of the whole process; `setup_warm_s` holds the wall times
  // setup_s is the median of.
  std::vector<double> setup_wall_s, setup_cpu_s, setup_proc_s, setup_warm_s;
  // One burst of set-ups; with `keep`, the last one becomes `target`, the
  // system the loops run on.
  std::unique_ptr<Target> target;
  auto set_up = [&](bool keep) {
    for (int j = 0; j < kSetupBurst; ++j) {
      std::unique_ptr<Target> t = Target::New(w, TargetOptions{});
      const double proc0 = ProcessCpuSeconds();
      const double cpu0 = ThreadCpuSeconds();
      const int64_t t0 = NowNs();
      const vitex::Status started = t->Start();
      const int64_t t1 = NowNs();
      const double cpu1 = ThreadCpuSeconds();
      const double proc1 = ProcessCpuSeconds();
      if (!started.ok()) {
        std::fprintf(stderr, "set-up failed: %s\n", started.ToString().c_str());
        return false;
      }
      setup_cpu_s.push_back(cpu1 - cpu0);
      setup_proc_s.push_back(proc1 - proc0);
      setup_wall_s.push_back(static_cast<double>(t1 - t0) / 1e9);
      if (j >= kSetupCold) setup_warm_s.push_back(setup_wall_s.back());
      if (keep && j + 1 == kSetupBurst) {
        target = std::move(t);
      } else {
        Settle(t.get(), tally, "set-up");
      }
    }
    return true;
  };
  if (!set_up(true)) return 1;
  int threads = LiveThreads();
  RunClosedLoop(target.get(), spec.window, kWarmupSeconds, 1);
  ClosedLoopResult closed;
  OpenLoopResult open;
  double peak_rss_mb = 0;
  for (int round = 0; round < kRounds; ++round) {
    if (round > 0 && !set_up(false)) return 1;
    closed.Add(RunClosedLoop(target.get(), spec.window, a.seconds * kClosedShare / kRounds,
                             kIntervals / kRounds));
    // Read before any open-loop slice: during a stall of the host the open
    // loop queues documents (with their event logs) in proportion to the
    // stall, while the closed loop holds at most `window` of them.
    if (round == 0) peak_rss_mb = PeakRssMb();
    threads = std::max(threads, LiveThreads());
    // Set up on a quiet pipeline, not beside the closed loop's last documents.
    target->WaitOutstandingBelow(1, NowNs() + 20 * 1000000000LL);
    if (!set_up(false)) return 1;
    open.Add(RunOpenLoop(target.get(), spec.offered_rate,
                         a.seconds * (1 - kClosedShare) / kRounds));
  }
  threads = std::max(threads, LiveThreads());
  if (closed.stalled) tally->Fail(1, "closed loop stalled");
  if (!open.status.ok()) tally->Fail(1, "open loop: " + open.status.ToString());
  Settle(target.get(), tally, "run");
  target.reset();

  m->Set("docs_per_s", Median(closed.docs_per_s), "1/s");
  m->Set("latency_p50_ms", Quantile(open.latency_ms, 0.5), "ms");
  m->Set("setup_s", Median(setup_warm_s), "s");
  m->Set("peak_rss_mb", peak_rss_mb, "MiB");
  m->Set("cpu_ms_per_doc", Median(closed.cpu_ms_per_doc), "ms");
  // Measured and printed, but not result metrics: on a shared KVM guest
  // their run-to-run spread is wider than any bound the benchmark could
  // hold them to (DESIGN.md).
  std::printf("latency_p99_ms %.6g ms (%zu samples, %zu beyond)\n",
              WindowedQuantile(open.latency_ms, 0.99), open.latency_ms.size(),
              CountAbove(open.latency_ms, 0.99));
  std::printf("set-up: wall median %.6g s; set-up thread CPU median %.6g s\n",
              Median(setup_wall_s), Median(setup_cpu_s));
  const double peak_rss_end_mb = PeakRssMb();
  std::printf("peak RSS at the end of the run: %.6g MiB\n", peak_rss_end_mb);

  std::printf("closed loop: %llu documents in %.3f s, window %zu, intervals(docs/s):",
              static_cast<unsigned long long>(closed.documents), closed.seconds,
              spec.window);
  for (double r : closed.docs_per_s) std::printf(" %.1f", r);
  std::printf("\nopen loop: %.1f docs/s offered for %.3f s, generator lag p99 %.3f ms\n",
              spec.offered_rate, open.seconds, Quantile(open.gen_lag_ms, 0.99));
  extra->push_back({"closed_loop_docs_per_s", Series(closed.docs_per_s)});
  extra->push_back({"closed_loop_cpu_ms_per_doc", Series(closed.cpu_ms_per_doc)});
  std::vector<double> latency_q;
  for (double q : {0.5, 0.75, 0.9, 0.95, 0.99, 0.999}) {
    latency_q.push_back(Quantile(open.latency_ms, q));
  }
  extra->push_back({"latency_ms_p50_p75_p90_p95_p99_p999", Series(latency_q)});
  extra->push_back({"latency_samples", std::to_string(open.latency_ms.size())});
  extra->push_back({"gen_lag_ms_p99", Num(Quantile(open.gen_lag_ms, 0.99))});
  extra->push_back({"threads_live", std::to_string(threads)});
  extra->push_back({"peak_rss_end_mb", Num(peak_rss_end_mb)});
  extra->push_back({"setup_cpu_s_reps", Series(setup_cpu_s)});
  extra->push_back({"setup_proc_cpu_s_reps", Series(setup_proc_s)});
  extra->push_back({"setup_wall_s_reps", Series(setup_wall_s)});
  std::printf("threads live: %d (nproc %d)\n", threads, CoreCount());
  return 0;
}

// --- traced run: the per-layer metrics ----------------------------------------

int RunTraced(const Args& a, const Workload& w, Metrics* m, Tally* tally,
              std::vector<std::pair<std::string, std::string>>* extra) {
  const WorkloadSpec& spec = w.spec;
  const double slice = a.seconds * 0.15;
  SpanRecorder spans;
  spans.set_enabled(false);
  TargetOptions traced;
  traced.spans = &spans;
  vitex::Result<std::unique_ptr<Target>> made = Target::Create(w, traced);
  if (!made.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", made.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Target> t = std::move(made).value();
  int threads = LiveThreads();
  RunClosedLoop(t.get(), spec.window, kWarmupSeconds, 1);
  // Untraced and traced closed loops alternate, so bench.trace_overhead_share
  // compares like with like on a host whose speed drifts.
  ClosedLoopResult plain, traced_loop;
  for (int block = 0; block < 4; ++block) {
    spans.set_enabled(block % 2 == 1);
    (block % 2 == 1 ? traced_loop : plain)
        .Add(RunClosedLoop(t.get(), spec.window, slice / 2, kIntervals / 2));
  }
  spans.set_enabled(true);
  const vitex::ServiceStats s0 = t->service().stats();
  const int64_t open0 = NowNs();
  const OpenLoopResult open = RunOpenLoop(t.get(), spec.offered_rate, a.seconds * 0.3);
  const int64_t open_ns = NowNs() - open0;
  spans.set_enabled(false);
  threads = std::max(threads, LiveThreads());
  const vitex::ServiceStats s1 = t->service().stats();
  if (plain.stalled || traced_loop.stalled) tally->Fail(1, "closed loop stalled");
  if (!open.status.ok()) tally->Fail(1, "open loop: " + open.status.ToString());
  Settle(t.get(), tally, "traced run");
  t.reset();
  const std::string span_path = a.out_dir + "/spans-" + a.workload + "-seed" +
                                std::to_string(a.seed) + ".tsv";
  if (spans.WriteTsv(span_path)) extra->push_back({"spans_file", "\"" + span_path + "\""});

  // The same shape with stage tracing off, for obs.stage_tracing_share.
  TargetOptions obs_off;
  obs_off.stage_tracing = false;
  made = Target::Create(w, obs_off);
  if (!made.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", made.status().ToString().c_str());
    return 1;
  }
  t = std::move(made).value();
  RunClosedLoop(t.get(), spec.window, kWarmupSeconds, 1);
  const ClosedLoopResult no_obs = RunClosedLoop(t.get(), spec.window, slice, kIntervals);
  if (no_obs.stalled) tally->Fail(1, "closed loop stalled");
  Settle(t.get(), tally, "stage-tracing-off run");
  t.reset();

  vitex::Result<LadderResult> ladder_or = RunLadder(w, a.seconds * 0.25 / 10);
  if (!ladder_or.ok()) {
    std::fprintf(stderr, "ladder failed: %s\n", ladder_or.status().ToString().c_str());
    return 1;
  }
  const LadderResult& L = ladder_or.value();
  tally->attempted += L.attempted;
  tally->Fail(L.failures, "ladder delivery failures");

  const auto& r = L.rung_us_per_doc;
  const auto& self = L.self_us_per_doc;
  m->Set("xml.parse_us_per_doc", self[0], "us");
  m->Set("xml.record_us_per_doc", self[1], "us");
  m->Set("xml.replay_us_per_doc", self[2], "us");
  m->Set("xml.events_per_doc", L.events_per_doc, "count");
  m->Set("xml.log_bytes_per_doc", L.log_bytes_per_doc, "bytes");
  m->Set("xpath.compile_us_per_query", L.compile_us_per_query, "us");
  const auto& ds = L.dispatch;
  const double events = static_cast<double>(ds.start_events + ds.end_events + ds.text_nodes);
  const double visits = static_cast<double>(ds.start_visits + ds.end_visits + ds.text_visits);
  m->Set("twigm.match_us_per_doc", self[3], "us");
  m->Set("twigm.deliver_us_per_doc", self[4], "us");
  m->Set("twigm.visits_per_event", Share(visits, events), "ratio");
  m->Set("twigm.broadcast_share", Share(static_cast<double>(ds.broadcast_visits), visits),
         "share");
  m->Set("twigm.machines_per_sub",
         Share(static_cast<double>(ds.machines), static_cast<double>(ds.subscriptions)), "ratio");
  m->Set("twigm.plan_hit_ratio",
         Share(static_cast<double>(ds.plan_hits),
               static_cast<double>(ds.plan_hits + ds.plan_misses)), "share");
  m->Set("twigm.results_per_doc", L.results_per_doc, "count");
  m->Set("twigm.result_bytes_per_doc", L.result_bytes_per_doc, "bytes");

  m->Set("service.pull_us_per_doc", self[5], "us");
  m->Set("service.push_us_per_doc", self[6], "us");
  m->Set("service.subscribe_us_p50", Quantile(L.subscribe_us, 0.5), "us");
  m->Set("service.subscribe_us_p99", Quantile(L.subscribe_us, 0.99), "us");
  const std::vector<double> publish_us = spans.DurationsUs(SpanKind::kPublish);
  m->Set("service.publish_us_p50", Quantile(publish_us, 0.5), "us");
  m->Set("service.publish_us_p99", Quantile(publish_us, 0.99), "us");
  m->Set("service.drain_us_per_call", L.drain_us_per_call, "us");
  const auto b0 = BlockedNanos(s0);
  const auto b1 = BlockedNanos(s1);
  m->Set("service.publish_blocked_share",
         Share(static_cast<double>(b1.first - b0.first), static_cast<double>(open_ns)), "share");
  m->Set("service.fanout_blocked_share",
         Share(static_cast<double>(b1.second - b0.second), static_cast<double>(open_ns)),
         "share");
  size_t ingest_hw = 0, inbox_hw = 0;
  for (const auto& st : s1.streams) ingest_hw = std::max(ingest_hw, st.queue_high_watermark);
  for (const auto& sh : s1.shards) inbox_hw = std::max(inbox_hw, sh.queue_high_watermark);
  m->Set("service.ingest_high_watermark", static_cast<double>(ingest_hw), "count");
  m->Set("service.inbox_high_watermark", static_cast<double>(inbox_hw), "count");
  double vmax = 0, vsum = 0;
  for (const auto& sh : s1.shards) {
    const double v = static_cast<double>(sh.dispatch.start_visits + sh.dispatch.end_visits +
                                         sh.dispatch.text_visits);
    vmax = std::max(vmax, v);
    vsum += v;
  }
  m->Set("service.shard_visit_skew",
         Share(vmax, vsum / static_cast<double>(std::max<size_t>(1, s1.shards.size()))),
         "ratio");
  m->Set("service.results_overflowed", static_cast<double>(s1.results_overflowed), "count");
  m->Set("service.docs_rejected", static_cast<double>(s1.documents_rejected), "count");

  // net: the ladder's wire rung.
  m->Set("net.loopback_us_per_doc", self[7], "us");
  m->Set("net.publish_rtt_us_p50", Quantile(L.client_publish_us, 0.5), "us");
  m->Set("net.publish_rtt_us_p99", Quantile(L.client_publish_us, 0.99), "us");
  m->Set("net.poll_us_per_match", L.poll_us_per_match, "us");
  const double wire_docs = static_cast<double>(L.wire_documents);
  m->Set("net.bytes_out_per_doc", Share(static_cast<double>(L.net.bytes_out), wire_docs),
         "bytes");
  m->Set("net.frames_out_per_doc", Share(static_cast<double>(L.net.frames_out), wire_docs),
         "count");
  m->Set("net.outbuf_high_watermark", static_cast<double>(L.net.outbuf_high_watermark), "bytes");
  m->Set("net.matches_dropped", static_cast<double>(L.net.matches_dropped), "count");
  m->Set("net.connections_evicted", static_cast<double>(L.net.connections_evicted), "count");

  const double dps_plain = Median(plain.docs_per_s);
  m->Set("obs.stage_tracing_share", 1 - Share(dps_plain, Median(no_obs.docs_per_s)), "share");
  m->Set("proc.ctx_switches_per_doc",
         Share(static_cast<double>(plain.ctx_switches), static_cast<double>(plain.documents)),
         "count");
  m->Set("bench.gen_lag_ms_p99", Quantile(open.gen_lag_ms, 0.99), "ms");
  m->Set("bench.trace_overhead_share", 1 - Share(Median(traced_loop.docs_per_s), dps_plain),
         "share");
  m->Set("bench.check_us_per_doc", L.check_us_per_doc, "us");
  m->Set("bench.check_cpu_share", Share(L.check_us_per_doc, Median(plain.cpu_ms_per_doc) * 1e3),
         "share");

  // The ladder's self times along the workload's own path; the largest is
  // the dominant rung.
  const std::vector<std::pair<std::string, double>> path = {
      {"xml.parse", self[0]},  {"xml.record", self[1]},    {"xml.replay", self[2]},
      {"twigm.match", self[3]}, {"twigm.deliver", self[4]}, {"service.push", self[6]}};
  const auto dominant = std::max_element(
      path.begin(), path.end(), [](const auto& x, const auto& y) { return x.second < y.second; });
  std::printf("ladder (us/doc: median pass, self time):\n");
  std::string rungs = "{";
  for (int i = 0; i < kRungs; ++i) {
    std::printf("  %d %-8s %12.3f %12.3f\n", i + 1, RungName(i), r[i], self[i]);
    rungs += std::string(i ? ", " : "") + "\"" + RungName(i) + "\": " + Num(r[i]);
  }
  std::printf("self time along the %s path:", spec.name);
  for (const auto& [name, us] : path) std::printf(" %s=%.2f", name.c_str(), us);
  std::printf("\ndominant rung: %s (%.2f us/doc)\n", dominant->first.c_str(), dominant->second);
  std::printf("docs/s untraced %.1f, traced %.1f, stage tracing off %.1f\n", dps_plain,
              Median(traced_loop.docs_per_s), Median(no_obs.docs_per_s));
  std::printf("delivery checker: %.2f us/doc on one thread, %.4f of the process CPU per doc\n",
              L.check_us_per_doc, Share(L.check_us_per_doc, Median(plain.cpu_ms_per_doc) * 1e3));
  extra->push_back({"ladder_us_per_doc", rungs + "}"});
  extra->push_back({"dominant_rung", "\"" + dominant->first + "\""});
  extra->push_back({"threads_live", std::to_string(threads)});
  m->Set("proc.threads_live", static_cast<double>(threads), "count");
  return 0;
}

}  // namespace
}  // namespace ladder

int main(int argc, char** argv) {
  using namespace ladder;
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: ladder_bench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR] | --self-test\n");
    return 2;
  }
  if (a.self_test) return RunSelfTest();
  const WorkloadSpec* found = FindWorkload(a.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  WorkloadSpec spec = *found;
  if (a.window > 0) spec.window = a.window;
  mkdir(a.out_dir.c_str(), 0755);
  const HostCpu host0 = ReadHostCpu();
  vitex::Result<Workload> w = BuildWorkload(spec, a.seed);
  if (!w.ok()) {
    std::fprintf(stderr, "workload generation failed: %s\n", w.status().ToString().c_str());
    return 1;
  }
  std::printf("workload %s seed %llu: %zu distinct documents (%.1f KB mean), %zu "
              "subscriptions, %.1f deliveries per document; build %s, nproc %d\n",
              spec.name, static_cast<unsigned long long>(a.seed), w->docs.size(),
              static_cast<double>(w->corpus_bytes()) / 1024.0 /
                  static_cast<double>(w->docs.size()),
              w->queries.size(),
              [&] {
                double n = 0;
                for (uint64_t d : w->truth.deliveries) n += static_cast<double>(d);
                return n / static_cast<double>(w->docs.size());
              }(),
              LADDER_BUILD_TYPE, CoreCount());

  Metrics metrics;
  Tally tally;
  std::vector<std::pair<std::string, std::string>> extra;
  const int rc = a.trace ? RunTraced(a, *w, &metrics, &tally, &extra)
                         : RunEndToEnd(a, *w, &metrics, &tally, &extra);
  if (rc != 0) return rc;
  const double steal = StealShare(host0, ReadHostCpu());
  if (a.trace) {
    metrics.Set("host.steal_share", steal, "share");
    metrics.Set("host.nproc", CoreCount(), "count");
    metrics.Set("bench.failed_share", tally.share(), "share");
  }
  extra.push_back({"window", std::to_string(spec.window)});
  extra.push_back({"offered_rate", Num(spec.offered_rate)});
  extra.push_back({"steal_share", Num(steal)});
  extra.push_back({"failed_share", Num(tally.share())});
  metrics.Print(a.trace ? "per-layer metrics:" : "end-to-end metrics:");
  std::printf("failed_share %.6g (%llu of %llu operations), host steal share %.4f\n",
              tally.share(), static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted), steal);
  for (const std::string& note : tally.notes) std::printf("FAILURE %s\n", note.c_str());
  WriteRecord(a.out_dir + "/" + a.workload + "-seed" + std::to_string(a.seed) + "-trace" +
                  std::to_string(a.trace) + ".json",
              a, tally, metrics, extra);
  const bool correct = tally.failed == 0 && tally.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed), metrics.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
