// Process and host probes read from /proc and getrusage: the per-run noise
// record (steal time, live threads, core count) and the resource metrics
// (peak RSS, CPU time, context switches).
//
// Hardware counters are deliberately absent: on the KVM guests this
// benchmark was built on, perf_event_open(PERF_COUNT_HW_INSTRUCTIONS)
// fails with ENOENT, so instructions per document cannot be read.
// cpu_ms_per_doc and proc.ctx_switches_per_doc stand in for it.

#ifndef LADDERBENCH_PROBES_H_
#define LADDERBENCH_PROBES_H_

#include <cstdint>

namespace ladder {

struct ProcUsage {
  double cpu_seconds = 0;  // user + system, all threads
  uint64_t ctx_switches = 0;  // voluntary + involuntary
};

ProcUsage ReadUsage();

/// CPU time, in seconds at nanosecond resolution, of the whole process
/// (every thread, live or exited) and of the calling thread.
double ProcessCpuSeconds();
double ThreadCpuSeconds();

/// VmHWM of this process, in MiB (0 if /proc is unreadable).
double PeakRssMb();

/// Threads currently alive in this process (/proc/self/task entries).
int LiveThreads();

/// Online cores.
int CoreCount();

/// Aggregate CPU jiffies from the first line of /proc/stat.
struct HostCpu {
  uint64_t total = 0;
  uint64_t steal = 0;
};
HostCpu ReadHostCpu();

/// Share of host CPU time stolen by the hypervisor between two readings.
double StealShare(const HostCpu& before, const HostCpu& after);

}  // namespace ladder

#endif  // LADDERBENCH_PROBES_H_
