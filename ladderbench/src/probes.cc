#include "probes.h"

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

namespace ladder {

ProcUsage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcUsage out;
  out.cpu_seconds = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                    static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                        1e-6;
  out.ctx_switches = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return out;
}

namespace {
double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

int LiveThreads() {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  int n = 0;
  while (dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') ++n;
  }
  closedir(dir);
  return n;
}

int CoreCount() { return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)); }

HostCpu ReadHostCpu() {
  HostCpu out;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return out;
  unsigned long long v[10] = {};
  // cpu  user nice system idle iowait irq softirq steal guest guest_nice
  int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu",
                      &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7],
                      &v[8], &v[9]);
  std::fclose(f);
  // guest time is already included in user; sum the first eight fields.
  for (int i = 0; i < n && i < 8; ++i) out.total += v[i];
  if (n >= 8) out.steal = v[7];
  return out;
}

double StealShare(const HostCpu& before, const HostCpu& after) {
  if (after.total <= before.total) return 0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

}  // namespace ladder
