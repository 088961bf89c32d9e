// Resident-memory readings from the OS (Linux /proc).

#ifndef PERFBENCH_PROCMEM_H_
#define PERFBENCH_PROCMEM_H_

#include <cstdint>
#include <cstdio>
#include <cstring>

namespace perfbench {

// A "Vm...:  <n> kB" field of /proc/self/status, in KiB; -1 if absent.
inline int64_t ReadStatusKb(const char* field) {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  int64_t kb = -1;
  const size_t len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      long long v = 0;
      if (std::sscanf(line + len + 1, "%lld", &v) == 1) kb = v;
      break;
    }
  }
  std::fclose(f);
  return kb;
}

// Resets the VmHWM peak to the current resident size (writing 5 to
// /proc/self/clear_refs). Returns the resident size at the reset in KiB,
// or -1 when the kernel refuses the reset.
inline int64_t ResetPeakRss() {
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return -1;
  const bool ok = std::fputs("5", f) >= 0;
  if (std::fclose(f) != 0 || !ok) return -1;
  return ReadStatusKb("VmRSS");
}

}  // namespace perfbench

#endif  // PERFBENCH_PROCMEM_H_
