// Planted violations for check_bench_keys.py: the kernel table emits
// "documented_kernel" (described in BENCH_ndft.json) and
// "undocumented_kernel" (not described), while BENCH_ndft.json also
// describes "stale_kernel", which no entry emits. The commented-out entry
// below must not count as emitting "stale_kernel".
#include <functional>
#include <vector>

struct MicroKernel {
  const char* bm_name;
  const char* json_key;
  std::function<double()> fn;
};

std::vector<MicroKernel> kernels() {
  std::vector<MicroKernel> ks;
  ks.push_back({"BM_Documented", "documented_kernel", [] { return 1.0; }});
  ks.push_back({"BM_Undocumented", "undocumented_kernel",
                [] { return 2.0; }});
  // ks.push_back({"BM_Stale", "stale_kernel", [] { return 3.0; }});
  return ks;
}
