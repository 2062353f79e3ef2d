#include "linalg/lane_kernels.hpp"

namespace sidis::linalg {

namespace lane_builds {
extern const LaneKernels kBase;
#ifdef SIDIS_LANE_X86_BUILDS
extern const LaneKernels kAvx2;
extern const LaneKernels kAvx512;
#endif
}  // namespace lane_builds

std::vector<const LaneKernels*> lane_kernel_builds() {
  std::vector<const LaneKernels*> out{&lane_builds::kBase};
#ifdef SIDIS_LANE_X86_BUILDS
  // Also checks that the OS saves the wider register state.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) out.push_back(&lane_builds::kAvx2);
  if (__builtin_cpu_supports("avx512f")) out.push_back(&lane_builds::kAvx512);
#endif
  return out;
}

const LaneKernels& lane_kernels() {
  static const LaneKernels& selected = *lane_kernel_builds().back();
  return selected;
}

const char* lane_isa() { return lane_kernels().isa; }

}  // namespace sidis::linalg
