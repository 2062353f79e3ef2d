// Baseline build of the lane-tile kernels: the target's own flags, 16-byte
// registers (SSE2 on x86-64, NEON on aarch64).  Every host can run it.
#include "linalg/lane_kernels_body.hpp"

namespace sidis::linalg::lane_builds {
#if defined(__x86_64__)
extern constinit const LaneKernels kBase = make_lane_kernels<16>("sse2");
#else
extern constinit const LaneKernels kBase = make_lane_kernels<16>("generic");
#endif
}  // namespace sidis::linalg::lane_builds
