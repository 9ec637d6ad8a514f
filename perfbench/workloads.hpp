// The two perfbench workloads. Each call runs one phase: set-up (repeated,
// its quickest repeat reported), then a closed loop measured for
// opts.seconds and until its deterministic prefix is complete, then the
// output checks.
// Untraced phases fill end_to_end; traced phases also fill per_layer.
#pragma once

#include "common.hpp"

namespace perfbench {

/// The tuning daemon's layers in process, driven over a Unix socket.
[[nodiscard]] PhaseResult run_serve_churn(const RunOptions& opts, bool traced);

/// HiPerBOt driven by core::TuningEngine::run on the full systolic space.
[[nodiscard]] PhaseResult run_tune_streamed(const RunOptions& opts,
                                            bool traced);

}  // namespace perfbench
