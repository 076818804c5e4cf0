// The traced replay: each input once more, through the stage functions
// core/scalapart.cpp calls, with a span around each layer's calls.
#pragma once

#include <string>
#include <vector>

#include "obs/json.hpp"
#include "workloads.hpp"

namespace spbench {

/// Replays every input of `w` and checks that each replay reproduces the
/// untraced call's cut, part_fp and modeled time (`reference`, in call
/// order). Writes the spans to `spans_path` as JSON lines and returns
/// {"calls_s": traced call seconds, "layers": {metric: value}}.
sp::obs::JsonValue traced_replay(const Workload& w,
                                 const std::vector<InputFile>& files,
                                 const std::vector<CallRecord>& reference,
                                 const std::string& spans_path, Tally& tally);

}  // namespace spbench
