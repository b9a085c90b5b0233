// Names the benchmark rig (perfbench/rig) compiles against. The load
// generator's client engine is smr::RequestEngine; code in src/ uses it
// directly.
#pragma once

#include "smr/client.hpp"

namespace qsel::load {

using AsyncEngine = smr::RequestEngine;
using AsyncEngineConfig = smr::RequestEngineConfig;

}  // namespace qsel::load
