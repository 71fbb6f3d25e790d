// udring/sim/simulator.h
//
// Compatibility surface for the historical one-shot API.
//
// The execution engine now lives in sim/execution_state.h as the
// Instance × ExecutionState split (immutable spec × pooled mutable arena);
// `Simulator` is an alias for ExecutionState whose legacy constructor
// builds and owns a one-off ring Instance. Code that runs one instance and
// throws the simulator away keeps reading naturally; pooled drivers
// (core::RunContext under the campaign engine, the fuzzer, the model
// checker) construct ExecutionStates directly and reset() them across runs.

#pragma once

#include "sim/execution_state.h"  // IWYU pragma: export
#include "sim/instance.h"         // IWYU pragma: export
#include "sim/topology.h"         // IWYU pragma: export
