#pragma once
// Umbrella header for the op2 embedded DSL: include this to declare and run
// unstructured-mesh computations (sets, maps, dats, par_loop).
#include "src/op2/context.hpp"
#include "src/op2/dat.hpp"
#include "src/op2/map.hpp"
#include "src/op2/parloop.hpp"
#include "src/op2/set.hpp"
#include "src/op2/types.hpp"
