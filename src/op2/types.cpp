#include "src/op2/types.hpp"

namespace vcgt::op2 {

const char* access_name(Access a) {
  switch (a) {
    case Access::Read: return "READ";
    case Access::Write: return "WRITE";
    case Access::ReadWrite: return "RW";
    case Access::Inc: return "INC";
    case Access::Min: return "MIN";
    case Access::Max: return "MAX";
  }
  return "?";
}

const char* partitioner_name(Partitioner p) {
  switch (p) {
    case Partitioner::Block: return "block";
    case Partitioner::Rcb: return "rcb";
    case Partitioner::Kway: return "kway";
  }
  return "?";
}

}  // namespace vcgt::op2
