//===- vm/Heap.h - Object heap ----------------------------------*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bump-allocated object heap. References are 1-based indices (0 is
/// null). Fields hold 64-bit integers; the verifier enforces that only
/// int values flow through Get/PutField. Collection is modelled as a
/// pause cost only (the runtime services charge cost::GCPause when
/// the allocation threshold trips); storage is reclaimed wholesale via
/// reset() between benchmark iterations where workloads opt in.
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_VM_HEAP_H
#define CBSVM_VM_HEAP_H

#include "bytecode/ClassHierarchy.h"

#include <cstdint>
#include <vector>

namespace cbs::vm {

/// A heap reference; 0 is null.
using Ref = uint32_t;

class Heap {
public:
  /// Allocates an instance of \p C with zeroed fields; returns its ref.
  Ref allocate(const bc::ClassType &C);

  bc::ClassId classOf(Ref R) const {
    return Objects[R - 1].Class;
  }

  uint32_t numFields(Ref R) const { return Objects[R - 1].NumFields; }

  int64_t getField(Ref R, uint32_t Index) const {
    return Fields[Objects[R - 1].FieldBase + Index];
  }

  void putField(Ref R, uint32_t Index, int64_t Value) {
    Fields[Objects[R - 1].FieldBase + Index] = Value;
  }

  bool validRef(Ref R) const { return R >= 1 && R <= Objects.size(); }

  size_t numObjects() const { return Objects.size(); }
  uint64_t bytesAllocated() const { return BytesAllocated; }

  /// Exhaustive per-class allocation counts (free bookkeeping the bump
  /// allocator keeps anyway) — the ground truth the sampled allocation
  /// profile is scored against.
  const std::vector<uint64_t> &perClassAllocations() const {
    return PerClass;
  }

  /// Drops every object (whole-heap reclamation). Callers must ensure no
  /// live references remain; the VM uses this only between benchmark
  /// iterations at safe points requested by the workload.
  void reset();

private:
  struct Object {
    bc::ClassId Class;
    uint32_t FieldBase;
    uint32_t NumFields;
  };

  std::vector<Object> Objects;
  std::vector<int64_t> Fields;
  std::vector<uint64_t> PerClass;
  uint64_t BytesAllocated = 0;
};

} // namespace cbs::vm

#endif // CBSVM_VM_HEAP_H
