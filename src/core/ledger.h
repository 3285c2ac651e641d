// Forwarding shim kept for one caller, the repo benchmark's smoke_campaign
// workload (perfbench/src/workload_smoke.cpp). The run log is the
// columnar store (core/store.h); the benchmark change that moves that
// call to StoreWriter deletes this header.
#pragma once

#include <string>

#include "core/store.h"

namespace fiveg::core {

class LedgerWriter {
 public:
  explicit LedgerWriter(const std::string& path) : store_(path) {}
  [[nodiscard]] bool ok() const { return store_.ok(); }
  [[nodiscard]] const std::string& error() const { return store_.error(); }
  bool append(const ExperimentResult& r) { return store_.append({r, {}}); }

 private:
  StoreWriter store_;
};

}  // namespace fiveg::core
