// Formal run validation: checks a finished execution against the problem
// definition of Section 3.2/3.3 —
//
//   Termination : every correct process decided;
//   Agreement   : no two correct processes decided differently;
//   Validity    : every decided value is in val(input_conf(E)).
//
// Used by the tests and available to library users as a harness-level
// assertion (e.g. around fault-injection campaigns).
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "valcon/core/validity.hpp"

namespace valcon::core {

struct ExecutionReport {
  bool termination = false;
  bool agreement = false;
  bool validity = false;
  /// The execution's input configuration input_conf(E).
  InputConfig input_config;
  /// Human-readable reasons for each failed check.
  std::vector<std::string> violations;

  [[nodiscard]] bool ok() const {
    return termination && agreement && validity;
  }
};

/// Validates decisions of an execution. `proposals` holds every process's
/// proposal (entries of faulty processes are ignored), `faulty` the set of
/// Byzantine processes, and `decisions` the values decided by (a subset of)
/// the correct processes. `val.admissible` is called once per distinct
/// value a correct process decided, so it must be a pure function of its
/// arguments; every deciding process still gets its own violation line.
[[nodiscard]] ExecutionReport check_execution(
    const ValidityProperty& val, int n, int t,
    const std::vector<Value>& proposals, const std::set<ProcessId>& faulty,
    const std::map<ProcessId, Value>& decisions);

}  // namespace valcon::core
