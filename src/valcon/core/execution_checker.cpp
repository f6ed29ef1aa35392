#include "valcon/core/execution_checker.hpp"

namespace valcon::core {

ExecutionReport check_execution(const ValidityProperty& val, int n, int t,
                                const std::vector<Value>& proposals,
                                const std::set<ProcessId>& faulty,
                                const std::map<ProcessId, Value>& decisions) {
  ExecutionReport report;
  report.input_config = InputConfig(n);
  for (ProcessId p = 0; p < n; ++p) {
    if (faulty.count(p) != 0) continue;
    report.input_config.set(p, proposals[static_cast<std::size_t>(p)]);
  }
  if (!report.input_config.valid_for(n, t)) {
    report.violations.push_back(
        "execution has more than t faulty processes: outside the model");
    return report;
  }

  report.termination = true;
  for (ProcessId p = 0; p < n; ++p) {
    if (faulty.count(p) != 0) continue;
    if (decisions.count(p) == 0) {
      report.termination = false;
      report.violations.push_back("Termination: P" + std::to_string(p) +
                                  " never decided");
    }
  }

  report.agreement = true;
  std::optional<Value> seen;
  for (const auto& [p, v] : decisions) {
    if (faulty.count(p) != 0) continue;  // faulty decisions are unconstrained
    if (seen.has_value() && *seen != v) {
      report.agreement = false;
      report.violations.push_back(
          "Agreement: conflicting decisions " + std::to_string(*seen) +
          " and " + std::to_string(v));
    }
    seen = v;
  }

  // Admissibility depends only on the decided value, and deciders mostly
  // agree: judge each distinct value once instead of once per process.
  report.validity = true;
  std::map<Value, bool> verdicts;
  for (const auto& [p, v] : decisions) {
    if (faulty.count(p) != 0) continue;
    auto [it, fresh] = verdicts.try_emplace(v, false);
    if (fresh) it->second = val.admissible(report.input_config, v);
    if (!it->second) {
      report.validity = false;
      report.violations.push_back(
          "Validity(" + val.name() + "): P" + std::to_string(p) +
          " decided " + std::to_string(v) + " not in val(" +
          report.input_config.to_string() + ")");
    }
  }
  return report;
}

}  // namespace valcon::core
