// The named axes of the scenario space, as one declarative table.
//
// Each entry holds everything about an axis except its semantics: name,
// CLI flag, default token, token validation and wire-gate rule.
// ScenarioMatrix::keep, SweepPoint tags and labels, io::outcome_line,
// io::Checkpoint, the adversary search and both CLIs iterate it. The wire
// gate keeps pinned documents byte-identical: an axis left at its single
// default adds nothing to labels, outcome lines or (for cell-gated axes)
// candidate keys, cells and cell file names. Table order is wire order.
//
// Adding an axis is one entry here plus its semantics in point_at() and
// candidate_point() (docs/sweeps.md, "Adding an axis").
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace valcon::harness {

enum class Axis : std::uint8_t {
  kStrategy,
  kPattern,
  kNetProfile,
  kCertMode,
  kTopology,
};

inline constexpr std::size_t kAxisCount = 5;

[[nodiscard]] constexpr std::size_t axis_index(Axis axis) {
  return static_cast<std::size_t>(axis);
}

struct AxisSpec {
  Axis id;
  const char* name;  // in error messages: "empty <name> filter"
  const char* flag;  // valcon_sweep filter, valcon_search pool
  /// A matrix's or candidate's value when the axis is left alone; the
  /// search shrinks toward it.
  const char* default_token;
  const char* label_key;  // label suffix " <key>=<token>"; nullptr: none
  /// Field name in outcome lines (when tagged) and in counterexample cells.
  const char* line_field;
  const char* checkpoint_field;
  /// Checkpoints predating the axis lack the field; it parses as "".
  bool checkpoint_optional;
  /// Candidate key, cell and cell file name carry the axis only off its
  /// default (otherwise: always).
  bool cell_gated;
  /// Throws std::invalid_argument, naming the known values, unless
  /// `token` names a value of the axis.
  void (*check)(const std::string& token);
};

/// The table, indexed by axis_index().
extern const std::array<AxisSpec, kAxisCount> kAxes;

[[nodiscard]] inline const AxisSpec& axis_spec(Axis axis) {
  return kAxes[axis_index(axis)];
}

/// The entry whose flag is `flag`, or nullptr.
[[nodiscard]] const AxisSpec* axis_for_flag(const std::string& flag);

}  // namespace valcon::harness
