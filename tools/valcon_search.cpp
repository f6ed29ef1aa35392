// valcon_search — seeded adversary search: mutates over adversary
// strategy, proposal pattern, network profile and the ScenarioConfig
// parameters, scores candidates by how close they came to a violation
// (the near-miss fields on RunResult), and shrinks every violation to a
// minimal replayable (config, seed) cell.
//
//   valcon_search [--search-seed N] [--budget N] [--population N]
//                 [--jobs N] [--sizes n/t,n/t,...] [--strategies a,b,...]
//                 [--vcs auth,nonauth,fast] [--validities a,b,...]
//                 [--patterns a,b,...] [--net-profiles a,b,...]
//                 [--cert-modes per-vote,aggregate]
//                 [--topologies full-mesh,committee-<k>,...] [--gsts x,y,...]
//                 [--deltas x,y,...] [--domains d,...]
//                 [--seed-tries N] [--no-shrink] [--out FILE]
//                 [--emit-dir DIR] [--quiet]
//
// The default space is the SOUND regime (n > 3t), where any violation is
// a bug — that is what the CI smoke run asserts (exit 0, empty
// counterexample list). Counterexamples for the regression corpus come
// from explicitly unsound sizes, e.g. --sizes 4/2.
//
// The report (stdout or --out) is a deterministic function of the options:
// no wall-clock, no host state, and SweepRunner evaluation is input-ordered
// — so the bytes are identical whatever --jobs is. --emit-dir writes each
// shrunk counterexample as a replayable "valcon-counterexample-v1" JSON
// cell (the format tests/corpus/ commits and test_corpus_replay replays).
//
// Exit codes: 0 = clean search (no violations), 1 = violations found,
// 2 = usage / bad axis value.
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "valcon/harness/axis.hpp"
#include "valcon/harness/search.hpp"
#include "valcon/harness/sweep_io.hpp"

using namespace valcon;
using namespace valcon::harness;

namespace {

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--search-seed N] [--budget N] [--population N] [--jobs N]"
         " [--sizes n/t,...] [--strategies a,b,...]"
         " [--vcs auth,nonauth,fast] [--validities a,b,...]"
         " [--patterns a,b,...] [--net-profiles a,b,...]"
         " [--cert-modes per-vote,aggregate]"
         " [--topologies full-mesh,committee-<k>,...] [--gsts x,...]"
         " [--deltas x,...] [--domains d,...] [--seed-tries N]"
         " [--no-shrink] [--out FILE] [--emit-dir DIR] [--quiet]\n";
  return 2;
}

std::optional<double> parse_double(const std::string& s) {
  if (s.empty()) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return std::nullopt;
  return v;
}

std::optional<std::pair<int, int>> parse_size(const std::string& s) {
  const auto slash = s.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= s.size()) {
    return std::nullopt;
  }
  const auto n = io::parse_int(s.substr(0, slash), 1);
  const auto t = io::parse_int(s.substr(slash + 1), 0);
  if (!n.has_value() || !t.has_value() || *t >= *n) return std::nullopt;
  return std::make_pair(*n, *t);
}

/// Parses the comma-separated pool `csv` item by item into `pool`; an item
/// `parse` rejects (nullopt) is reported as "<flag> wants <expect>".
template <typename T, typename Parse>
bool parse_pool(const std::string& csv, const std::string& flag,
                const char* expect, Parse parse, std::vector<T>& pool) {
  pool.clear();
  for (const std::string& item : io::split_csv(csv)) {
    const std::optional<T> v = parse(item);
    if (!v.has_value()) {
      std::cerr << "error: " << flag << " wants " << expect << ", got '"
                << item << "'\n";
      return false;
    }
    pool.push_back(*v);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  SearchOptions options;
  std::string out_path;
  std::string emit_dir;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* { return argv[++i]; };
    if (arg == "--search-seed" && i + 1 < argc) {
      const auto parsed = io::parse_int(value(), 0);
      if (!parsed.has_value()) return usage(argv[0]);
      options.search_seed = static_cast<std::uint64_t>(*parsed);
    } else if (arg == "--budget" && i + 1 < argc) {
      const auto parsed = io::parse_int(value(), 1);
      if (!parsed.has_value()) return usage(argv[0]);
      options.budget = *parsed;
    } else if (arg == "--population" && i + 1 < argc) {
      const auto parsed = io::parse_int(value(), 1);
      if (!parsed.has_value()) return usage(argv[0]);
      options.population = *parsed;
    } else if (arg == "--jobs" && i + 1 < argc) {
      const auto parsed = io::parse_int(value(), 1);
      if (!parsed.has_value()) return usage(argv[0]);
      options.jobs = *parsed;
    } else if (arg == "--seed-tries" && i + 1 < argc) {
      const auto parsed = io::parse_int(value(), 0);
      if (!parsed.has_value()) return usage(argv[0]);
      options.seed_tries = *parsed;
    } else if (arg == "--sizes" && i + 1 < argc) {
      if (!parse_pool(value(), arg, "n/t with 0 <= t < n", parse_size,
                      options.space.sizes)) {
        return 2;
      }
    } else if (const AxisSpec* axis = axis_for_flag(arg);
               axis != nullptr && i + 1 < argc) {
      std::vector<std::string> pool = io::split_csv(value());
      for (const std::string& item : pool) {
        try {
          axis->check(item);
        } catch (const std::exception& e) {
          std::cerr << "error: " << axis->flag << ": " << e.what() << "\n";
          return 2;
        }
      }
      options.space.pool(axis->id) = std::move(pool);
    } else if (arg == "--vcs" && i + 1 < argc) {
      if (!parse_pool(value(), arg, "auth|nonauth|fast", vc_from_token,
                      options.space.vcs)) {
        return 2;
      }
    } else if (arg == "--validities" && i + 1 < argc) {
      if (!parse_pool(value(), arg,
                      "strong|weak|correct-proposal|median|convex-hull",
                      validity_from_token, options.space.validities)) {
        return 2;
      }
    } else if (arg == "--gsts" && i + 1 < argc) {
      const auto at_least_zero = [](const std::string& item) {
        const auto v = parse_double(item);
        return v.has_value() && *v >= 0 ? v : std::nullopt;
      };
      if (!parse_pool(value(), arg, "numbers >= 0", at_least_zero,
                      options.space.gsts)) {
        return 2;
      }
    } else if (arg == "--deltas" && i + 1 < argc) {
      const auto positive = [](const std::string& item) {
        const auto v = parse_double(item);
        return v.has_value() && *v > 0 ? v : std::nullopt;
      };
      if (!parse_pool(value(), arg, "numbers > 0", positive,
                      options.space.deltas)) {
        return 2;
      }
    } else if (arg == "--domains" && i + 1 < argc) {
      const auto domain = [](const std::string& item) {
        return io::parse_int(item, 2);
      };
      if (!parse_pool(value(), arg, "integers >= 2", domain,
                      options.space.domains)) {
        return 2;
      }
    } else if (arg == "--no-shrink") {
      options.shrink = false;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = value();
    } else if (arg == "--emit-dir" && i + 1 < argc) {
      emit_dir = value();
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      return usage(argv[0]);
    }
  }

  SearchReport report;
  try {
    report = run_search(options);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  const std::string json = report_json(report);
  if (out_path.empty()) {
    std::cout << json;
  } else {
    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    out << json;
    if (!out) {
      std::cerr << "error: cannot write " << out_path << "\n";
      return 2;
    }
  }

  if (!emit_dir.empty() && !report.counterexamples.empty()) {
    try {
      std::filesystem::create_directories(emit_dir);
      for (const Counterexample& cx : report.counterexamples) {
        io::atomic_write(emit_dir + "/" + cell_filename(cx), cell_json(cx));
      }
    } catch (const std::exception& e) {
      std::cerr << "error: emitting cells: " << e.what() << "\n";
      return 2;
    }
  }

  if (!quiet) {
    std::cerr << "evaluated " << report.evaluated << "/" << report.budget
              << " candidates, " << report.counterexamples.size()
              << " counterexample(s), " << report.errors << " error(s)\n";
    for (const Counterexample& cx : report.counterexamples) {
      std::cerr << "  " << verdict_token(cx.verdict) << ": "
                << cx.candidate.key() << "\n";
    }
  }
  return report.counterexamples.empty() ? 0 : 1;
}
