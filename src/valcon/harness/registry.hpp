// The thread-safe, string-keyed factory registry behind the two axes whose
// values are plug-in classes: StrategyRegistry (harness/strategy.hpp) and
// PatternRegistry (harness/pattern.hpp). Libraries and tests add their own
// entries with add(); lookups are thread-safe because sweep workers
// resolve names concurrently.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace valcon::harness {

template <typename T>
class NamedRegistry {
 public:
  using Factory = std::function<std::unique_ptr<T>()>;

  /// Registers a factory. Throws std::invalid_argument for an empty name,
  /// a null factory, or a name that is already taken.
  void add(const std::string& name, Factory factory) {
    const std::string owner = std::string(owner_) + ": ";
    if (name.empty()) {
      throw std::invalid_argument(owner + "empty " + noun_ + " name");
    }
    if (!factory) {
      throw std::invalid_argument(owner + "null factory for '" + name + "'");
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!factories_.emplace(name, std::move(factory)).second) {
      throw std::invalid_argument(owner + "'" + name +
                                  "' is already registered");
    }
  }

  /// Registers the default-constructed U under `name`.
  template <typename U>
  void add(const std::string& name) {
    add(name, [] { return std::make_unique<U>(); });
  }

  [[nodiscard]] bool contains(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return factories_.count(name) != 0;
  }

  /// Instantiates the value registered under `name`. Throws
  /// std::invalid_argument for unknown names, listing what is registered.
  [[nodiscard]] std::unique_ptr<T> make(const std::string& name) const {
    Factory factory;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto it = factories_.find(name);
      if (it != factories_.end()) factory = it->second;
    }
    if (!factory) {
      std::string known;
      for (const std::string& n : names()) {
        if (!known.empty()) known += ", ";
        known += n;
      }
      throw std::invalid_argument("unknown " + std::string(what_) + " '" +
                                  name + "' (registered: " + known + ")");
    }
    return factory();
  }

  /// Registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const auto& [name, factory] : factories_) out.push_back(name);
    return out;  // std::map iteration is already sorted
  }

 protected:
  /// Error-message vocabulary: add() errors start "<owner>: " and call a
  /// value a "<noun>"; make() calls an unknown one an "unknown <what>".
  NamedRegistry(const char* owner, const char* noun, const char* what)
      : owner_(owner), noun_(noun), what_(what) {}

 private:
  const char* owner_;
  const char* noun_;
  const char* what_;
  mutable std::mutex mutex_;
  std::map<std::string, Factory> factories_;
};

}  // namespace valcon::harness
