// Minimal command-line flag parsing for example and bench binaries.
//
// Supports "--name=value" plus bare boolean "--name" (the space-separated
// form is deliberately unsupported: without a flag registry it is ambiguous
// against positional arguments). Non-flag arguments are collected as
// positionals. Parsing accepts any flag name; RejectUnknown lets a caller
// that declares its flag set refuse the rest.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace agmdp::util {

/// \brief Parsed command-line flags with typed, defaulted getters.
class Flags {
 public:
  /// Parses argv (skipping argv[0]).
  static Flags Parse(int argc, char** argv);

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name,
                        const std::string& fallback) const;
  int64_t GetInt(const std::string& name, int64_t fallback) const;
  double GetDouble(const std::string& name, double fallback) const;
  bool GetBool(const std::string& name, bool fallback) const;

  /// Strict variants for request-path validation: an absent flag yields the
  /// fallback, but a present flag whose value is not entirely a number
  /// ("--threads=abc", "--seed=", "--samples=3x") is a typed
  /// InvalidArgument naming the flag — GetInt would silently read it as 0.
  Result<int64_t> GetCheckedInt(const std::string& name,
                                int64_t fallback) const;
  Result<double> GetCheckedDouble(const std::string& name,
                                  double fallback) const;

  /// Parses a comma-separated list of doubles, e.g. "--eps=0.1,0.2,0.5".
  std::vector<double> GetDoubleList(const std::string& name,
                                    const std::vector<double>& fallback) const;

  /// Parses a comma-separated list of strings, e.g. "--models=fcl,tricycle"
  /// (empty tokens are dropped).
  std::vector<std::string> GetStringList(
      const std::string& name, const std::vector<std::string>& fallback) const;

  /// Strict mode for front ends that declare their flags: the first parsed
  /// flag not in `accepted` is a typed InvalidArgument naming it and
  /// listing the accepted ones ("--artifakt=F" must not silently fall
  /// back to the default of "--artifact").
  Status RejectUnknown(const std::vector<std::string>& accepted) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace agmdp::util
