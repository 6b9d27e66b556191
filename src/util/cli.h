// Tiny command-line flag parser used by bench and example binaries.
//
// Flags look like --name=value or --name value. Unknown flags are an error
// so typos don't silently fall back to defaults mid-experiment, and so is a
// value a typed getter cannot parse in full.
#ifndef HETEFEDREC_UTIL_CLI_H_
#define HETEFEDREC_UTIL_CLI_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace hetefedrec {

/// \brief Declarative flag registry + parser.
class CommandLine {
 public:
  /// Registers a flag with a default value and help text. Registering a
  /// name twice is a programming error and aborts.
  void AddFlag(const std::string& name, const std::string& default_value,
               const std::string& help);

  /// Parses argv. Returns InvalidArgument on unknown flags or missing values.
  Status Parse(int argc, char** argv);

  /// Accessors; the flag must have been registered. The typed getters
  /// print the flag and its value and exit(2) unless the whole value
  /// parses: a decimal integer in range, a strtod number, or one of
  /// true|false|1|0|yes|no.
  std::string GetString(const std::string& name) const;
  int GetInt(const std::string& name) const;
  uint64_t GetUint64(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  bool GetBool(const std::string& name) const;

  /// Help text listing all registered flags.
  std::string Usage(const std::string& program) const;

 private:
  struct Flag {
    std::string value;
    std::string help;
  };
  std::map<std::string, Flag> flags_;
};

/// Registers the experiment flags shared by every experiment binary (the
/// bench suite and tools/hetefedrec_run): execution toggles, delta sync,
/// simulated network, async aggregation, fault injection, admission,
/// sharding, checkpointing and telemetry. Pure string registration — the
/// matching config application lives in ApplyExperimentFlags
/// (src/core/config.h), so flag names, defaults and help text exist in
/// exactly one place. Binary-specific flags (presets, dataset/model
/// selection, paper hyper-parameters) stay with their binaries.
void RegisterExperimentFlags(CommandLine* cli);

}  // namespace hetefedrec

#endif  // HETEFEDREC_UTIL_CLI_H_
