#include "util/env.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace power {
namespace {

// One verbose line per (knob, provenance) resolution. Deliberately
// unthrottled: knobs are read a handful of times per process, and repeated
// lines under a re-reading call site are themselves a useful signal.
void LogResolved(const char* name, const std::string& value,
                 const char* provenance) {
  if (!EnvVerbose()) return;
  std::fprintf(stderr, "power: env %s=%s (%s)\n", name, value.c_str(),
               provenance);
}

void WarnMalformed(const char* name, const char* got, const char* type,
                   const std::string& fallback) {
  std::fprintf(stderr,
               "power: env %s='%s' is not a valid %s; using default %s\n",
               name, got, type, fallback.c_str());
}

// ---------------------------------------------------------------------------
// Knob registry. scripts/gen_env_table.py parses the block between the
// knob-table markers to regenerate the README reference table — keep each
// entry on one brace-delimited line group and the field order stable.
// ---------------------------------------------------------------------------
// knob-table-begin
constexpr EnvKnobInfo kKnobs[] = {
    {"POWER_THREADS", "int", "hardware concurrency", "1..4096",
     "Worker threads for ParallelFor/ThreadPool; results are "
     "thread-count-invariant by construction."},
    {"POWER_SIMD", "enum", "auto", "off | scalar | avx2 | auto",
     "Similarity kernel engine; unknown values abort (fail-fast policy in "
     "ResolveSimdLevel). off==scalar; results are engine-invariant."},
    {"POWER_VERBOSE", "bool", "off", "any non-empty value but '0'",
     "Log resolved knob values, candidate-path dispatch, and other "
     "diagnostic one-liners to stderr."},
    {"POWER_ACMPUB_SCALE", "double", "0.1", "(0, 1]",
     "Fraction of the 66,879-record ACMPub bench profile to generate; 1.0 "
     "reproduces the paper's full size."},
    {"POWER_CHECKPOINT", "string", "empty (no checkpointing)",
     "filesystem path",
     "Durable job-checkpoint file for RunOnPairs when "
     "PowerConfig::checkpoint_path is empty; a fresh run against an "
     "existing checkpoint resumes instead of restarting."},
    {"POWER_CRASH_AT", "string", "empty (disarmed)",
     "<select|post|collect|apply>:<round>",
     "Crash-injection kill point: exit the process (code 86) right after "
     "committing the checkpoint at the named phase boundary of the named "
     "round; malformed specs warn and disarm."},
    {"POWER_SANITIZE", "string (build-time)", "empty",
     "thread | address | undefined",
     "CMake cache option (not read at runtime): sanitizer for a build "
     "tree; scripts/check.sh drives one tree per mode."},
};
// knob-table-end

}  // namespace

std::optional<int64_t> ParseInt(std::string_view text) {
  if (text.empty()) return std::nullopt;
  // strtoll accepts leading whitespace and partial tokens; reject both by
  // checking the first character and demanding full consumption.
  if (text.front() != '-' && text.front() != '+' &&
      (text.front() < '0' || text.front() > '9')) {
    return std::nullopt;
  }
  std::string buf(text);
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || end == buf.c_str() || errno == ERANGE) {
    return std::nullopt;
  }
  return static_cast<int64_t>(v);
}

std::optional<double> ParseDouble(std::string_view text) {
  if (text.empty()) return std::nullopt;
  if (std::isspace(static_cast<unsigned char>(text.front()))) {
    return std::nullopt;
  }
  std::string buf(text);
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(buf.c_str(), &end);
  if (end == nullptr || *end != '\0' || end == buf.c_str() || errno == ERANGE) {
    return std::nullopt;
  }
  if (!std::isfinite(v)) return std::nullopt;
  return v;
}

const char* EnvRaw(const char* name) { return std::getenv(name); }

bool EnvVerbose() {
  const char* v = std::getenv("POWER_VERBOSE");
  return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
}

int64_t EnvInt(const char* name, int64_t def, int64_t lo, int64_t hi) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') {
    LogResolved(name, std::to_string(def), "default");
    return def;
  }
  std::optional<int64_t> parsed = ParseInt(raw);
  if (!parsed.has_value()) {
    WarnMalformed(name, raw, "integer", std::to_string(def));
    return def;
  }
  int64_t v = *parsed;
  if (v < lo || v > hi) {
    int64_t clamped = v < lo ? lo : hi;
    std::fprintf(stderr,
                 "power: env %s=%lld out of range [%lld, %lld]; clamping to "
                 "%lld\n",
                 name, static_cast<long long>(v), static_cast<long long>(lo),
                 static_cast<long long>(hi), static_cast<long long>(clamped));
    LogResolved(name, std::to_string(clamped), "clamped");
    return clamped;
  }
  LogResolved(name, std::to_string(v), "environment");
  return v;
}

double EnvDouble(const char* name, double def, double lo, double hi) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') {
    LogResolved(name, std::to_string(def), "default");
    return def;
  }
  std::optional<double> parsed = ParseDouble(raw);
  if (!parsed.has_value()) {
    WarnMalformed(name, raw, "number", std::to_string(def));
    return def;
  }
  double v = *parsed;
  if (v < lo || v > hi) {
    double clamped = v < lo ? lo : hi;
    std::fprintf(stderr,
                 "power: env %s=%g out of range [%g, %g]; clamping to %g\n",
                 name, v, lo, hi, clamped);
    LogResolved(name, std::to_string(clamped), "clamped");
    return clamped;
  }
  LogResolved(name, std::to_string(v), "environment");
  return v;
}

std::span<const EnvKnobInfo> EnvKnobs() { return kKnobs; }

}  // namespace power
