#ifndef POWER_UTIL_ENV_H_
#define POWER_UTIL_ENV_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

namespace power {

/// Centralized environment-knob surface. Every POWER_* runtime knob in the
/// library, benches, and tools resolves through the typed accessors below —
/// the only sanctioned std::getenv call sites in src/ (the power-lint
/// `env-read` rule rejects any other). Three properties the scattered
/// getenv/atoi idiom never had:
///
///  * Validation. A malformed value ("4x", "banana") is rejected with a
///    stderr warning and the documented default — never atoi's silent 0.
///    Out-of-range values clamp to the declared range, with a warning.
///  * Observability. With POWER_VERBOSE set, every knob logs its resolved
///    value and provenance (environment / default / clamped) the first time
///    it matters, so a run's effective configuration is reconstructible from
///    its log.
///  * One registry. env.cc carries the table of every known knob (name,
///    type, default, range, one-line description); the README knob table is
///    generated from it (scripts/gen_env_table.py), so docs cannot drift
///    from code.
///
/// Accessors re-read the environment on every call (no internal caching):
/// tests toggle knobs with setenv/unsetenv, and each call site decides for
/// itself whether its knob is read-once (e.g. the thread count caches in a
/// function-local static) or per-use (e.g. POWER_CHECKPOINT resolution).

/// Full-token integer parse: optional sign, decimal digits, nothing else.
/// Rejects "4x", "", " 4". Returns nullopt on any malformed input.
std::optional<int64_t> ParseInt(std::string_view text);

/// Full-token floating parse via strtod; rejects trailing garbage, empty
/// input, NaN, and infinities (knobs are finite by construction).
std::optional<double> ParseDouble(std::string_view text);

/// The raw value (nullptr when unset). The escape hatch for knobs with a
/// bespoke grammar (POWER_SIMD's resolve policy aborts on typos — a
/// deliberate fail-fast the generic accessors do not provide).
const char* EnvRaw(const char* name);

/// POWER_VERBOSE: set, non-empty, and not "0". The env layer's own logging
/// keys off it.
bool EnvVerbose();

/// Integer knob. Resolution: unset/empty -> def (silent); malformed -> def
/// (warning); out of [lo, hi] -> clamped (warning). Logs the resolved value
/// under POWER_VERBOSE.
int64_t EnvInt(const char* name, int64_t def, int64_t lo, int64_t hi);

/// Floating knob; same resolution contract as EnvInt.
double EnvDouble(const char* name, double def, double lo, double hi);

/// One registered knob (the generated README table's row shape).
struct EnvKnobInfo {
  const char* name;     // e.g. "POWER_THREADS"
  const char* type;     // int / double / bool / enum / string
  const char* fallback; // rendered default, e.g. "hardware concurrency"
  const char* range;    // rendered range/options, e.g. "1..4096"
  const char* desc;     // one-line semantics
};

/// Every POWER_* knob the process understands, in table order. New knobs
/// must be registered here (env_test checks the accessor names used across
/// src/ and bench/ stay in sync).
std::span<const EnvKnobInfo> EnvKnobs();

}  // namespace power

#endif  // POWER_UTIL_ENV_H_
