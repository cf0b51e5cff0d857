// The .hcl interchange format: a versioned, line-oriented textual
// serialization of everything the scheduler consumes and produces —
// dependence graphs with their execution profile (loops), machine / RF
// configurations, scheduling options and schedule results.
//
// Design rules:
//  * Every document starts with `hcl <version> <kind>` and ends with `end`.
//  * Dumps are canonical: a fixed line order, node ids ascending, edges in
//    the graph's out-edge insertion order, doubles in shortest round-trip
//    form. Loading a canonical dump and dumping it again is byte-identical
//    (the round-trip property the corpus tools and the persistent schedule
//    cache rely on; unit-tested in tests/test_hcl_io.cpp).
//  * The loader is strict: unknown directives, unknown op/dependence
//    classes, dangling edges, duplicate ids and version mismatches are
//    rejected with an HclError carrying the offending line number.
//  * `#` starts a comment line; blank lines are ignored. Neither survives
//    a round-trip (the canonical dump emits none).
//  * Graph names are one token: the dumper replaces whitespace/control
//    characters (and a leading '#') with '_' so every dump reparses.
//
// Node ids are preserved exactly, including tombstones: a loop document
// declares `slots N` and lists only alive nodes; the loader re-tombstones
// the missing ids, so graphs that went through the scheduler's insert /
// remove churn serialize faithfully.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/mirs.h"
#include "machine/machine_config.h"
#include "workload/workload.h"

namespace hcrf::io {

/// Format version accepted and emitted by this build.
inline constexpr int kHclVersion = 1;

/// Parse failure: `what()` is "<file>:<line>: <message>".
class HclError : public std::runtime_error {
 public:
  HclError(std::string_view file, int line, const std::string& message);
  int line() const { return line_; }
  const std::string& message() const { return message_; }

 private:
  int line_;
  std::string message_;
};

// ---------------------------------------------------------------------------
// Loops (dependence graph + execution profile): `hcl 1 loop`.
// ---------------------------------------------------------------------------

std::string DumpLoop(const workload::Loop& loop);
workload::Loop ParseLoop(std::string_view text,
                         std::string_view filename = "<hcl>");

// ---------------------------------------------------------------------------
// Machine configurations: `hcl 1 machine`.
// ---------------------------------------------------------------------------

std::string DumpMachine(const MachineConfig& m);
MachineConfig ParseMachine(std::string_view text,
                           std::string_view filename = "<hcl>");

// ---------------------------------------------------------------------------
// Scheduling options: `hcl 1 options`.
//
// Serializes the schedule-relevant fields of core::MirsOptions
// (budget_ratio, max_ii, iterative, cluster_policy), the same four the
// schedule cache key mixes. Precomputed MIIs and warm-start seeds are
// runtime-only and never serialized.
// ---------------------------------------------------------------------------

std::string DumpOptions(const core::MirsOptions& opt);
core::MirsOptions ParseOptions(std::string_view text,
                               std::string_view filename = "<hcl>");

/// ClusterPolicy by its ToString name ("balanced", "round-robin",
/// "first-fit"); nullopt when unknown. The single lookup shared by the
/// options parser, the manifest parser and the CLI.
std::optional<core::ClusterPolicy> ClusterPolicyFromName(
    std::string_view name);

// ---------------------------------------------------------------------------
// Schedule results: `hcl 1 result`.
//
// A full core::ScheduleResult: outcome, II/SC/MII breakdown, stats, the
// transformed graph (embedded loop-less graph section), latency overrides
// and the placement of every scheduled node. DumpResult(ParseResult(
// DumpResult(r))) == DumpResult(r), which is what makes cached schedules
// bit-identical to fresh ones.
// ---------------------------------------------------------------------------

std::string DumpResult(const core::ScheduleResult& result);
core::ScheduleResult ParseResult(std::string_view text,
                                 std::string_view filename = "<hcl>");

/// Shortest decimal representation that parses back to the exact same
/// double — the formatting every canonical .hcl dump (and the sweep spec
/// dumper) uses, so documents round-trip byte-identically.
std::string FormatDouble(double v);

// ---------------------------------------------------------------------------
// Strict whole-token numeric parsing. Unlike std::stol / std::stod, the
// entire token must be consumed: "4abc" and "1.5x" are rejected instead of
// silently truncated. Shared by the .hcl scanners and the CLI's validated
// flag parsing. Returns std::nullopt on any parse failure.
// ---------------------------------------------------------------------------

std::optional<long> TryParseLong(std::string_view tok);
std::optional<double> TryParseDouble(std::string_view tok);

// ---------------------------------------------------------------------------
// File helpers (thin wrappers; Parse* filenames feed error messages).
// ---------------------------------------------------------------------------

/// Reads a whole file; throws std::runtime_error on I/O failure.
std::string ReadFile(const std::string& path);
/// Writes atomically (temp file + rename) so concurrent readers never see
/// a torn document; throws std::runtime_error on I/O failure.
void WriteFileAtomic(const std::string& path, std::string_view text);

workload::Loop LoadLoopFile(const std::string& path);
MachineConfig LoadMachineFile(const std::string& path);
core::ScheduleResult LoadResultFile(const std::string& path);

}  // namespace hcrf::io
