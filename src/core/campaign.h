// Campaign manifests (schema "fiveg-campaign/v1"): a JSON description of
// a parameter grid — seeds × bottleneck qdisc × fault plans — that
// `fiveg_runall --manifest` expands into cells and runs, and that
// `--shard k/N` splits across independent invocations (different
// machines, CI matrix jobs) with no coordination beyond the manifest
// file itself.
//
// Example:
//
//   {
//     "schema": "fiveg-campaign/v1",
//     "name": "aqm-grid",
//     "smoke": true,
//     "filter": "",
//     "axes": {
//       "seed": [42, 43],
//       "qdisc": ["droptail", "codel", "fq_codel+ecn"],
//       "faults": ["", "tests/data/faults.json"]
//     }
//   }
//
// Every axis is optional; a missing axis contributes its single default
// value (seed 42, qdisc "droptail", no fault plan). Cells are the cross
// product in seed-major order. Each cell runs at its own base seed,
// derived by forking the axis seed with the cell's parameter tag —
// two cells that differ only in qdisc therefore never collide at one
// (name, seed), and re-running any shard is idempotent.
//
// The work unit of sharding is (cell, experiment), not cell: units are
// enumerated in canonical order and unit i belongs to shard i mod N, so
// shards balance even when one cell's experiments dominate the runtime.
// The union of shards 0..N-1 is exactly the full campaign for any N.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fiveg::core {

inline constexpr std::string_view kCampaignSchema = "fiveg-campaign/v1";

/// One grid cell: a full parameter assignment for a campaign run.
struct CampaignCell {
  std::uint64_t axis_seed = 42;  // the seed-axis value
  std::string qdisc;             // qdisc spec, e.g. "codel+ecn"
  std::string faults;            // fault plan path; "" = no injection

  /// The cell's parameter tag, e.g. "qdisc=codel;faults=f.json" — the
  /// fork key its base seed is derived from, and the human-readable cell
  /// id in logs.
  [[nodiscard]] std::string tag() const;

  /// The base seed this cell's experiments fork from:
  /// Rng(axis_seed).fork(tag()).seed(). Distinct for every cell of a
  /// campaign, so store records from different cells never satisfy each
  /// other's resume checks.
  [[nodiscard]] std::uint64_t base_seed() const;

  /// The store labels identifying this cell: {"faults", ...},
  /// {"qdisc", ...} (sorted by key, as StoreRecord requires).
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> labels()
      const;
};

/// A parsed manifest.
struct CampaignManifest {
  std::string name;
  bool smoke = false;   // restrict to the smoke experiment tier
  std::string filter;   // substring filter on experiment names
  std::vector<std::uint64_t> seeds;  // never empty after parse
  std::vector<std::string> qdiscs;   // validated specs; never empty
  std::vector<std::string> faults;   // paths, "" allowed; never empty

  /// The cross product, seed-major then qdisc then faults, in axis order.
  [[nodiscard]] std::vector<CampaignCell> cells() const;
};

/// Parses manifest JSON. On failure returns false with a description in
/// *error (unknown schema, malformed axis, invalid qdisc spec, ...).
[[nodiscard]] bool parse_manifest(std::string_view text,
                                  CampaignManifest* out, std::string* error);

/// Reads and parses a manifest file.
[[nodiscard]] bool load_manifest(const std::string& path,
                                 CampaignManifest* out, std::string* error);

/// One schedulable unit: a single experiment of a single cell.
struct CampaignUnit {
  std::size_t cell = 0;    // index into the manifest's cells()
  std::string experiment;  // registry name
};

/// All units in canonical order: cell-major, experiment name within the
/// cell (experiment lists arrive sorted from the registry).
[[nodiscard]] std::vector<CampaignUnit> campaign_units(
    std::size_t cell_count, const std::vector<std::string>& experiments);

/// The subset of `units` assigned to shard k of n (unit i goes to shard
/// i mod n), preserving canonical order. Requires k < n.
[[nodiscard]] std::vector<CampaignUnit> shard_units(
    const std::vector<CampaignUnit>& units, std::size_t k, std::size_t n);

/// Parses a "k/N" shard spec (k in [0, N), N >= 1).
[[nodiscard]] bool parse_shard_spec(std::string_view spec, std::size_t* k,
                                    std::size_t* n);

}  // namespace fiveg::core
