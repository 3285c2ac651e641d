#include "core/campaign.h"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "net/aqm.h"
#include "obs/json_check.h"
#include "sim/rng.h"

namespace fiveg::core {

namespace {

using obs::JsonValue;

bool axis_error(std::string* error, const std::string& msg) {
  *error = "campaign manifest: " + msg;
  return false;
}

// An axis value that is a seed: a JSON number (exact up to 2^53) or a
// decimal string (full 64-bit range).
bool parse_seed_value(const JsonValue& v, std::uint64_t* out) {
  if (v.is(JsonValue::Type::kNumber)) {
    if (v.number < 0 || v.number != static_cast<double>(
                                        static_cast<std::uint64_t>(v.number))) {
      return false;
    }
    *out = static_cast<std::uint64_t>(v.number);
    return true;
  }
  if (!v.is(JsonValue::Type::kString)) return false;
  errno = 0;
  char* end = nullptr;
  *out = std::strtoull(v.string.c_str(), &end, 10);
  return errno == 0 && end != v.string.c_str() && *end == '\0';
}

}  // namespace

std::string CampaignCell::tag() const {
  std::string out = "qdisc=";
  out += qdisc;
  out += ";faults=";
  out += faults;
  return out;
}

std::uint64_t CampaignCell::base_seed() const {
  return sim::Rng(axis_seed).fork(tag()).seed();
}

std::vector<std::pair<std::string, std::string>> CampaignCell::labels()
    const {
  return {{"faults", faults}, {"qdisc", qdisc}};
}

std::vector<CampaignCell> CampaignManifest::cells() const {
  std::vector<CampaignCell> out;
  out.reserve(seeds.size() * qdiscs.size() * faults.size());
  for (const std::uint64_t seed : seeds) {
    for (const std::string& qdisc : qdiscs) {
      for (const std::string& fault : faults) {
        CampaignCell cell;
        cell.axis_seed = seed;
        cell.qdisc = qdisc;
        cell.faults = fault;
        out.push_back(std::move(cell));
      }
    }
  }
  return out;
}

bool parse_manifest(std::string_view text, CampaignManifest* out,
                    std::string* error) {
  std::string parse_error;
  const std::unique_ptr<JsonValue> doc = obs::json_parse(text, &parse_error);
  if (doc == nullptr) return axis_error(error, parse_error);
  if (!doc->is(JsonValue::Type::kObject)) {
    return axis_error(error, "top level must be an object");
  }
  const JsonValue* schema = doc->get("schema");
  if (schema == nullptr || !schema->is(JsonValue::Type::kString)) {
    return axis_error(error, "missing \"schema\"");
  }
  if (schema->string != kCampaignSchema) {
    return axis_error(error, "unsupported schema \"" + schema->string +
                                 "\" (this build reads " +
                                 std::string(kCampaignSchema) + ")");
  }

  CampaignManifest m;
  const JsonValue* name = doc->get("name");
  if (name == nullptr || !name->is(JsonValue::Type::kString) ||
      name->string.empty()) {
    return axis_error(error, "missing \"name\" string");
  }
  m.name = name->string;
  if (const JsonValue* smoke = doc->get("smoke"); smoke != nullptr) {
    if (!smoke->is(JsonValue::Type::kBool)) {
      return axis_error(error, "\"smoke\" must be a bool");
    }
    m.smoke = smoke->boolean;
  }
  if (const JsonValue* filter = doc->get("filter"); filter != nullptr) {
    if (!filter->is(JsonValue::Type::kString)) {
      return axis_error(error, "\"filter\" must be a string");
    }
    m.filter = filter->string;
  }

  const JsonValue* axes = doc->get("axes");
  if (axes != nullptr && !axes->is(JsonValue::Type::kObject)) {
    return axis_error(error, "\"axes\" must be an object");
  }

  const auto axis = [axes](const char* key) -> const JsonValue* {
    return axes == nullptr ? nullptr : axes->get(key);
  };

  if (const JsonValue* seeds = axis("seed"); seeds != nullptr) {
    if (!seeds->is(JsonValue::Type::kArray) || seeds->array.empty()) {
      return axis_error(error, "axes.seed must be a non-empty array");
    }
    for (const JsonValue& v : seeds->array) {
      std::uint64_t seed = 0;
      if (!parse_seed_value(v, &seed)) {
        return axis_error(error,
                          "axes.seed entries must be non-negative integers "
                          "(or decimal strings)");
      }
      m.seeds.push_back(seed);
    }
  } else {
    m.seeds.push_back(42);
  }

  if (const JsonValue* qdiscs = axis("qdisc"); qdiscs != nullptr) {
    if (!qdiscs->is(JsonValue::Type::kArray) || qdiscs->array.empty()) {
      return axis_error(error, "axes.qdisc must be a non-empty array");
    }
    for (const JsonValue& v : qdiscs->array) {
      net::QdiscConfig qdisc;
      if (!v.is(JsonValue::Type::kString)) {
        return axis_error(error, "axes.qdisc entries must be strings");
      }
      if (!net::parse_qdisc_spec(v.string, &qdisc)) {
        return axis_error(
            error, "axes.qdisc entry \"" + v.string +
                       "\" is not a valid qdisc spec "
                       "(droptail|codel|fq_codel|red, optionally +ecn)");
      }
      m.qdiscs.push_back(v.string);
    }
  } else {
    m.qdiscs.emplace_back("droptail");
  }

  if (const JsonValue* faults = axis("faults"); faults != nullptr) {
    if (!faults->is(JsonValue::Type::kArray) || faults->array.empty()) {
      return axis_error(error, "axes.faults must be a non-empty array");
    }
    for (const JsonValue& v : faults->array) {
      if (!v.is(JsonValue::Type::kString)) {
        return axis_error(error,
                          "axes.faults entries must be fault plan paths "
                          "(\"\" = no injection)");
      }
      m.faults.push_back(v.string);
    }
  } else {
    m.faults.emplace_back("");
  }

  *out = std::move(m);
  return true;
}

bool load_manifest(const std::string& path, CampaignManifest* out,
                   std::string* error) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return axis_error(error, "cannot open " + path);
  std::ostringstream buf;
  buf << f.rdbuf();
  return parse_manifest(buf.str(), out, error);
}

std::vector<CampaignUnit> campaign_units(
    std::size_t cell_count, const std::vector<std::string>& experiments) {
  std::vector<CampaignUnit> out;
  out.reserve(cell_count * experiments.size());
  for (std::size_t cell = 0; cell < cell_count; ++cell) {
    for (const std::string& name : experiments) {
      out.push_back({cell, name});
    }
  }
  return out;
}

std::vector<CampaignUnit> shard_units(const std::vector<CampaignUnit>& units,
                                      std::size_t k, std::size_t n) {
  std::vector<CampaignUnit> out;
  for (std::size_t i = k; i < units.size(); i += n) {
    out.push_back(units[i]);
  }
  return out;
}

bool parse_shard_spec(std::string_view spec, std::size_t* k, std::size_t* n) {
  const std::size_t slash = spec.find('/');
  if (slash == std::string_view::npos) return false;
  const std::string ks(spec.substr(0, slash));
  const std::string ns(spec.substr(slash + 1));
  if (ks.empty() || ns.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long kv = std::strtoull(ks.c_str(), &end, 10);
  if (errno != 0 || end != ks.c_str() + ks.size()) return false;
  const unsigned long long nv = std::strtoull(ns.c_str(), &end, 10);
  if (errno != 0 || end != ns.c_str() + ns.size()) return false;
  if (nv == 0 || kv >= nv) return false;
  *k = static_cast<std::size_t>(kv);
  *n = static_cast<std::size_t>(nv);
  return true;
}

}  // namespace fiveg::core
