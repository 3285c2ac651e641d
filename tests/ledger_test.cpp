// Tests for core::LedgerWriter, the forwarding shim onto the columnar
// store (core/ledger.h): what it appends is an ordinary label-free store
// record, execution section included.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/ledger.h"
#include "core/store.h"

namespace fiveg::core {
namespace {

TEST(LedgerShimTest, AppendsLabelFreeStoreRecords) {
  const std::string path = testing::TempDir() + "fiveg_ledger_shim.fgrs";
  std::remove(path.c_str());
  ExperimentResult r;
  r.name = "shimmed";
  r.seed = 0xfedcba9876543210ULL;
  r.text = "== table ==\n";
  r.wall_ms = 12.5;
  {
    LedgerWriter writer(path);
    ASSERT_TRUE(writer.ok()) << writer.error();
    EXPECT_TRUE(writer.append(r));
    EXPECT_TRUE(writer.append(r));  // same key, already ok: skipped
  }
  const StoreLoad load = load_store_file(path);
  ASSERT_TRUE(load.ok()) << load.error;
  ASSERT_EQ(load.records.size(), 1u);
  EXPECT_EQ(load.records[0].result.name, "shimmed");
  EXPECT_EQ(load.records[0].result.seed, r.seed);
  EXPECT_EQ(load.records[0].result.wall_ms, 12.5);
  EXPECT_TRUE(load.records[0].labels.empty());
  std::remove(path.c_str());
}

TEST(LedgerShimTest, ReportsUnopenablePath) {
  LedgerWriter writer(testing::TempDir() + "no/such/dir/x.fgrs");
  EXPECT_FALSE(writer.ok());
  EXPECT_FALSE(writer.error().empty());
}

}  // namespace
}  // namespace fiveg::core
