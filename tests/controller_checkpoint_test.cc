#include "core/controller_checkpoint.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

#include "cluster/stats_channel.h"
#include "common/varint.h"
#include "scenarios/harness.h"
#include "workload/rubis.h"
#include "workload/tpcw.h"

namespace fglb {
namespace {

// A consolidation cluster with enough churn that the controller has
// real control state to checkpoint: streaks, stable baselines, feeds.
struct Fixture {
  Fixture() {
    SelectiveRetuner::Config config;
    config.max_migrations_per_interval = 2;
    harness = std::make_unique<ClusterHarness>(config);
    harness->AddServers(3);
    Scheduler* tpcw = harness->AddApplication(MakeTpcw());
    RubisOptions rubis_options;
    rubis_options.app_id = 2;
    Scheduler* rubis = harness->AddApplication(MakeRubis(rubis_options));
    Replica* shared = harness->resources().CreateReplica(
        harness->resources().servers()[0].get(), 8192);
    Replica* spare = harness->resources().CreateReplica(
        harness->resources().servers()[1].get(), 8192, /*engine_seed=*/2);
    tpcw->AddReplica(shared);
    tpcw->AddReplica(spare);
    rubis->AddReplica(shared);
    harness->AddConstantClients(tpcw, 120, /*seed=*/7);
    harness->AddConstantClients(rubis, 40, /*seed=*/8);
    harness->Start();
    harness->RunFor(150);
  }

  std::string BuildBlob() {
    std::string blob;
    ControllerCheckpoint::Build(harness->sim().Now(), harness->retuner(),
                                harness->stats_channel(),
                                harness->admission(), &blob);
    return blob;
  }

  // Bit-exact projections of the control plane, for before/after diffs.
  std::string RetunerState() const {
    std::string s;
    harness->retuner().SerializeControlState(&s);
    return s;
  }
  std::string ChannelState() const {
    std::string s;
    harness->stats_channel()->SerializeReceiverState(&s);
    return s;
  }

  void WipeControlPlane() {
    harness->retuner().ResetControlState();
    harness->stats_channel()->ResetReceiverState();
  }

  std::unique_ptr<ClusterHarness> harness;
};

// Strips the trailing CRC, applies `mutate` to the body, and re-seals.
std::string Reseal(std::string blob,
                   const std::function<void(std::string*)>& mutate) {
  blob.resize(blob.size() - 4);
  mutate(&blob);
  PutFixed32(&blob, Crc32(blob.data(), blob.size()));
  return blob;
}

TEST(ControllerCheckpointTest, RestoreIsBitExact) {
  Fixture f;
  const std::string retuner_before = f.RetunerState();
  const std::string channel_before = f.ChannelState();
  ASSERT_FALSE(retuner_before.empty());
  const std::string blob = f.BuildBlob();

  f.WipeControlPlane();
  EXPECT_NE(f.RetunerState(), retuner_before);

  const auto result = ControllerCheckpoint::Restore(
      blob, &f.harness->retuner(), f.harness->stats_channel(), nullptr);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_DOUBLE_EQ(result.taken_at, f.harness->sim().Now());
  EXPECT_EQ(f.RetunerState(), retuner_before);
  EXPECT_EQ(f.ChannelState(), channel_before);
}

TEST(ControllerCheckpointTest, UnknownTrailingSectionsRestoreCleanly) {
  // Forward compatibility: a blob written by a future controller with
  // extra sections must restore on this one, ignoring what it doesn't
  // know.
  Fixture f;
  const std::string retuner_before = f.RetunerState();
  const std::string blob = Reseal(f.BuildBlob(), [](std::string* body) {
    const std::string payload = "from-the-future";
    PutVarint64(body, 99);  // a tag this reader has never heard of
    PutVarint64(body, payload.size());
    body->append(payload);
  });

  f.WipeControlPlane();
  const auto result = ControllerCheckpoint::Restore(
      blob, &f.harness->retuner(), f.harness->stats_channel(), nullptr);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(f.RetunerState(), retuner_before);
}

TEST(ControllerCheckpointTest, TruncatedBlobIsRejectedAndLeavesColdState) {
  Fixture f;
  const std::string blob = f.BuildBlob();
  for (const size_t keep :
       {blob.size() - 1, blob.size() - 5, blob.size() / 2, size_t{4}}) {
    const auto result = ControllerCheckpoint::Restore(
        blob.substr(0, keep), &f.harness->retuner(),
        f.harness->stats_channel(), nullptr);
    EXPECT_FALSE(result.ok) << "kept " << keep;
    EXPECT_FALSE(result.error.empty());
  }
  // The failed restores left the control plane reset, not half-loaded:
  // bit-exact empty-state serialization on both subsystems.
  f.WipeControlPlane();
  const std::string cold_retuner = f.RetunerState();
  const std::string cold_channel = f.ChannelState();
  ControllerCheckpoint::Restore(blob.substr(0, blob.size() / 2),
                                &f.harness->retuner(),
                                f.harness->stats_channel(), nullptr);
  EXPECT_EQ(f.RetunerState(), cold_retuner);
  EXPECT_EQ(f.ChannelState(), cold_channel);
}

TEST(ControllerCheckpointTest, CrcCorruptionIsRejected) {
  Fixture f;
  std::string blob = f.BuildBlob();
  blob[blob.size() / 2] ^= 0x01;  // one flipped bit anywhere
  const auto result = ControllerCheckpoint::Restore(
      blob, &f.harness->retuner(), f.harness->stats_channel(), nullptr);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("crc"), std::string::npos) << result.error;
}

TEST(ControllerCheckpointTest, BadMagicIsRejected) {
  Fixture f;
  std::string blob = f.BuildBlob();
  blob[0] = 'X';
  const auto result = ControllerCheckpoint::Restore(
      blob, &f.harness->retuner(), f.harness->stats_channel(), nullptr);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("magic"), std::string::npos) << result.error;
  EXPECT_FALSE(
      ControllerCheckpoint::Restore("", &f.harness->retuner(), nullptr,
                                    nullptr)
          .ok);
}

TEST(ControllerCheckpointTest, BlobWithoutStatsChannelSectionRestores) {
  // Blobs taken by a harness that ran without a stats channel have no
  // channel section. They must still restore, leaving the channel's
  // receiver side cold.
  Fixture f;
  const std::string retuner_before = f.RetunerState();
  const std::string channel_before = f.ChannelState();
  std::string blob;
  ControllerCheckpoint::Build(f.harness->sim().Now(), f.harness->retuner(),
                              nullptr, f.harness->admission(), &blob);
  f.WipeControlPlane();
  const std::string cold_channel = f.ChannelState();
  ASSERT_NE(channel_before, cold_channel);

  const auto result = ControllerCheckpoint::Restore(
      blob, &f.harness->retuner(), f.harness->stats_channel(), nullptr);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(f.RetunerState(), retuner_before);
  EXPECT_EQ(f.ChannelState(), cold_channel);
}

TEST(ControllerCheckpointTest, SectionLengthPastCrcIsRejected) {
  // A section claiming more payload than the blob holds must be caught
  // by the bounds check, not read into the CRC tail or past the end.
  Fixture f;
  const std::string blob = Reseal(f.BuildBlob(), [](std::string* body) {
    PutVarint64(body, 98);
    PutVarint64(body, 1u << 20);  // 1 MiB payload that isn't there
  });
  const auto result = ControllerCheckpoint::Restore(
      blob, &f.harness->retuner(), f.harness->stats_channel(), nullptr);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
}

}  // namespace
}  // namespace fglb
