// Persistence round trips (serve/model_io.h): every model family and
// every MvgModel preset must survive save -> load with bit-identical
// predictions, and corrupt/truncated/mismatched files must be rejected
// loudly with SerializationError.

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/mvg_classifier.h"
#include "ml/decision_tree.h"
#include "ml/gradient_boosting.h"
#include "ml/linear_model.h"
#include "ml/preprocessing.h"
#include "ml/random_forest.h"
#include "ml/stacking.h"
#include "ml/svm.h"
#include "serve/model_io.h"
#include "serve/model_mmap.h"
#include "serve/serving.h"
#include "tests/test_util.h"
#include "util/binary_io.h"

namespace mvg {
namespace {

using testutil::MakeNoiseDataset;

// ---------------------------------------------------------------------------
// Binary primitives
// ---------------------------------------------------------------------------

TEST(BinaryIoTest, PrimitivesRoundTrip) {
  BinaryWriter w;
  w.WriteU8(0xAB);
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(0x0123456789ABCDEFull);
  w.WriteI32(-42);
  w.WriteBool(true);
  w.WriteDouble(-1.5e-300);
  w.WriteString("mvg");
  w.WriteDoubleVec({1.0, -2.5, 3.25});
  w.WriteIntVec({-1, 0, 7});
  w.WriteSizeVec({0, 99});
  w.WriteDoubleMat({{1.0}, {2.0, 3.0}});

  BinaryReader r(w.data());
  EXPECT_EQ(r.ReadU8(), 0xAB);
  EXPECT_EQ(r.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.ReadU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.ReadI32(), -42);
  EXPECT_TRUE(r.ReadBool());
  EXPECT_EQ(r.ReadDouble(), -1.5e-300);
  EXPECT_EQ(r.ReadString(), "mvg");
  EXPECT_EQ(r.ReadDoubleVec(), (std::vector<double>{1.0, -2.5, 3.25}));
  EXPECT_EQ(r.ReadIntVec(), (std::vector<int>{-1, 0, 7}));
  EXPECT_EQ(r.ReadSizeVec(), (std::vector<size_t>{0, 99}));
  EXPECT_EQ(r.ReadDoubleMat(),
            (std::vector<std::vector<double>>{{1.0}, {2.0, 3.0}}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(BinaryIoTest, LittleEndianLayout) {
  BinaryWriter w;
  w.WriteU32(0x01020304);
  ASSERT_EQ(w.data().size(), 4u);
  EXPECT_EQ(static_cast<uint8_t>(w.data()[0]), 0x04);
  EXPECT_EQ(static_cast<uint8_t>(w.data()[3]), 0x01);
}

TEST(BinaryIoTest, UnderflowThrows) {
  BinaryWriter w;
  w.WriteU32(7);
  BinaryReader r(w.data());
  EXPECT_EQ(r.ReadU32(), 7u);
  EXPECT_THROW(r.ReadU32(), SerializationError);
}

TEST(BinaryIoTest, CorruptLengthPrefixThrowsInsteadOfAllocating) {
  BinaryWriter w;
  w.WriteU64(~0ull);  // announces ~2^64 doubles with no bytes behind it
  BinaryReader r(w.data());
  EXPECT_THROW(r.ReadDoubleVec(), SerializationError);
}

TEST(BinaryIoTest, Crc32KnownVector) {
  // The standard CRC-32 check value for ASCII "123456789".
  EXPECT_EQ(Crc32(std::string("123456789")), 0xCBF43926u);
}

// ---------------------------------------------------------------------------
// Per-family classifier round trips (SaveClassifierBinary registry)
// ---------------------------------------------------------------------------

/// Training data for the raw-classifier round trips.
struct FamilyData {
  Matrix x;
  std::vector<int> y;
  Matrix probes;
};

FamilyData MakeFamilyData() {
  FamilyData d;
  Rng rng(7);
  for (size_t i = 0; i < 60; ++i) {
    const int label = static_cast<int>(i % 3);
    std::vector<double> row(6);
    for (double& v : row) v = rng.Uniform() + 0.8 * label;
    d.x.push_back(row);
    d.y.push_back(label + 5);  // non-dense labels exercise the encoder
  }
  for (size_t i = 0; i < 40; ++i) {
    std::vector<double> row(6);
    for (double& v : row) v = 3.0 * rng.Uniform();
    d.probes.push_back(row);
  }
  return d;
}

/// Fit -> registry save -> registry load -> bit-identical PredictProba.
void ExpectRegistryRoundTrip(Classifier* clf) {
  const FamilyData d = MakeFamilyData();
  clf->Fit(d.x, d.y);
  BinaryWriter w;
  SaveClassifierBinary(*clf, &w);
  BinaryReader r(w.data());
  const std::unique_ptr<Classifier> loaded = LoadClassifierBinary(&r);
  EXPECT_TRUE(r.AtEnd()) << "trailing bytes after " << clf->Name();
  ASSERT_EQ(loaded->classes(), clf->classes());
  EXPECT_EQ(loaded->Name(), clf->Name());
  for (const auto& probe : d.probes) {
    const std::vector<double> expected = clf->PredictProba(probe);
    const std::vector<double> actual = loaded->PredictProba(probe);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t c = 0; c < actual.size(); ++c) {
      // Bit-identical, not just close: same doubles in, same code, so any
      // difference means the serialized state is not the fitted state.
      EXPECT_EQ(actual[c], expected[c])
          << clf->Name() << " probe class " << c;
    }
  }
}

TEST(ClassifierRegistryTest, DecisionTreeRoundTrip) {
  DecisionTreeClassifier::Params p;
  p.max_depth = 6;
  DecisionTreeClassifier clf(p);
  ExpectRegistryRoundTrip(&clf);
}

TEST(ClassifierRegistryTest, RandomForestRoundTrip) {
  RandomForestClassifier::Params p;
  p.num_trees = 12;
  p.max_depth = 6;
  RandomForestClassifier clf(p);
  ExpectRegistryRoundTrip(&clf);
}

TEST(ClassifierRegistryTest, GradientBoostingRoundTrip) {
  GradientBoostingClassifier::Params p;
  p.num_rounds = 15;
  p.max_depth = 3;
  GradientBoostingClassifier clf(p);
  ExpectRegistryRoundTrip(&clf);
  // Feature importances must survive too (Fig. 10 workflow on a loaded
  // model).
  BinaryWriter w;
  SaveClassifierBinary(clf, &w);
  BinaryReader r(w.data());
  const auto loaded = LoadClassifierBinary(&r);
  const auto* gbt = dynamic_cast<const GradientBoostingClassifier*>(
      loaded.get());
  ASSERT_NE(gbt, nullptr);
  EXPECT_EQ(gbt->FeatureGains(), clf.FeatureGains());
}

TEST(ClassifierRegistryTest, SvmRoundTrip) {
  SvmClassifier::Params p;
  p.kernel = SvmClassifier::Kernel::kRbf;
  SvmClassifier clf(p);
  ExpectRegistryRoundTrip(&clf);
}

TEST(ClassifierRegistryTest, LinearSvmRoundTrip) {
  SvmClassifier::Params p;
  p.kernel = SvmClassifier::Kernel::kLinear;
  SvmClassifier clf(p);
  ExpectRegistryRoundTrip(&clf);
}

TEST(ClassifierRegistryTest, LogisticRegressionRoundTrip) {
  LogisticRegressionClassifier clf;
  ExpectRegistryRoundTrip(&clf);
}

TEST(ClassifierRegistryTest, StackingRoundTrip) {
  std::vector<std::vector<ClassifierFactory>> families;
  families.push_back({[] {
    DecisionTreeClassifier::Params p;
    p.max_depth = 5;
    return std::make_unique<DecisionTreeClassifier>(p);
  }});
  families.push_back({[] {
    LogisticRegressionClassifier::Params p;
    return std::make_unique<LogisticRegressionClassifier>(p);
  }});
  StackingEnsemble clf(families);
  ExpectRegistryRoundTrip(&clf);
}

TEST(ClassifierRegistryTest, LoadedStackingIsPredictOnly) {
  std::vector<std::vector<ClassifierFactory>> families;
  families.push_back(
      {[] { return std::make_unique<DecisionTreeClassifier>(); }});
  StackingEnsemble clf(families);
  const FamilyData d = MakeFamilyData();
  clf.Fit(d.x, d.y);
  BinaryWriter w;
  SaveClassifierBinary(clf, &w);
  BinaryReader r(w.data());
  const auto loaded = LoadClassifierBinary(&r);
  EXPECT_THROW(loaded->Fit(d.x, d.y), std::runtime_error);
}

TEST(ClassifierRegistryTest, UnknownTagRejected) {
  BinaryWriter w;
  w.WriteU32(999);
  BinaryReader r(w.data());
  EXPECT_THROW(LoadClassifierBinary(&r), SerializationError);
}

// ---------------------------------------------------------------------------
// Scalers
// ---------------------------------------------------------------------------

TEST(ScalerIoTest, MinMaxRoundTrip) {
  const FamilyData d = MakeFamilyData();
  MinMaxScaler scaler;
  scaler.Fit(d.x);
  BinaryWriter w;
  scaler.SaveBinary(&w);
  BinaryReader r(w.data());
  MinMaxScaler loaded;
  loaded.LoadBinary(&r);
  for (const auto& probe : d.probes) {
    EXPECT_EQ(loaded.Transform(probe), scaler.Transform(probe));
  }
}

TEST(ScalerIoTest, StandardRoundTrip) {
  const FamilyData d = MakeFamilyData();
  StandardScaler scaler;
  scaler.Fit(d.x);
  BinaryWriter w;
  scaler.SaveBinary(&w);
  BinaryReader r(w.data());
  StandardScaler loaded;
  loaded.LoadBinary(&r);
  for (const auto& probe : d.probes) {
    EXPECT_EQ(loaded.Transform(probe), scaler.Transform(probe));
  }
}

// ---------------------------------------------------------------------------
// Full MvgClassifier model files, all four MvgModel families
// ---------------------------------------------------------------------------

class ModelFileTest : public ::testing::TestWithParam<MvgModel> {
 protected:
  /// Small but non-trivial: 3 classes, enough rows for 3-fold CV.
  static Dataset TrainSet() {
    return MakeNoiseDataset("serve_train", {0, 1, 2}, 8, 64, /*seed=*/11);
  }

  static MvgClassifier Train(MvgModel model) {
    MvgClassifier::Config config;
    config.model = model;
    config.grid = GridPreset::kNone;  // single candidate: fast and exact
    MvgClassifier clf(config);
    clf.Fit(TrainSet());
    return clf;
  }

  static std::string Serialize(const MvgClassifier& clf) {
    std::ostringstream os(std::ios::binary);
    SaveModel(clf, os);
    return os.str();
  }
};

TEST_P(ModelFileTest, SaveLoadPredictIsBitIdentical) {
  const MvgClassifier clf = Train(GetParam());
  const std::string blob = Serialize(clf);
  std::istringstream is(blob, std::ios::binary);
  const MvgClassifier loaded = LoadModel(is);

  EXPECT_EQ(loaded.Name(), clf.Name());
  EXPECT_EQ(loaded.feature_width(), clf.feature_width());
  EXPECT_EQ(loaded.train_length(), clf.train_length());

  // The acceptance bar: identical labels on 100 generated series drawn
  // from families the model never saw.
  size_t checked = 0;
  for (const auto family : testutil::AllSeriesFamilies()) {
    for (uint64_t seed = 0; seed < 25; ++seed) {
      const Series s = testutil::MakeFamilySeries(family, 64, 1000 + seed);
      ASSERT_EQ(loaded.Predict(s), clf.Predict(s))
          << testutil::ToString(family) << " seed " << seed;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 100u);
}

TEST_P(ModelFileTest, SecondSaveIsByteIdentical) {
  const MvgClassifier clf = Train(GetParam());
  EXPECT_EQ(Serialize(clf), Serialize(clf));
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, ModelFileTest,
                         ::testing::Values(MvgModel::kXgboost,
                                           MvgModel::kRandomForest,
                                           MvgModel::kSvm,
                                           MvgModel::kStacking),
                         [](const auto& info) {
                           switch (info.param) {
                             case MvgModel::kXgboost: return "Xgboost";
                             case MvgModel::kRandomForest: return "RandomForest";
                             case MvgModel::kSvm: return "Svm";
                             case MvgModel::kStacking: return "Stacking";
                           }
                           return "Unknown";
                         });

// ---------------------------------------------------------------------------
// Corruption / rejection cases (on one cheap family)
// ---------------------------------------------------------------------------

class CorruptionTest : public ::testing::Test {
 protected:
  static const std::string& Blob() {
    static const std::string blob = [] {
      MvgClassifier::Config config;
      config.model = MvgModel::kSvm;
      config.grid = GridPreset::kNone;
      MvgClassifier clf(config);
      clf.Fit(MakeNoiseDataset("corrupt_train", {0, 1}, 6, 48, 3));
      std::ostringstream os(std::ios::binary);
      SaveModel(clf, os);
      return os.str();
    }();
    return blob;
  }

  static void ExpectRejected(std::string blob) {
    std::istringstream is(blob, std::ios::binary);
    EXPECT_THROW(LoadModel(is), SerializationError);
  }
};

TEST_F(CorruptionTest, BadMagicRejected) {
  std::string blob = Blob();
  blob[0] = 'X';
  ExpectRejected(blob);
}

TEST_F(CorruptionTest, EmptyFileRejected) { ExpectRejected(""); }

TEST_F(CorruptionTest, FutureVersionRejected) {
  std::string blob = Blob();
  blob[8] = static_cast<char>(kModelFormatVersion + 1);  // version u32 LSB
  ExpectRejected(blob);
}

TEST_F(CorruptionTest, TruncatedFileRejected) {
  const std::string& blob = Blob();
  // Every strict prefix must be rejected, never half-loaded. Sampling a
  // spread of cut points keeps the test fast.
  for (size_t cut : {size_t{4}, size_t{15}, size_t{40}, blob.size() / 2,
                     blob.size() - 1}) {
    ExpectRejected(blob.substr(0, cut));
  }
}

TEST_F(CorruptionTest, PayloadBitFlipFailsChecksum) {
  std::string blob = Blob();
  // Flip one byte inside the first section's payload. In the v3 layout
  // payloads start at the first 64-byte-aligned offset past the header
  // (64 bytes) and the three table entries (32 bytes each).
  const size_t first_payload =
      ((kModelHeaderBytes + 3 * kModelTableEntryBytes + kModelPayloadAlign -
        1) /
       kModelPayloadAlign) *
      kModelPayloadAlign;
  ASSERT_LT(first_payload + 8, blob.size());
  blob[first_payload + 8] = static_cast<char>(blob[first_payload + 8] ^ 0x5A);
  ExpectRejected(blob);
}

TEST_F(CorruptionTest, UnfittedModelRefusesToSave) {
  MvgClassifier clf;
  std::ostringstream os(std::ios::binary);
  EXPECT_THROW(SaveModel(clf, os), std::runtime_error);
}

TEST_F(CorruptionTest, FileRoundTripViaPath) {
  const std::string path = ::testing::TempDir() + "serve_io_test_model.mvg";
  MvgClassifier::Config config;
  config.model = MvgModel::kSvm;
  config.grid = GridPreset::kNone;
  MvgClassifier clf(config);
  const Dataset train = MakeNoiseDataset("path_train", {0, 1}, 6, 48, 5);
  clf.Fit(train);
  SaveModel(clf, path);
  const MvgClassifier loaded = LoadModel(path);
  for (size_t i = 0; i < train.size(); ++i) {
    EXPECT_EQ(loaded.Predict(train.series(i)), clf.Predict(train.series(i)));
  }
  EXPECT_THROW(LoadModel(path + ".does_not_exist"), std::runtime_error);
}

/// A stream whose sink fails every write: exercises the
/// stream-state-after-write-and-flush contract of SaveModel (a full disk
/// or broken pipe must throw, never leave a silently truncated file).
class FailingBuf : public std::streambuf {
 protected:
  int_type overflow(int_type) override { return traits_type::eof(); }
  std::streamsize xsputn(const char*, std::streamsize) override { return 0; }
};

TEST_F(CorruptionTest, FailingStreamThrowsOnSave) {
  MvgClassifier::Config config;
  config.model = MvgModel::kSvm;
  config.grid = GridPreset::kNone;
  MvgClassifier clf(config);
  clf.Fit(MakeNoiseDataset("failbuf_train", {0, 1}, 6, 48, 3));
  FailingBuf buf;
  std::ostream os(&buf);
  EXPECT_THROW(SaveModel(clf, os), std::runtime_error);
}

// ---------------------------------------------------------------------------
// v3 framing: structural corruption, migration, zero-copy views
// ---------------------------------------------------------------------------

/// v3 structural-corruption fixture with table-tampering helpers.
class V3FramingTest : public CorruptionTest {
 protected:
  static constexpr size_t kTableStart = kModelHeaderBytes;

  /// Byte offset of field `field_off` inside table entry `i`.
  static size_t Entry(size_t i, size_t field_off) {
    return kTableStart + i * kModelTableEntryBytes + field_off;
  }

  static uint64_t GetU64(const std::string& blob, size_t off) {
    uint64_t v = 0;
    std::memcpy(&v, blob.data() + off, sizeof(v));
    return v;  // test runs on little-endian CI; format is little-endian
  }

  static void PutU64(std::string* blob, size_t off, uint64_t v) {
    std::memcpy(&(*blob)[off], &v, sizeof(v));
  }

  static void PutU32(std::string* blob, size_t off, uint32_t v) {
    std::memcpy(&(*blob)[off], &v, sizeof(v));
  }

  /// Recomputes the header's table CRC after a deliberate table edit, so
  /// the test reaches the *structural* validation being exercised instead
  /// of tripping the table-checksum check first.
  static void FixTableCrc(std::string* blob) {
    BinaryReader counter(blob->data() + 12, 4);
    const uint32_t n = counter.ReadU32();
    PutU32(blob, 24,
           Crc32(blob->data() + kTableStart, n * kModelTableEntryBytes));
  }
};

TEST_F(V3FramingTest, WritesCurrentVersion) {
  const std::string& blob = Blob();
  std::istringstream is(blob, std::ios::binary);
  EXPECT_EQ(PeekModelVersion(is), kModelFormatVersion);
  EXPECT_EQ(GetU64(blob, 16), blob.size());  // self-reported file size
}

TEST_F(V3FramingTest, SectionTableTamperFailsTableCrc) {
  std::string blob = Blob();
  blob[Entry(0, 0)] = static_cast<char>(blob[Entry(0, 0)] ^ 0x01);  // tag
  ExpectRejected(blob);
}

TEST_F(V3FramingTest, MisalignedSectionOffsetRejected) {
  std::string blob = Blob();
  PutU64(&blob, Entry(0, 8), GetU64(blob, Entry(0, 8)) + 8);
  FixTableCrc(&blob);
  ExpectRejected(blob);
}

TEST_F(V3FramingTest, OutOfBoundsSectionRejected) {
  std::string blob = Blob();
  // Push the last section's offset past the end of the file (keeping it
  // 64-byte aligned so the bounds check, not the alignment check, fires).
  PutU64(&blob, Entry(2, 8),
         (blob.size() / kModelPayloadAlign + 2) * kModelPayloadAlign);
  FixTableCrc(&blob);
  ExpectRejected(blob);
}

TEST_F(V3FramingTest, OverlappingSectionsRejected) {
  std::string blob = Blob();
  // Alias section 1 (scaler) onto section 0's extent, copying its size
  // and CRC so every per-section check passes and only the overlap scan
  // can catch it.
  PutU64(&blob, Entry(1, 8), GetU64(blob, Entry(0, 8)));   // offset
  PutU64(&blob, Entry(1, 16), GetU64(blob, Entry(0, 16))); // size
  PutU32(&blob, Entry(1, 24),
         static_cast<uint32_t>(GetU64(blob, Entry(0, 24)) & 0xFFFFFFFFu));
  FixTableCrc(&blob);
  ExpectRejected(blob);
}

TEST_F(V3FramingTest, TrailingGarbageRejected) {
  std::string blob = Blob();
  blob.push_back('\0');  // header's file_size no longer matches
  ExpectRejected(blob);
}

TEST_F(V3FramingTest, V2FileStillLoadsAndResavesAsV3) {
  MvgClassifier::Config config;
  config.model = MvgModel::kSvm;
  config.grid = GridPreset::kNone;
  MvgClassifier clf(config);
  const Dataset train = MakeNoiseDataset("migrate_train", {0, 1}, 6, 48, 4);
  clf.Fit(train);

  std::ostringstream v2(std::ios::binary);
  SaveModelV2(clf, v2);
  {
    std::istringstream is(v2.str(), std::ios::binary);
    EXPECT_EQ(PeekModelVersion(is), 2u);
  }

  std::istringstream is(v2.str(), std::ios::binary);
  const MvgClassifier migrated = LoadModel(is);
  for (size_t i = 0; i < train.size(); ++i) {
    EXPECT_EQ(migrated.Predict(train.series(i)), clf.Predict(train.series(i)));
  }

  // Re-saving a migrated model writes the current format.
  std::ostringstream resaved(std::ios::binary);
  SaveModel(migrated, resaved);
  std::istringstream peek(resaved.str(), std::ios::binary);
  EXPECT_EQ(PeekModelVersion(peek), kModelFormatVersion);
}

TEST_F(V3FramingTest, CorruptV2SectionStillRejected) {
  MvgClassifier::Config config;
  config.model = MvgModel::kSvm;
  config.grid = GridPreset::kNone;
  MvgClassifier clf(config);
  clf.Fit(MakeNoiseDataset("migrate_corrupt", {0, 1}, 6, 48, 4));
  std::ostringstream v2(std::ios::binary);
  SaveModelV2(clf, v2);
  std::string blob = v2.str();
  blob[40] ^= 0x5A;  // v2 payloads start at byte 32; this hits section 1
  ExpectRejected(blob);
}

/// Zero-copy loads: the same bytes viewed in place must behave exactly
/// like the copying stream load.
class ZeroCopyTest : public ::testing::Test {
 protected:
  static void TrainAndCompare(MvgModel model) {
    MvgClassifier::Config config;
    config.model = model;
    config.grid = GridPreset::kNone;
    MvgClassifier clf(config);
    const Dataset train = MakeNoiseDataset("zerocopy_train", {0, 1}, 6, 48, 4);
    clf.Fit(train);

    std::ostringstream os(std::ios::binary);
    SaveModel(clf, os);
    const std::string blob = os.str();

    // An 8-byte-aligned home for the file image (mmap hands out
    // page-aligned memory; a heap test buffer must arrange alignment
    // itself for the in-place node views to engage).
    std::vector<uint64_t> buf((blob.size() + 7) / 8);
    std::memcpy(buf.data(), blob.data(), blob.size());
    const MvgClassifier viewed = LoadModelView(buf.data(), blob.size());

    std::istringstream is(blob, std::ios::binary);
    const MvgClassifier copied = LoadModel(is);
    for (uint64_t seed = 0; seed < 20; ++seed) {
      const Series s = testutil::MakeFamilySeries(
          testutil::AllSeriesFamilies()[seed % 4], 48, 2000 + seed);
      const int expect = copied.Predict(s);
      EXPECT_EQ(viewed.Predict(s), expect) << "seed " << seed;
      EXPECT_EQ(clf.Predict(s), expect) << "seed " << seed;
    }
  }
};

TEST_F(ZeroCopyTest, ViewLoadMatchesStreamLoadXgboost) {
  TrainAndCompare(MvgModel::kXgboost);
}

TEST_F(ZeroCopyTest, ViewLoadMatchesStreamLoadRandomForest) {
  TrainAndCompare(MvgModel::kRandomForest);
}

TEST_F(ZeroCopyTest, ViewLoadRejectsV2) {
  MvgClassifier::Config config;
  config.model = MvgModel::kSvm;
  config.grid = GridPreset::kNone;
  MvgClassifier clf(config);
  clf.Fit(MakeNoiseDataset("zerocopy_v2", {0, 1}, 6, 48, 3));
  std::ostringstream os(std::ios::binary);
  SaveModelV2(clf, os);
  const std::string blob = os.str();
  std::vector<uint64_t> buf((blob.size() + 7) / 8);
  std::memcpy(buf.data(), blob.data(), blob.size());
  EXPECT_THROW(LoadModelView(buf.data(), blob.size()), SerializationError);
}

// The view load is O(1) by deferring payload CRCs (ModelVerify::
// kStructure, the default): a payload bit flip passes the default open
// but is caught by ModelVerify::kFull and by the stream loader. The
// flipped byte sits in the pipeline section's trailing timing doubles,
// which decode without error — isolating checksum behavior from decode
// failures.
TEST_F(ZeroCopyTest, ViewLoadDefersPayloadCrcUntilAskedToVerify) {
  MvgClassifier::Config config;
  config.model = MvgModel::kSvm;
  config.grid = GridPreset::kNone;
  MvgClassifier clf(config);
  clf.Fit(MakeNoiseDataset("zerocopy_crc", {0, 1}, 6, 48, 3));
  std::ostringstream os(std::ios::binary);
  SaveModel(clf, os);
  const std::string blob = os.str();

  std::vector<uint64_t> buf((blob.size() + 7) / 8);
  std::memcpy(buf.data(), blob.data(), blob.size());
  EXPECT_NO_THROW(LoadModelView(buf.data(), blob.size(), ModelVerify::kFull));

  // Pipeline section = first payload (its size sits 16 bytes into the
  // first table entry); its last 16 bytes are the two recorded wall
  // times.
  const size_t first_payload =
      ((kModelHeaderBytes + 3 * kModelTableEntryBytes + kModelPayloadAlign -
        1) /
       kModelPayloadAlign) *
      kModelPayloadAlign;
  size_t pipeline_size = 0;
  std::memcpy(&pipeline_size, blob.data() + kModelHeaderBytes + 16, 8);
  reinterpret_cast<uint8_t*>(buf.data())[first_payload + pipeline_size - 1] ^=
      0x01;

  EXPECT_NO_THROW(LoadModelView(buf.data(), blob.size()));  // kStructure
  EXPECT_THROW(LoadModelView(buf.data(), blob.size(), ModelVerify::kFull),
               SerializationError);
}

// Predict resizes every feature vector to the stored feature_width, and
// the structure-only view load decodes it without a payload CRC. A
// patched width — one flipped high byte asks for 2^55 doubles, one
// flipped low bit is off by one — must be rejected at load, not at the
// first Predict.
TEST_F(ZeroCopyTest, ViewLoadRejectsPatchedFeatureWidth) {
  MvgClassifier::Config config;
  config.model = MvgModel::kXgboost;
  config.grid = GridPreset::kNone;
  MvgClassifier clf(config);
  clf.Fit(MakeNoiseDataset("zerocopy_width", {0, 1}, 6, 48, 5));
  std::ostringstream os(std::ios::binary);
  SaveModel(clf, os);
  const std::string blob = os.str();

  // Pipeline section = first payload (its size sits 16 bytes into the
  // first table entry); it ends with feature_width, train_length and the
  // two recorded wall times, 8 bytes each.
  const size_t first_payload =
      ((kModelHeaderBytes + 3 * kModelTableEntryBytes + kModelPayloadAlign -
        1) /
       kModelPayloadAlign) *
      kModelPayloadAlign;
  size_t pipeline_size = 0;
  std::memcpy(&pipeline_size, blob.data() + kModelHeaderBytes + 16, 8);
  const size_t width_at = first_payload + pipeline_size - 32;
  uint64_t width = 0;
  std::memcpy(&width, blob.data() + width_at, 8);
  ASSERT_EQ(width, clf.feature_width());

  std::vector<uint64_t> buf((blob.size() + 7) / 8);
  std::memcpy(buf.data(), blob.data(), blob.size());
  EXPECT_NO_THROW(MvgClassifier::LoadBinaryView(buf.data(), blob.size()));
  for (const auto& [byte, mask] :
       {std::pair<size_t, uint8_t>{6, 0x80}, {0, 0x01}}) {
    std::memcpy(buf.data(), blob.data(), blob.size());
    reinterpret_cast<uint8_t*>(buf.data())[width_at + byte] ^= mask;
    EXPECT_THROW(MvgClassifier::LoadBinaryView(buf.data(), blob.size()),
                 SerializationError)
        << "byte " << byte;
  }
}

TEST_F(ZeroCopyTest, MappedFileSessionMatchesStreamSession) {
  const std::string path = ::testing::TempDir() + "serve_io_test_mmap.mvg";
  MvgClassifier::Config config;
  config.model = MvgModel::kXgboost;
  config.grid = GridPreset::kNone;
  MvgClassifier clf(config);
  const Dataset train = MakeNoiseDataset("mmap_train", {0, 1}, 6, 48, 4);
  clf.Fit(train);
  SaveModel(clf, path);

  ServingSession mapped = ServingSession::FromFileMapped(path);
  ServingSession streamed = ServingSession::FromFile(path);
  const std::vector<int> a = mapped.PredictBatch(train.all_series());
  const std::vector<int> b = streamed.PredictBatch(train.all_series());
  EXPECT_EQ(a, b);

  // The mapping must survive moving the session.
  ServingSession moved = std::move(mapped);
  EXPECT_EQ(moved.PredictBatch(train.all_series()), b);
}

TEST_F(ZeroCopyTest, MappedFileBasics) {
  const std::string path = ::testing::TempDir() + "serve_io_test_raw.bin";
  {
    std::ofstream os(path, std::ios::binary);
    os << "mapped bytes";
  }
  MappedFile map(path);
  EXPECT_EQ(map.size(), 12u);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(map.data()), map.size()),
            "mapped bytes");
  EXPECT_THROW(MappedFile(path + ".does_not_exist"), std::runtime_error);
}

}  // namespace
}  // namespace mvg
