#include "serve/model_io.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/binary_io.h"

namespace mvg {

namespace {

/// Hard cap on a single section payload (64 MiB). Real models are a few
/// KiB to a few MiB; anything larger is a corrupt length field.
constexpr uint64_t kMaxSectionBytes = 64ull << 20;

/// Sanity cap on the section count — a corrupt count must not drive a
/// huge table read.
constexpr uint32_t kMaxSections = 64;

size_t AlignUp(size_t v, size_t a) { return (v + a - 1) / a * a; }

uint8_t CheckedEnum(BinaryReader* r, uint8_t max_value, const char* what) {
  const uint8_t v = r->ReadU8();
  if (v > max_value) {
    throw SerializationError(std::string("model file: out-of-range ") + what +
                             " value " + std::to_string(v));
  }
  return v;
}

void SaveMvgConfig(const MvgConfig& c, BinaryWriter* w) {
  w->WriteU8(static_cast<uint8_t>(c.scale_mode));
  w->WriteU8(static_cast<uint8_t>(c.graph_mode));
  w->WriteU8(static_cast<uint8_t>(c.feature_mode));
  w->WriteSize(c.tau);
  w->WriteBool(c.detrend);
  w->WriteU8(static_cast<uint8_t>(c.vg_algorithm));
}

MvgConfig LoadMvgConfig(BinaryReader* r) {
  MvgConfig c;
  c.scale_mode = static_cast<ScaleMode>(CheckedEnum(r, 2, "ScaleMode"));
  c.graph_mode = static_cast<GraphMode>(CheckedEnum(r, 2, "GraphMode"));
  c.feature_mode = static_cast<FeatureMode>(CheckedEnum(r, 2, "FeatureMode"));
  c.tau = r->ReadSize();
  c.detrend = r->ReadBool();
  c.vg_algorithm = static_cast<VgAlgorithm>(CheckedEnum(r, 1, "VgAlgorithm"));
  return c;
}

/// A validated window into a model file's bytes.
struct SectionView {
  const uint8_t* data = nullptr;
  size_t size = 0;
};

using SectionMap = std::map<uint32_t, SectionView>;

// ---------------------------------------------------------------------------
// v3 framing: 64-byte header, offset-indexed 32-byte table entries,
// 64-byte-aligned payloads. Written so the whole file can be mmap'd and
// validated in place.
// ---------------------------------------------------------------------------

void WriteFramedV3(std::ostream& os,
                   const std::vector<std::pair<uint32_t, const std::string*>>&
                       sections) {
  const size_t n = sections.size();
  const size_t table_end = kModelHeaderBytes + n * kModelTableEntryBytes;

  // Lay out payload offsets first; the header needs the total file size.
  std::vector<uint64_t> offsets(n);
  uint64_t pos = AlignUp(table_end, kModelPayloadAlign);
  for (size_t i = 0; i < n; ++i) {
    offsets[i] = pos;
    pos += sections[i].second->size();
    if (i + 1 < n) pos = AlignUp(pos, kModelPayloadAlign);
  }
  const uint64_t file_size = pos;

  BinaryWriter table;
  for (size_t i = 0; i < n; ++i) {
    table.WriteU32(sections[i].first);
    table.WriteU32(0);  // flags (reserved)
    table.WriteU64(offsets[i]);
    table.WriteU64(sections[i].second->size());
    table.WriteU32(Crc32(*sections[i].second));
    table.WriteU32(0);  // pad
  }

  BinaryWriter header;
  header.WriteBytes(kModelMagic, sizeof(kModelMagic));
  header.WriteU32(kModelFormatVersion);
  header.WriteU32(static_cast<uint32_t>(n));
  header.WriteU64(file_size);
  header.WriteU32(Crc32(table.data()));
  header.AlignTo(kModelHeaderBytes);

  os.write(header.data().data(), static_cast<std::streamsize>(header.size()));
  os.write(table.data().data(), static_cast<std::streamsize>(table.size()));
  uint64_t written = table_end;
  for (size_t i = 0; i < n; ++i) {
    static const char kZeros[kModelPayloadAlign] = {};
    os.write(kZeros, static_cast<std::streamsize>(offsets[i] - written));
    os.write(sections[i].second->data(),
             static_cast<std::streamsize>(sections[i].second->size()));
    written = offsets[i] + sections[i].second->size();
  }
}

/// Parses and validates the v3 framing over `buf` (header fields, table
/// CRC, per-section alignment/bounds/overlap — plus per-section payload
/// CRCs when `verify_payload_crc`; mapped loads defer that O(file) sweep
/// so they never fault in payload pages) and returns views into it.
/// Unknown tags are kept in the map but loaders simply never look them
/// up; duplicate tags are an error.
SectionMap ReadSectionTableV3(const uint8_t* buf, size_t size,
                              bool verify_payload_crc) {
  if (size < kModelHeaderBytes) {
    throw SerializationError("model file: truncated v3 header");
  }
  BinaryReader header(buf, kModelHeaderBytes);
  header.ViewBytes(sizeof(kModelMagic));  // magic checked by the caller.
  header.ReadU32();                       // version checked by the caller.
  const uint32_t section_count = header.ReadU32();
  const uint64_t file_size = header.ReadU64();
  const uint32_t table_crc = header.ReadU32();

  if (section_count > kMaxSections) {
    throw SerializationError("model file: implausible section count " +
                             std::to_string(section_count));
  }
  if (file_size != size) {
    throw SerializationError(
        "model file: size mismatch (header says " + std::to_string(file_size) +
        " bytes, got " + std::to_string(size) + "; truncated or trailing "
        "garbage)");
  }
  const size_t table_bytes = section_count * kModelTableEntryBytes;
  if (size - kModelHeaderBytes < table_bytes) {
    throw SerializationError("model file: truncated section table");
  }
  if (Crc32(buf + kModelHeaderBytes, table_bytes) != table_crc) {
    throw SerializationError("model file: section table checksum mismatch");
  }

  BinaryReader table(buf + kModelHeaderBytes, table_bytes);
  SectionMap sections;
  std::vector<std::pair<uint64_t, uint64_t>> extents;  // (offset, end)
  for (uint32_t i = 0; i < section_count; ++i) {
    const uint32_t tag = table.ReadU32();
    table.ReadU32();  // flags (reserved; ignored for forward compat).
    const uint64_t offset = table.ReadU64();
    const uint64_t payload_size = table.ReadU64();
    const uint32_t crc = table.ReadU32();
    table.ReadU32();  // pad
    if (payload_size > kMaxSectionBytes) {
      throw SerializationError("model file: section " + std::to_string(tag) +
                               " implausibly large");
    }
    if (offset % kModelPayloadAlign != 0) {
      throw SerializationError("model file: misaligned section " +
                               std::to_string(tag));
    }
    if (offset < kModelHeaderBytes + table_bytes || offset > size ||
        payload_size > size - offset) {
      throw SerializationError("model file: section " + std::to_string(tag) +
                               " out of bounds");
    }
    if (verify_payload_crc &&
        Crc32(buf + offset, static_cast<size_t>(payload_size)) != crc) {
      throw SerializationError("model file: checksum mismatch in section " +
                               std::to_string(tag));
    }
    if (!sections
             .emplace(tag, SectionView{buf + offset,
                                       static_cast<size_t>(payload_size)})
             .second) {
      throw SerializationError("model file: duplicate section " +
                               std::to_string(tag));
    }
    extents.emplace_back(offset, offset + payload_size);
  }
  std::sort(extents.begin(), extents.end());
  for (size_t i = 1; i < extents.size(); ++i) {
    if (extents[i].first < extents[i - 1].second) {
      throw SerializationError("model file: overlapping sections");
    }
  }
  return sections;
}

// ---------------------------------------------------------------------------
// v2 framing (legacy read + fixture write): 16-byte header followed by
// sequential `u32 tag | u64 size | u32 crc | payload` sections.
// ---------------------------------------------------------------------------

void WriteSectionV2(std::ostream& os, uint32_t tag,
                    const std::string& payload) {
  BinaryWriter header;
  header.WriteU32(tag);
  header.WriteU64(payload.size());
  header.WriteU32(Crc32(payload));
  os.write(header.data().data(), static_cast<std::streamsize>(header.size()));
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

/// Validates the sequential v2 section framing of `buf` (magic/version
/// already checked) and returns views into it.
SectionMap ReadSectionsV2(const uint8_t* buf, size_t size) {
  BinaryReader r(buf, size);
  r.ViewBytes(sizeof(kModelMagic) + 4);  // magic + version.
  const uint32_t section_count = r.ReadU32();
  if (section_count > kMaxSections) {
    throw SerializationError("model file: implausible section count " +
                             std::to_string(section_count));
  }

  SectionMap sections;
  for (uint32_t i = 0; i < section_count; ++i) {
    const uint32_t tag = r.ReadU32();
    const uint64_t size = r.ReadU64();
    const uint32_t crc = r.ReadU32();
    if (size > kMaxSectionBytes) {
      throw SerializationError("model file: section " + std::to_string(tag) +
                               " implausibly large");
    }
    if (size > r.remaining()) {
      throw SerializationError("model file: truncated section " +
                               std::to_string(tag));
    }
    const uint8_t* payload = r.ViewBytes(static_cast<size_t>(size));
    if (Crc32(payload, static_cast<size_t>(size)) != crc) {
      throw SerializationError("model file: checksum mismatch in section " +
                               std::to_string(tag));
    }
    if (!sections
             .emplace(tag, SectionView{payload, static_cast<size_t>(size)})
             .second) {
      throw SerializationError("model file: duplicate section " +
                               std::to_string(tag));
    }
  }
  return sections;
}

// ---------------------------------------------------------------------------
// Shared entry points.
// ---------------------------------------------------------------------------

uint32_t CheckMagicReadVersion(const void* data, size_t size) {
  if (size < sizeof(kModelMagic) + 4) {
    throw SerializationError("model file: truncated header");
  }
  if (std::memcmp(data, kModelMagic, sizeof(kModelMagic)) != 0) {
    throw SerializationError("model file: bad magic (not an .mvg model)");
  }
  BinaryReader r(static_cast<const uint8_t*>(data) + sizeof(kModelMagic), 4);
  return r.ReadU32();
}

const SectionView& RequireSection(const SectionMap& sections, uint32_t tag,
                                  const char* what) {
  const auto it = sections.find(tag);
  if (it == sections.end()) {
    throw SerializationError(std::string("model file: missing ") + what +
                             " section");
  }
  return it->second;
}

/// The three mandatory sections plus the format version they were
/// framed in, fully validated, still viewing the source buffer.
struct OpenedModel {
  SectionView pipeline, scaler, model;
  uint32_t version = 0;
};

/// Dispatches on the version embedded in `data` and validates the
/// matching framing. `zero_copy` requires v3 (the only layout whose flat
/// payloads can be viewed in place). `verify_payload_crc=false` keeps
/// the open O(table) — see ModelVerify::kStructure.
OpenedModel OpenModelBuffer(const void* data, size_t size, bool zero_copy,
                            bool verify_payload_crc) {
  const uint32_t version = CheckMagicReadVersion(data, size);
  SectionMap sections;
  if (version == kModelFormatVersion) {
    sections = ReadSectionTableV3(static_cast<const uint8_t*>(data), size,
                                  verify_payload_crc);
  } else if (version == 2 && !zero_copy) {
    sections = ReadSectionsV2(static_cast<const uint8_t*>(data), size);
  } else {
    throw SerializationError(
        "model file: unsupported format version " + std::to_string(version) +
        (zero_copy
             ? " (zero-copy load requires v" +
                   std::to_string(kModelFormatVersion) + ")"
             : " (this build reads v" + std::to_string(kModelMinReadVersion) +
                   "-v" + std::to_string(kModelFormatVersion) + ")"));
  }

  OpenedModel opened;
  opened.pipeline = RequireSection(sections, kSectionPipeline, "pipeline");
  opened.scaler = RequireSection(sections, kSectionScaler, "scaler");
  opened.model = RequireSection(sections, kSectionModel, "model");
  opened.version = version;
  return opened;
}

}  // namespace

// Defined here rather than in core/mvg_classifier.cc so the whole on-disk
// format — framing plus every section body — lives in the serve layer;
// being member functions they still have access to the private fitted
// state they persist.
void MvgClassifier::BuildSections(uint32_t format_version,
                                  std::string* pipeline, std::string* scaler,
                                  std::string* model) const {
  if (!model_) {
    throw std::runtime_error("MvgClassifier::SaveBinary: model not fitted");
  }

  BinaryWriter pipeline_w;
  pipeline_w.set_format_version(format_version);
  SaveMvgConfig(config_.extractor, &pipeline_w);
  pipeline_w.WriteU8(static_cast<uint8_t>(config_.model));
  pipeline_w.WriteU8(static_cast<uint8_t>(config_.grid));
  pipeline_w.WriteBool(config_.oversample);
  pipeline_w.WriteSize(config_.cv_folds);
  pipeline_w.WriteSize(config_.stacking_top_k);
  pipeline_w.WriteU64(config_.seed);
  // num_threads is a runtime knob (results are thread-count invariant)
  // and deliberately not persisted; exact_splits changes what a refit
  // would learn, so it is part of the model's identity.
  pipeline_w.WriteBool(config_.exact_splits);
  pipeline_w.WriteSize(feature_width_);
  pipeline_w.WriteSize(train_length_);
  pipeline_w.WriteDouble(fe_seconds_);
  pipeline_w.WriteDouble(train_seconds_);
  *pipeline = pipeline_w.data();

  BinaryWriter scaler_w;
  scaler_w.set_format_version(format_version);
  scaler_.SaveBinary(&scaler_w);
  *scaler = scaler_w.data();

  BinaryWriter model_w;
  model_w.set_format_version(format_version);
  SaveClassifierBinary(*model_, &model_w);
  *model = model_w.data();
}

void MvgClassifier::SaveBinary(std::ostream& os) const {
  std::string pipeline, scaler, model;
  BuildSections(kFormatCurrent, &pipeline, &scaler, &model);
  WriteFramedV3(os, {{kSectionPipeline, &pipeline},
                     {kSectionScaler, &scaler},
                     {kSectionModel, &model}});
  if (!os) {
    throw std::runtime_error("MvgClassifier::SaveBinary: stream write failed");
  }
}

void MvgClassifier::SaveBinaryV2(std::ostream& os) const {
  std::string pipeline, scaler, model;
  BuildSections(2, &pipeline, &scaler, &model);

  BinaryWriter header;
  header.WriteBytes(kModelMagic, sizeof(kModelMagic));
  header.WriteU32(2);  // legacy format version
  header.WriteU32(3);  // section count
  os.write(header.data().data(), static_cast<std::streamsize>(header.size()));
  WriteSectionV2(os, kSectionPipeline, pipeline);
  WriteSectionV2(os, kSectionScaler, scaler);
  WriteSectionV2(os, kSectionModel, model);
  if (!os) {
    throw std::runtime_error(
        "MvgClassifier::SaveBinaryV2: stream write failed");
  }
}

MvgClassifier MvgClassifier::FromSectionReaders(BinaryReader* pipeline,
                                                BinaryReader* scaler,
                                                BinaryReader* model) {
  Config config;
  config.extractor = LoadMvgConfig(pipeline);
  config.model = static_cast<MvgModel>(CheckedEnum(pipeline, 3, "MvgModel"));
  config.grid =
      static_cast<GridPreset>(CheckedEnum(pipeline, 2, "GridPreset"));
  config.oversample = pipeline->ReadBool();
  config.cv_folds = pipeline->ReadSize();
  config.stacking_top_k = pipeline->ReadSize();
  config.seed = pipeline->ReadU64();
  config.exact_splits = pipeline->ReadBool();

  MvgClassifier clf(config);
  clf.feature_width_ = pipeline->ReadSize();
  clf.train_length_ = pipeline->ReadSize();
  clf.fe_seconds_ = pipeline->ReadDouble();
  clf.train_seconds_ = pipeline->ReadDouble();
  // Predict sizes every feature vector by feature_width, so it must not be
  // taken on trust. Every fit pads to exactly the layout width of its
  // longest series (NumScalesForLength is monotone in length).
  const size_t want_width =
      clf.extractor_.LayoutForLength(clf.train_length_).feature_width;
  if (clf.feature_width_ != want_width) {
    throw SerializationError(
        "model file: feature_width " + std::to_string(clf.feature_width_) +
        " does not match the layout width " + std::to_string(want_width) +
        " of train_length " + std::to_string(clf.train_length_));
  }

  clf.scaler_.LoadBinary(scaler);
  clf.model_ = LoadClassifierBinary(model);
  return clf;
}

namespace {

/// Builds section readers over an opened buffer and rebuilds the model
/// through the (private, member) section decoder.
MvgClassifier DecodeOpened(const OpenedModel& opened, bool zero_copy) {
  BinaryReader pipeline(opened.pipeline.data, opened.pipeline.size);
  BinaryReader scaler(opened.scaler.data, opened.scaler.size);
  BinaryReader model(opened.model.data, opened.model.size);
  for (BinaryReader* r : {&pipeline, &scaler, &model}) {
    r->set_format_version(opened.version);
    r->set_zero_copy(zero_copy);
  }
  return MvgClassifier::FromSectionReaders(&pipeline, &scaler, &model);
}

}  // namespace

MvgClassifier MvgClassifier::LoadBinary(std::istream& is) {
  std::ostringstream raw;
  raw << is.rdbuf();
  const std::string buf = raw.str();
  return DecodeOpened(OpenModelBuffer(buf.data(), buf.size(), false,
                                      /*verify_payload_crc=*/true),
                      /*zero_copy=*/false);
}

MvgClassifier MvgClassifier::LoadBinaryView(const void* data, size_t size) {
  return DecodeOpened(OpenModelBuffer(data, size, true,
                                      /*verify_payload_crc=*/false),
                      /*zero_copy=*/true);
}

void SaveModel(const MvgClassifier& model, std::ostream& os) {
  model.SaveBinary(os);
}

void SaveModel(const MvgClassifier& model, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    throw std::runtime_error("SaveModel: cannot open " + path +
                             " for writing");
  }
  model.SaveBinary(os);
  os.flush();
  if (!os) {
    throw std::runtime_error("SaveModel: write failed: " + path);
  }
}

void SaveModelV2(const MvgClassifier& model, std::ostream& os) {
  model.SaveBinaryV2(os);
}

void SaveModelV2(const MvgClassifier& model, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    throw std::runtime_error("SaveModelV2: cannot open " + path +
                             " for writing");
  }
  model.SaveBinaryV2(os);
  os.flush();
  if (!os) {
    throw std::runtime_error("SaveModelV2: write failed: " + path);
  }
}

MvgClassifier LoadModel(std::istream& is) {
  return MvgClassifier::LoadBinary(is);
}

MvgClassifier LoadModel(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw std::runtime_error("LoadModel: cannot open " + path);
  }
  return MvgClassifier::LoadBinary(is);
}

MvgClassifier LoadModelView(const void* data, size_t size,
                            ModelVerify verify) {
  return DecodeOpened(
      OpenModelBuffer(data, size, /*zero_copy=*/true,
                      /*verify_payload_crc=*/verify == ModelVerify::kFull),
      /*zero_copy=*/true);
}

uint32_t PeekModelVersion(std::istream& is) {
  char head[sizeof(kModelMagic) + 4];
  is.read(head, sizeof(head));
  if (is.gcount() != static_cast<std::streamsize>(sizeof(head))) {
    throw SerializationError("model file: truncated header");
  }
  return CheckMagicReadVersion(head, sizeof(head));
}

uint32_t PeekModelVersion(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw std::runtime_error("PeekModelVersion: cannot open " + path);
  }
  return PeekModelVersion(is);
}

}  // namespace mvg
