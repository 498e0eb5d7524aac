// Tests for the JSRM v4 model artifact, the only model format: the trainer
// must emit byte-identical artifacts at any parallel width; JsRevealer and a
// mapped ModelView of its artifact must reproduce the outputs pinned from
// the former heap inference path over the whole obfuscated evaluation grid;
// and malformed artifacts must fail with ser::ModelFormatError — never a
// crash or a silently different verdict. Edits that are resealed (payload
// and header checksums recomputed) must still be rejected when they put an
// index out of range.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/jsrevealer.h"
#include "core/model_view.h"
#include "dataset/generator.h"
#include "obfuscators/obfuscator.h"
#include "util/hash.h"
#include "util/serialize.h"
#include "util/thread_pool.h"

namespace jsrev {
namespace {

core::Config small_config(std::size_t threads) {
  core::Config cfg;
  cfg.seed = 91;
  cfg.threads = threads;
  cfg.embed_epochs = 4;
  cfg.cluster_sample_per_class = 400;
  return cfg;
}

dataset::Corpus train_corpus() {
  dataset::GeneratorConfig gc;
  gc.seed = 91;
  gc.benign_count = 40;
  gc.malicious_count = 40;
  return dataset::generate_corpus(gc);
}

/// >= 200 generator scripts, each additionally pushed through all four
/// obfuscator models — the robustness grid the paper evaluates against.
std::vector<std::string> evaluation_scripts() {
  dataset::GeneratorConfig gc;
  gc.seed = 1907;
  gc.benign_count = 100;
  gc.malicious_count = 100;
  const dataset::Corpus corpus = dataset::generate_corpus(gc);
  std::vector<std::string> scripts;
  scripts.reserve(corpus.samples.size() * 5);
  for (const auto& s : corpus.samples) scripts.push_back(s.source);
  for (const obf::ObfuscatorKind kind : obf::kAllObfuscators) {
    const auto ob = obf::make_obfuscator(kind);
    for (std::size_t i = 0; i < corpus.samples.size(); ++i) {
      scripts.push_back(ob->obfuscate(corpus.samples[i].source, 7000 + i));
    }
  }
  return scripts;
}

// Outputs of the heap inference path JsRevealer ran before it forwarded to
// its own ModelView, over evaluation_scripts() for small_config() trained on
// train_corpus(): the verdict of each script ('0' benign, '1' malicious), and
// FNV-1a digests (see digests()) of the featurize() vectors and of each
// provenance record's cluster attention and outside-cluster path count.
constexpr std::string_view kPinnedVerdicts =
    "0000100010000000001100000010000100000000000000000000000100000000"
    "0000001000000000000000000001000000001111101111111111111111111111"
    "1111110111011111111111110111111111111111101111110111111111111111"
    "1011111100011001110010000011000101101001000001001010000001000001"
    "0000101000000011000010011111100000110001100111111011111011111111"
    "1111111111111101110111111111111101111111111111111111111101111111"
    "1111110110111111000010001100100100111000001010010001010010010000"
    "0000000100000010001000111001000000000000000100000000111100111110"
    "1111111111111111110111011111111111111111011111111111111110111111"
    "0111111111111111111111110000100011000001001100100010000100000000"
    "0001000000001001000000000000001110010000000000000001100000011111"
    "1111110111011111111011111111110111011111111111110111011111111111"
    "1011111101111111011111010011111100001000100000000011000000100001"
    "0000000000000000000000010000000000000010000000000000000000010000"
    "0000111110111111111111111111111111111101110111111111111101111111"
    "1111111110111111011111111111111110111111";
constexpr std::uint64_t kPinnedFeaturizeDigest = 0x6dd36e47d61b76a5ULL;
constexpr std::uint64_t kPinnedProvenanceDigest = 0x4a177a73e2e96570ULL;
// FNV-1a of save_artifact() for small_config() trained on train_corpus(),
// pinned from the all-pairs path extractor: training must intern the same
// paths in the same order at every width, not merely agree across widths.
constexpr std::uint64_t kPinnedArtifactDigest = 0x90b2373a9cec7273ULL;

std::string verdict_string(const std::vector<int>& verdicts) {
  std::string out;
  for (const int v : verdicts) out.push_back(static_cast<char>('0' + v));
  return out;
}

template <typename T>
std::uint64_t fold(std::uint64_t h, const T& v) {
  return fnv1a64_step(
      h, std::string_view(reinterpret_cast<const char*>(&v), sizeof(T)));
}

struct Digests {
  std::uint64_t featurize = fnv1a64_begin();
  std::uint64_t provenance = fnv1a64_begin();
};

/// Digests of `det`'s featurize() over `scripts`, with provenance capture on
/// (featurize fills the record's cluster fields): computed in parallel,
/// folded in script order.
template <typename Detector>
Digests digests(const Detector& det, const std::vector<std::string>& scripts) {
  std::vector<std::vector<double>> features(scripts.size());
  std::vector<obs::VerdictProvenance> records(scripts.size());
  parallel_for_threads(0, scripts.size(), [&](std::size_t i) {
    analysis::ScriptAnalysis analysis(scripts[i], {}, /*deobfuscate=*/false);
    analysis.enable_provenance();
    features[i] = det.featurize(analysis);
    records[i] = *analysis.provenance();
  });
  Digests d;
  for (std::size_t i = 0; i < scripts.size(); ++i) {
    d.featurize = fnv1a64_step(
        d.featurize,
        std::string_view(reinterpret_cast<const char*>(features[i].data()),
                         features[i].size() * sizeof(double)));
    for (const obs::ClusterAttention& ca : records[i].cluster_attention) {
      d.provenance = fold(d.provenance, std::int32_t{ca.feature_index});
      d.provenance =
          fold(d.provenance, static_cast<std::uint8_t>(ca.from_benign));
      d.provenance = fold(d.provenance, ca.mass);
    }
    d.provenance = fold(
        d.provenance,
        static_cast<std::uint64_t>(records[i].paths_outside_clusters));
  }
  return d;
}

class ArtifactFixture : public ::testing::Test {
 protected:
  static constexpr std::size_t kWidths[] = {1, 2, 8};

  static void SetUpTestSuite() {
    for (std::size_t w = 0; w < 3; ++w) {
      trainers_[w] = new core::JsRevealer(small_config(kWidths[w]));
      trainers_[w]->train(train_corpus());
    }
    trainer_ = trainers_[1];
    artifact_ = new std::vector<std::uint8_t>(trainer_->save_artifact());
    view_ = new core::ModelView();
    view_->from_buffer(*artifact_);
  }

  static void TearDownTestSuite() {
    delete view_;
    delete artifact_;
    for (core::JsRevealer*& t : trainers_) {
      delete t;
      t = nullptr;
    }
    view_ = nullptr;
    artifact_ = nullptr;
    trainer_ = nullptr;
  }

  static core::JsRevealer* trainers_[3];  // trained at kWidths
  static core::JsRevealer* trainer_;      // the width-2 trainer
  static std::vector<std::uint8_t>* artifact_;
  static core::ModelView* view_;
};

core::JsRevealer* ArtifactFixture::trainers_[3] = {};
core::JsRevealer* ArtifactFixture::trainer_ = nullptr;
std::vector<std::uint8_t>* ArtifactFixture::artifact_ = nullptr;
core::ModelView* ArtifactFixture::view_ = nullptr;

TEST_F(ArtifactFixture, ArtifactBytesIdenticalAcrossThreadWidths) {
  for (std::size_t w = 0; w < 3; ++w) {
    EXPECT_EQ(trainers_[w]->save_artifact(), *artifact_)
        << "threads=" << kWidths[w];
  }
}

TEST_F(ArtifactFixture, ArtifactBytesMatchPinnedDigest) {
  EXPECT_EQ(fnv1a64(std::string_view(
                reinterpret_cast<const char*>(artifact_->data()),
                artifact_->size())),
            kPinnedArtifactDigest);
}

TEST_F(ArtifactFixture, SaveArtifactIsDeterministic) {
  EXPECT_EQ(trainer_->save_artifact(), *artifact_);
}

TEST_F(ArtifactFixture, VerdictsMatchPinnedHeapPathAtEveryWidth) {
  const std::vector<std::string> scripts = evaluation_scripts();
  ASSERT_EQ(scripts.size(), kPinnedVerdicts.size());
  // Six independent passes — each width's trainer and a mapped view of its
  // artifact — run side by side so the width-1 passes do not serialize.
  core::ModelView mapped[3];
  std::vector<std::future<std::string>> passes;
  for (std::size_t w = 0; w < 3; ++w) {
    const std::string path =
        "artifact_test_w" + std::to_string(kWidths[w]) + ".jsrm";
    trainers_[w]->save_artifact_file(path);
    mapped[w].map_file(path);
    mapped[w].set_threads(kWidths[w]);
    std::remove(path.c_str());  // the mapping keeps the bytes
    passes.push_back(std::async(std::launch::async, [&, w] {
      return verdict_string(trainers_[w]->classify_all(scripts));
    }));
    passes.push_back(std::async(std::launch::async, [&, w] {
      return verdict_string(mapped[w].classify_all(scripts));
    }));
  }
  for (std::size_t k = 0; k < passes.size(); ++k) {
    EXPECT_EQ(passes[k].get(), kPinnedVerdicts)
        << (k % 2 == 0 ? "JsRevealer" : "mapped view")
        << ", threads=" << kWidths[k / 2];
  }
}

TEST_F(ArtifactFixture, FeaturesAndProvenanceMatchPinnedHeapPath) {
  const std::vector<std::string> scripts = evaluation_scripts();
  const Digests trained = digests(*trainer_, scripts);
  EXPECT_EQ(trained.featurize, kPinnedFeaturizeDigest);
  EXPECT_EQ(trained.provenance, kPinnedProvenanceDigest);

  const std::string path = "artifact_test_digests.jsrm";
  trainer_->save_artifact_file(path);
  core::ModelView mapped;
  mapped.map_file(path);
  const Digests viewed = digests(mapped, scripts);
  EXPECT_EQ(viewed.featurize, kPinnedFeaturizeDigest);
  EXPECT_EQ(viewed.provenance, kPinnedProvenanceDigest);
  std::remove(path.c_str());
}

TEST_F(ArtifactFixture, MapFileMatchesFromBuffer) {
  const std::string path = "artifact_test_map.jsrm";
  trainer_->save_artifact_file(path);
  core::ModelView mapped;
  mapped.map_file(path);
  EXPECT_EQ(mapped.feature_count(), view_->feature_count());
  EXPECT_EQ(mapped.vocab_size(), view_->vocab_size());
  const std::vector<std::string> scripts = evaluation_scripts();
  for (std::size_t i = 0; i < scripts.size(); i += 101) {
    EXPECT_EQ(mapped.classify(scripts[i]), view_->classify(scripts[i]));
  }
  // Trusted warm open: skipping the checksum pass must not change behavior.
  core::ModelView trusted;
  trusted.map_file(path, /*verify_checksums=*/false);
  EXPECT_EQ(trusted.classify(scripts[0]), view_->classify(scripts[0]));
  std::remove(path.c_str());
}

TEST_F(ArtifactFixture, InfoReportsValidatedSections) {
  const core::ArtifactInfo info = view_->info();
  EXPECT_EQ(info.header.version, core::fmt::kFormatVersion);
  EXPECT_EQ(info.header.file_size, artifact_->size());
  EXPECT_EQ(info.sections.size(), std::size_t(core::fmt::kSectionCount));
  for (const core::ArtifactSectionInfo& s : info.sections) {
    EXPECT_TRUE(s.checksum_ok) << s.name;
    EXPECT_EQ(s.rec.offset % core::fmt::kSectionAlign, 0u) << s.name;
  }
}

TEST_F(ArtifactFixture, CentralPathParity) {
  const auto report = trainer_->feature_report(10);
  const std::uint32_t feature_dim = view_->info().header.feature_dim;
  for (const auto& entry : report) {
    const auto f = static_cast<std::uint32_t>(entry.feature_index);
    if (f >= feature_dim) continue;  // lint features have no central path
    EXPECT_EQ(view_->central_path(f), entry.central_path);
  }
}

TEST_F(ArtifactFixture, MappedVocabProbeTableIsConsistent) {
  const paths::PathVocabView& vocab = view_->vocab();
  ASSERT_GT(vocab.size(), 0u);
  const std::uint32_t stride = std::max<std::uint32_t>(1, vocab.size() / 256);
  for (std::uint32_t id = 0; id < vocab.size(); id += stride) {
    paths::PathContext pc;
    pc.source_value = std::string(vocab.source_value(id));
    pc.path = std::string(vocab.path_value(id));
    pc.target_value = std::string(vocab.target_value(id));
    EXPECT_EQ(vocab.lookup(pc), static_cast<std::int32_t>(id));
  }
}

TEST_F(ArtifactFixture, TruncationThrowsModelFormatError) {
  for (const std::size_t cut :
       {std::size_t(0), std::size_t(3), std::size_t(79),
        artifact_->size() / 2, artifact_->size() - 1}) {
    core::ModelView view;
    std::vector<std::uint8_t> bytes(artifact_->begin(),
                                    artifact_->begin() + cut);
    EXPECT_THROW(view.from_buffer(std::move(bytes)), ser::ModelFormatError)
        << "cut=" << cut;
  }
}

TEST_F(ArtifactFixture, PayloadBitFlipThrowsModelFormatError) {
  // Flip a byte inside each section's payload: the per-section checksum must
  // catch every one of them.
  const core::ArtifactInfo info = view_->info();
  for (const core::ArtifactSectionInfo& s : info.sections) {
    if (s.rec.size == 0) continue;
    std::vector<std::uint8_t> bytes = *artifact_;
    bytes[s.rec.offset + s.rec.size / 2] ^= 0x40;
    core::ModelView view;
    EXPECT_THROW(view.from_buffer(std::move(bytes)), ser::ModelFormatError)
        << s.name;
  }
}

TEST_F(ArtifactFixture, CorruptHeaderThrowsModelFormatError) {
  {
    std::vector<std::uint8_t> bytes = *artifact_;
    bytes[0] = 'X';  // magic
    core::ModelView view;
    EXPECT_THROW(view.from_buffer(std::move(bytes)), ser::ModelFormatError);
  }
  {
    std::vector<std::uint8_t> bytes = *artifact_;
    bytes[4] = 99;  // version
    core::ModelView view;
    EXPECT_THROW(view.from_buffer(std::move(bytes)), ser::ModelFormatError);
  }
}

TEST_F(ArtifactFixture, FormatErrorCarriesSectionAndOffset) {
  std::vector<std::uint8_t> bytes = *artifact_;
  const core::ArtifactInfo info = view_->info();
  const auto& first = info.sections.front();
  bytes[first.rec.offset] ^= 0x01;
  core::ModelView view;
  try {
    view.from_buffer(std::move(bytes));
    FAIL() << "corrupt artifact attached";
  } catch (const ser::ModelFormatError& e) {
    EXPECT_EQ(e.section(), first.name);
    EXPECT_NE(std::string(e.what()).find(first.name), std::string::npos);
  }
}

TEST_F(ArtifactFixture, HeaderAndSectionTableBitFlipsThrowModelFormatError) {
  // The header seal covers every header and section-table byte, including
  // the flags and path bounds that no payload checksum covers. The trusted
  // open checks it too.
  const std::size_t sealed = sizeof(core::fmt::ArtifactHeader) +
                             core::fmt::kSectionCount *
                                 sizeof(core::fmt::SectionRec);
  std::size_t attached = 0;
  std::size_t first_bit = 0;
  for (std::size_t bit = 0; bit < sealed * 8; ++bit) {
    std::vector<std::uint8_t> bytes = *artifact_;
    bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    core::ModelView view;
    try {
      view.from_buffer(std::move(bytes), /*verify_checksums=*/false);
      if (attached++ == 0) first_bit = bit;
    } catch (const ser::ModelFormatError&) {
    }
  }
  EXPECT_EQ(attached, 0u) << "first at byte " << first_bit / 8 << " bit "
                          << first_bit % 8;
}

/// Section `id`'s table row in the artifact `view` is attached to.
core::fmt::SectionRec section(const core::ModelView& view,
                              core::fmt::SectionId id) {
  return view.info().sections[static_cast<std::size_t>(id) - 1].rec;
}

/// Rewrites record `i` of the section `rec` locates in `bytes` through
/// `edit`.
template <typename T, typename Edit>
void edit_record(std::vector<std::uint8_t>& bytes,
                 const core::fmt::SectionRec& rec, std::size_t i, Edit edit) {
  std::uint8_t* at = bytes.data() + rec.offset + i * sizeof(T);
  T r;
  std::memcpy(&r, at, sizeof(T));
  edit(r);
  std::memcpy(at, &r, sizeof(T));
}

/// Reseals `bytes` and reports whether a trusted and a verified attach
/// accept it (both must agree).
bool reseal_and_attach(std::vector<std::uint8_t> bytes) {
  core::fmt::seal(bytes.data());
  bool accepted[2] = {true, true};
  for (const bool verify : {false, true}) {
    core::ModelView view;
    try {
      view.from_buffer(bytes, verify);
    } catch (const ser::ModelFormatError&) {
      accepted[verify] = false;
    }
  }
  EXPECT_EQ(accepted[0], accepted[1]);
  return accepted[1];
}

TEST_F(ArtifactFixture, ResealedUnknownFlagOrReservedFieldIsRejected) {
  ASSERT_TRUE(reseal_and_attach(*artifact_));  // control: sealing is exact
  core::fmt::ArtifactHeader hdr;
  std::memcpy(&hdr, artifact_->data(), sizeof(hdr));
  for (int field = 0; field < 2; ++field) {
    core::fmt::ArtifactHeader bad = hdr;
    if (field == 0) bad.flags |= 1u << 3;
    if (field == 1) bad.reserved0 = 1;
    std::vector<std::uint8_t> bytes = *artifact_;
    std::memcpy(bytes.data(), &bad, sizeof(bad));
    EXPECT_FALSE(reseal_and_attach(std::move(bytes))) << "field " << field;
  }
}

TEST_F(ArtifactFixture, ResealedPathWindowBeyondBoundsIsRejected) {
  // Up and down step counts are bytes, and the enumeration adds the width
  // to a 32-bit slot index: a window past either bound cannot be served.
  struct Window {
    std::uint32_t length;
    std::uint32_t width;
    std::size_t bad_field;  // header offset of the rejected field, or 0
  };
  constexpr std::size_t kLength =
      offsetof(core::fmt::ArtifactHeader, path_max_length);
  constexpr std::size_t kWidth =
      offsetof(core::fmt::ArtifactHeader, path_max_width);
  for (const Window w : {Window{12, 4, 0}, Window{255, 65535, 0},
                         Window{256, 4, kLength}, Window{0xFFFFFFFFu, 4, kLength},
                         Window{12, 65536, kWidth},
                         Window{12, 0x80000000u, kWidth}}) {
    core::fmt::ArtifactHeader hdr;
    std::memcpy(&hdr, artifact_->data(), sizeof(hdr));
    hdr.path_max_length = w.length;
    hdr.path_max_width = w.width;
    std::vector<std::uint8_t> bytes = *artifact_;
    std::memcpy(bytes.data(), &hdr, sizeof(hdr));
    EXPECT_EQ(reseal_and_attach(bytes), w.bad_field == 0)
        << w.length << "/" << w.width;
    if (w.bad_field == 0) continue;
    core::fmt::seal(bytes.data());
    core::ModelView view;
    try {
      view.from_buffer(std::move(bytes));
      ADD_FAILURE() << "attached " << w.length << "/" << w.width;
    } catch (const ser::ModelFormatError& e) {
      EXPECT_EQ(e.section(), "header");
      EXPECT_EQ(e.offset(), w.bad_field);
    }
  }
}

TEST_F(ArtifactFixture, ResealedFullProbeTableIsRejected) {
  // With no empty probe slot, a lookup of an unknown path would never end.
  const core::fmt::SectionRec slots =
      section(*view_, core::fmt::SectionId::kVocabTable);
  const std::size_t n_slots = slots.size / sizeof(std::uint32_t);
  ASSERT_GT(n_slots, view_->vocab_size());
  std::vector<std::uint8_t> bytes = *artifact_;
  for (std::size_t s = 0; s < n_slots; ++s) {
    edit_record<std::uint32_t>(bytes, slots, s, [](std::uint32_t& slot) {
      if (slot == 0) slot = 1;
    });
  }
  EXPECT_FALSE(reseal_and_attach(std::move(bytes)));
}

TEST_F(ArtifactFixture, ResealedOutOfRangePathRecordIsRejected) {
  const core::fmt::SectionRec table =
      section(*view_, core::fmt::SectionId::kPathTable);
  ASSERT_EQ(table.size / sizeof(ml::PathTableRec), view_->vocab_size());
  const std::int32_t feature_dim =
      static_cast<std::int32_t>(view_->info().header.feature_dim);
  ASSERT_GT(feature_dim, 0);
  struct Edit {
    std::int32_t cluster;
    std::uint32_t pad;
    bool valid;
  };
  for (const Edit edit : {Edit{-1, 0, true}, Edit{feature_dim - 1, 0, true},
                          Edit{feature_dim, 0, false}, Edit{-2, 0, false},
                          Edit{0, 1, false}}) {
    std::vector<std::uint8_t> bytes = *artifact_;
    edit_record<ml::PathTableRec>(bytes, table, view_->vocab_size() / 2,
                                  [edit](ml::PathTableRec& r) {
                                    r.cluster = edit.cluster;
                                    r.pad = edit.pad;
                                  });
    EXPECT_EQ(reseal_and_attach(std::move(bytes)), edit.valid)
        << "cluster " << edit.cluster << " pad " << edit.pad;
  }
}

TEST_F(ArtifactFixture, ResealedForestCycleIsRejected) {
  // A child index at or before its node could loop the forest walk.
  const core::fmt::SectionRec nodes =
      section(*view_, core::fmt::SectionId::kForestNodes);
  ASSERT_GT(nodes.size, 0u);
  std::vector<std::uint8_t> bytes = *artifact_;
  edit_record<ml::ForestNodeRec>(bytes, nodes, 0, [](ml::ForestNodeRec& n) {
    ASSERT_GE(n.feature, 0);  // the first tree's root splits
    n.right = 0;
  });
  EXPECT_FALSE(reseal_and_attach(std::move(bytes)));
}

// FNV-1a of save_artifact() for a deob + lint-feature model in the serving
// benchmark's large-file configuration (perfbench/workloads.cpp: seed 2023,
// 30 generator scripts per class, Config defaults otherwise), pinned before
// the deobfuscator memoized its scope analysis. Training normalizes every
// script through the pipeline, so the artifact covers its output.
constexpr std::uint64_t kPinnedDeobLintArtifactDigest = 0xde29397acdbe438bULL;

TEST(DeobLintArtifact, BytesMatchPinnedDigestAtEveryWidth) {
  dataset::GeneratorConfig gc;
  gc.seed = 2023;
  gc.benign_count = 30;
  gc.malicious_count = 30;
  const dataset::Corpus train = dataset::generate_corpus(gc);
  for (const std::size_t threads : {1, 2, 8}) {
    core::Config cfg;
    cfg.seed = 2023;
    cfg.threads = threads;
    cfg.deobfuscate = true;
    cfg.lint_features = true;
    core::JsRevealer detector(cfg);
    detector.train(train);
    const std::vector<std::uint8_t> bytes = detector.save_artifact();
    const std::uint64_t digest = fnv1a64(std::string_view(
        reinterpret_cast<const char*>(bytes.data()), bytes.size()));
    EXPECT_EQ(digest, kPinnedDeobLintArtifactDigest)
        << "threads=" << threads << std::hex << " digest=0x" << digest;
  }
}

TEST(ModelViewApi, UnloadedViewIsSafe) {
  core::ModelView view;
  EXPECT_FALSE(view.loaded());
  EXPECT_EQ(view.classify("var x = 1;"), 1);  // fail-closed convention
}

TEST(ModelViewApi, TrainThrowsLogicError) {
  core::ModelView view;
  EXPECT_THROW(view.train(train_corpus()), std::logic_error);
}

TEST(ModelViewApi, UntrainedSaveArtifactThrows) {
  core::JsRevealer det(core::Config{});
  EXPECT_THROW(det.save_artifact(), std::logic_error);
}

TEST(ModelViewApi, MissingFileThrows) {
  core::ModelView view;
  EXPECT_THROW(view.map_file("/tmp/jsrev_no_such_artifact.jsrm"),
               std::exception);
}

}  // namespace
}  // namespace jsrev
