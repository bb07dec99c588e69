// Protocol + service tier for src/serve (DESIGN.md §12, docs/SERVING.md).
//
// Covers: frame round-trips under pathological chunking, strict decoder
// rejection of malformed streams, job-spec serialization round-trips,
// queue-full backpressure, graceful shutdown draining, mid-flight
// cancellation, and the headline contract — a job served over the wire is
// byte-identical to the batch CLI run of the same spec, for any
// CRS_THREADS and any shard count.
#include <gtest/gtest.h>

#include <unistd.h>

#include <climits>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/corpus.hpp"
#include "core/job.hpp"
#include "core/report.hpp"
#include "harden/config.hpp"
#include "mitigate/config.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/socket.hpp"

namespace crs {
namespace {

using serve::Client;
using serve::Frame;
using serve::FrameDecoder;
using serve::FrameType;
using serve::ServeConfig;
using serve::Server;

core::JobSpec scenario_spec(std::uint64_t id, int attempts = 1) {
  core::JobSpec spec;
  spec.kind = core::JobKind::kScenario;
  spec.id = id;
  spec.scenario.config.rop_injected = false;
  spec.scenario.config.host_scale = 900;
  spec.scenario.config.secret = "WIRE";
  spec.scenario.config.seed = 7;
  spec.scenario.attempts = attempts;
  return spec;
}

core::JobSpec campaign_spec(std::uint64_t id) {
  core::JobSpec spec;
  spec.kind = core::JobKind::kCampaign;
  spec.id = id;
  spec.campaign.config.scenario.rop_injected = false;
  spec.campaign.config.scenario.host_scale = 700;
  spec.campaign.config.scenario.secret = "CAMP";
  spec.campaign.config.attempts = 4;
  spec.campaign.config.seed = 11;
  spec.campaign.corpus_windows = 12;
  spec.campaign.corpus_seed = 3;
  return spec;
}

core::JobSpec matrix_spec(std::uint64_t id) {
  core::JobSpec spec;
  spec.kind = core::JobKind::kMatrix;
  spec.id = id;
  spec.matrix.config.quick = true;
  spec.matrix.config.presets = {"none", "slh"};
  spec.matrix.config.host_scale = 1200;
  spec.matrix.config.corpus_windows = 16;
  return spec;
}

core::JobSpec program_spec(std::uint64_t id) {
  core::JobSpec spec;
  spec.kind = core::JobKind::kProgram;
  spec.id = id;
  spec.program.source =
      "main:\n"
      "  movi r1, 41\n"
      "  addi r1, r1, 1\n"
      "  call exit_\n";
  return spec;
}

// The specs pinned in tests/golden/job/: every key of its kind at a
// non-default value.
core::ScenarioConfig golden_scenario_config() {
  core::ScenarioConfig c;
  c.host = "susan";
  c.host_scale = 4321;
  c.secret = "GOLDEN-SECRET";
  c.variant = attack::SpectreVariant::kRsb;
  c.rop_injected = false;
  c.perturb = true;
  c.perturb_params.a = -7;
  c.perturb_params.b = 9;
  c.perturb_params.loop_count = 12;
  c.perturb_params.a_step = 35;
  c.perturb_params.b_step = 4;
  c.perturb_params.extra_ladders = 2;
  c.perturb_params.delay = 150;
  c.perturb_params.style = perturb::MimicStyle::kStrided;
  c.perturb_params.flushless = true;
  c.canary = true;
  c.aslr = true;
  c.harden = harden::HardenConfig::parse("aslr,heap-guard");
  c.leak_stage = true;
  c.spectre11 = true;
  c.mitigations = mitigate::MitigationConfig::parse("slh,retpoline");
  c.seed = 18446744073709551615ull;
  c.profiler.window_cycles = 30000;
  c.profiler.max_windows = 4096;
  c.profiler.max_instructions = 123456789;
  c.profiler.noise_sigma = 0.1 + 0.2;
  c.profiler.background_intensity = 2.5e-7;
  c.profiler.noise_seed = 42;
  c.mined_attack_source =
      "; mined replay\nmain:\n  movi r1, 3\nseed=9\n  call exit_\n";
  return c;
}

core::JobSpec golden_job(core::JobKind kind) {
  core::JobSpec spec;
  spec.kind = kind;
  switch (kind) {
    case core::JobKind::kScenario:
      spec.id = 101;
      spec.scenario.config = golden_scenario_config();
      spec.scenario.attempts = 3;
      break;
    case core::JobKind::kCampaign: {
      spec.id = 102;
      core::CampaignConfig& c = spec.campaign.config;
      c.scenario = golden_scenario_config();
      c.scenario.seed = 77;
      c.attempts = 7;
      c.online_hid = true;
      c.dynamic_perturbation = true;
      c.detect_threshold = 0.9;
      c.evade_threshold = 1.0 / 3.0;
      c.seed = 6;
      c.detector.classifier = "LR";
      c.detector.feature_count = 6;
      c.detector.seed = 13;
      spec.campaign.corpus_windows = 48;
      spec.campaign.corpus_seed = 5;
      break;
    }
    case core::JobKind::kMatrix: {
      spec.id = 103;
      core::DefenseMatrixConfig& m = spec.matrix.config;
      m.attempts = 3;
      m.seed = 29;
      m.host_scale = 4000;
      m.secret = "MX-SECRET";
      m.presets = {"slh", "none"};
      m.corpus_windows = 64;
      m.overhead_repeats = 3;
      m.quick = true;
      break;
    }
    case core::JobKind::kProgram:
      spec.id = 104;
      spec.program.max_instructions = 5000;
      spec.program.writable_text = true;
      spec.program.source =
          "; prog.source=4\nkind=matrix\nmain:\n"
          "  movi r1, 7 ; caf\xc3\xa9 \xff\x01\n  call exit_\n";
      break;
  }
  return spec;
}

std::string read_golden_job(const std::string& kind) {
  std::ifstream in(std::string(CRS_GOLDEN_DIR) + "/job/" + kind + ".job",
                   std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// parse_job must refuse `text` with a "job spec: " error that names `key`.
void expect_job_rejected(const std::string& text,
                         const std::string& key = "") {
  try {
    core::parse_job(text);
    ADD_FAILURE() << text << " accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("job spec: ", 0), 0u) << what;
    EXPECT_NE(what.find(key), std::string::npos) << what;
  }
}

// --- Protocol -------------------------------------------------------------

TEST(ServeProtocol, FrameRoundTripByteAtATime) {
  const std::string payload = "id=1\nreason=queue_full\n";
  const std::string wire = serve::encode_frame(FrameType::kRejected, payload);

  FrameDecoder dec;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    dec.feed(wire.data() + i, 1);
    EXPECT_FALSE(dec.next().has_value()) << "frame complete too early at " << i;
  }
  dec.feed(wire.data() + wire.size() - 1, 1);
  const auto frame = dec.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::kRejected);
  EXPECT_EQ(frame->payload, payload);
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(ServeProtocol, MultipleFramesOneFeed) {
  std::string wire = serve::encode_frame(FrameType::kPing, "");
  wire += serve::encode_frame(FrameType::kPong, "abc");
  wire += serve::encode_frame(FrameType::kAccepted, "id=9\n");

  FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  EXPECT_EQ(dec.next()->type, FrameType::kPing);
  EXPECT_EQ(dec.next()->payload, "abc");
  EXPECT_EQ(serve::parse_accepted(dec.next()->payload).id, 9u);
  EXPECT_FALSE(dec.next().has_value());
}

TEST(ServeProtocol, DecoderRejectsBadMagic) {
  FrameDecoder dec;
  const std::string junk = "XXXXXXXXXXXXXXXX";
  dec.feed(junk.data(), junk.size());
  EXPECT_THROW(dec.next(), Error);
}

TEST(ServeProtocol, DecoderRejectsUnknownType) {
  std::string wire = serve::encode_frame(FrameType::kPing, "");
  wire[4] = 99;
  FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  EXPECT_THROW(dec.next(), Error);
}

TEST(ServeProtocol, DecoderRejectsNonzeroReserved) {
  std::string wire = serve::encode_frame(FrameType::kPing, "");
  wire[6] = 1;
  FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  EXPECT_THROW(dec.next(), Error);
}

TEST(ServeProtocol, DecoderRejectsOversizedLength) {
  std::string wire = serve::encode_frame(FrameType::kPing, "");
  wire[8] = wire[9] = wire[10] = wire[11] = static_cast<char>(0xFF);
  FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  EXPECT_THROW(dec.next(), Error);
}

TEST(ServeProtocol, TruncatedFrameJustWaits) {
  const std::string wire = serve::encode_frame(FrameType::kPong, "payload");
  FrameDecoder dec;
  dec.feed(wire.data(), wire.size() - 3);
  EXPECT_FALSE(dec.next().has_value());  // incomplete, not an error
  dec.feed(wire.data() + wire.size() - 3, 3);
  EXPECT_EQ(dec.next()->payload, "payload");
}

TEST(ServeProtocol, ResultPayloadCarriesRawBytes) {
  serve::ResultPayload in;
  in.id = 42;
  in.status = "ok";
  // Deliberately key=value-shaped and newline-riddled: the raw body must
  // survive untouched.
  in.payload = "id=evil\nstatus=nope\n\x01\x02\xff raw";
  const serve::ResultPayload out = serve::parse_result(encode_result(in));
  EXPECT_EQ(out.id, 42u);
  EXPECT_TRUE(out.ok());
  EXPECT_EQ(out.payload, in.payload);
}

TEST(ServeProtocol, ParseResultRejectsLengthMismatch) {
  std::string wire = "id=1\nstatus=ok\nbytes=5\nabc";
  EXPECT_THROW(serve::parse_result(wire), Error);
}

// --- Job spec -------------------------------------------------------------

TEST(ServeJobSpec, SerializeParseRoundTrip) {
  for (const auto& spec :
       {scenario_spec(3, 5), campaign_spec(4), matrix_spec(5),
        program_spec(6)}) {
    const std::string text = core::serialize_job(spec);
    const core::JobSpec back = core::parse_job(text);
    EXPECT_EQ(core::serialize_job(back), text);
    EXPECT_EQ(back.id, spec.id);
    EXPECT_EQ(back.kind, spec.kind);
  }
}

TEST(ServeJobSpec, RoundTripPreservesDoubleBits) {
  core::JobSpec spec = scenario_spec(1);
  spec.scenario.config.profiler.noise_sigma = 0.1 + 0.2;  // not representable
  const core::JobSpec back = core::parse_job(core::serialize_job(spec));
  EXPECT_EQ(back.scenario.config.profiler.noise_sigma,
            spec.scenario.config.profiler.noise_sigma);
}

TEST(ServeJobSpec, ParseRejectsGarbage) {
  EXPECT_THROW(core::parse_job(""), Error);
  EXPECT_THROW(core::parse_job("not a job\n"), Error);
  EXPECT_THROW(core::parse_job("crs-job v1\nid=1\n"), Error);  // id before kind
  EXPECT_THROW(core::parse_job("crs-job v1\nkind=sandwich\n"), Error);
  EXPECT_THROW(
      core::parse_job("crs-job v1\nkind=scenario\nnonsense_key=1\n"), Error);
  EXPECT_THROW(
      core::parse_job("crs-job v1\nkind=scenario\nvariant=spectre-nope\n"),
      Error);
  EXPECT_THROW(
      core::parse_job("crs-job v1\nkind=scenario\nseed=twelve\n"), Error);
  // Truncated program source.
  EXPECT_THROW(
      core::parse_job("crs-job v1\nkind=program\nprog.source=100\nshort\n"),
      Error);
  // Non-finite doubles, which strtod accepts.
  for (const std::string head : {"crs-job v1\nkind=scenario\nprof.noise_sigma=",
                                 "crs-job v1\nkind=scenario\n"
                                 "prof.background_intensity=",
                                 "crs-job v1\nkind=campaign\n"
                                 "camp.detect_threshold=",
                                 "crs-job v1\nkind=campaign\n"
                                 "camp.evade_threshold="}) {
    for (const char* bad : {"nan", "NAN", "-nan", "inf", "-inf", "infinity",
                            "1e999"}) {
      expect_job_rejected(head + bad + "\n");
    }
    EXPECT_NO_THROW(core::parse_job(head + "0.5\n"));
  }
}

TEST(ServeJobSpec, CorpusWindowsBoundedAtParse) {
  // Corpus construction cannot be cancelled, so a spec asking for a huge
  // corpus must be refused before it reaches a shard.
  const std::string cap = std::to_string(core::kMaxJobCorpusWindows);
  const std::string over = std::to_string(core::kMaxJobCorpusWindows + 1);
  for (const std::string head :
       {"crs-job v1\nkind=campaign\ncamp.corpus_windows=",
        "crs-job v1\nkind=matrix\nmx.corpus_windows="}) {
    for (const std::string& bad : {std::string("0"), over,
                                   std::string("1000000000"),
                                   std::string("-1")}) {
      expect_job_rejected(head + bad + "\n");
    }
    EXPECT_NO_THROW(core::parse_job(head + cap + "\n"));
  }

  core::JobSpec campaign = campaign_spec(8);
  campaign.campaign.corpus_windows = core::kMaxJobCorpusWindows;
  const std::string campaign_text = core::serialize_job(campaign);
  const core::JobSpec campaign_back = core::parse_job(campaign_text);
  EXPECT_EQ(campaign_back.campaign.corpus_windows, core::kMaxJobCorpusWindows);
  EXPECT_EQ(core::serialize_job(campaign_back), campaign_text);

  core::JobSpec matrix = matrix_spec(9);
  matrix.matrix.config.corpus_windows = core::kMaxJobCorpusWindows;
  const std::string matrix_text = core::serialize_job(matrix);
  const core::JobSpec matrix_back = core::parse_job(matrix_text);
  EXPECT_EQ(matrix_back.matrix.config.corpus_windows,
            core::kMaxJobCorpusWindows);
  EXPECT_EQ(core::serialize_job(matrix_back), matrix_text);
}

TEST(ServeJobSpec, MatrixAttemptsAndRepeatsBoundedAtParse) {
  // A matrix job cannot be cancelled mid-sweep, so per-cell attempts and
  // overhead repeats are capped at parse like the corpus size.
  const std::pair<std::string, int> fields[] = {
      {"mx.attempts=", core::kMaxJobMatrixAttempts},
      {"mx.overhead_repeats=", core::kMaxJobOverheadRepeats}};
  for (const auto& [key, cap] : fields) {
    const std::string head = "crs-job v1\nkind=matrix\n" + key;
    for (const std::string& bad :
         {std::string("0"), std::string("-1"), std::to_string(cap + 1),
          std::string("1000000000"), std::string("4294967298")}) {
      expect_job_rejected(head + bad + "\n");
    }
    EXPECT_NO_THROW(core::parse_job(head + std::to_string(cap) + "\n"));
  }

  core::JobSpec matrix = matrix_spec(9);
  matrix.matrix.config.attempts = core::kMaxJobMatrixAttempts;
  matrix.matrix.config.overhead_repeats = core::kMaxJobOverheadRepeats;
  const std::string text = core::serialize_job(matrix);
  const core::JobSpec back = core::parse_job(text);
  EXPECT_EQ(back.matrix.config.attempts, core::kMaxJobMatrixAttempts);
  EXPECT_EQ(back.matrix.config.overhead_repeats, core::kMaxJobOverheadRepeats);
  EXPECT_EQ(core::serialize_job(back), text);
}

TEST(ServeJobSpec, AttemptsBoundedAtParse) {
  // Every attempt of a scenario or campaign job leaves a payload row or a
  // record until the job ends, so a huge count is refused before it
  // reaches a shard.
  for (const std::string head :
       {"crs-job v1\nkind=scenario\nattempts=",
        "crs-job v1\nkind=campaign\ncamp.attempts="}) {
    for (const std::string& bad :
         {std::to_string(core::kMaxJobAttempts + 1),
          std::string("2147483647")}) {
      expect_job_rejected(head + bad + "\n");
    }
    EXPECT_NO_THROW(
        core::parse_job(head + std::to_string(core::kMaxJobAttempts) + "\n"));
  }
  // Counts below 1 keep their meaning: a scenario job runs one attempt.
  EXPECT_EQ(core::parse_job("crs-job v1\nkind=scenario\nattempts=0\n")
                .scenario.attempts,
            0);
  const core::JobSpec spec = scenario_spec(1, core::kMaxJobAttempts);
  EXPECT_EQ(core::parse_job(core::serialize_job(spec)).scenario.attempts,
            core::kMaxJobAttempts);
}

TEST(ServeJobSpec, LargestScenarioJobCancelsAfterItsFirstSharedRun) {
  // The job lists one shared run's worth of seeds at a time, so the
  // largest job it accepts starts at once, reports progress after its
  // first run and stops there when cancelled.
  const core::JobSpec spec = scenario_spec(1, core::kMaxJobAttempts);
  int reports = 0;
  core::JobProgress first;
  const core::JobOutcome out =
      core::run_job(spec, [&](const core::JobProgress& p) {
        if (reports++ == 0) first = p;
        return false;
      });
  EXPECT_TRUE(out.cancelled);
  EXPECT_TRUE(out.payload.empty());
  EXPECT_EQ(reports, 1);
  EXPECT_EQ(first.total, static_cast<std::uint64_t>(core::kMaxJobAttempts));
  EXPECT_GE(first.done, 1u);
  EXPECT_LE(first.done, core::ScenarioSession::kMaxSharedAttempts);
}

TEST(ServeJobSpec, IntFieldsRejectValuesOutsideIntRange) {
  // Narrowing 4294967298 to 2 would run a different job from the one sent.
  for (const std::string line :
       {"kind=scenario\nattempts=4294967298",
        "kind=scenario\np.delay=2147483648", "kind=scenario\np.a=-2147483649",
        "kind=campaign\ncamp.attempts=4294967297",
        "kind=scenario\np.b=99999999999999999999"}) {
    expect_job_rejected("crs-job v1\n" + line + "\n");
  }
  const core::JobSpec edge = core::parse_job(
      "crs-job v1\nkind=scenario\np.delay=2147483647\np.a=-2147483648\n");
  EXPECT_EQ(edge.scenario.config.perturb_params.delay, INT_MAX);
  EXPECT_EQ(edge.scenario.config.perturb_params.a, INT_MIN);
}

TEST(ServeJobSpec, UnsignedFieldsRejectSignAndOverflow) {
  // A sign or an overflow on an unsigned key once wrapped or clamped to
  // 2^64-1, so seed=-1 and seed=99999999999999999999999 both ran the job
  // of seed=18446744073709551615.
  const std::vector<std::vector<std::string>> cases = {
      {"scenario", "seed", "-1"},
      {"scenario", "seed", "99999999999999999999999"},
      {"scenario", "host_scale", "-5"},
      {"matrix", "mx.seed", "-1"},
      {"campaign", "camp.corpus_seed", "18446744073709551616"},
      {"scenario", "id", "-1"}};
  for (const auto& c : cases) {
    expect_job_rejected(
        "crs-job v1\nkind=" + c[0] + "\n" + c[1] + "=" + c[2] + "\n", c[1]);
  }
  EXPECT_EQ(core::parse_job("crs-job v1\nkind=scenario\n"
                            "seed=18446744073709551615\n")
                .scenario.config.seed,
            std::numeric_limits<std::uint64_t>::max());
}

TEST(ServeJobSpec, SerializedSpecsMatchGolden) {
  // The wire bytes of every key, pinned before the field table replaced
  // the hand-written serializer and parser.
  for (const auto kind : {core::JobKind::kScenario, core::JobKind::kCampaign,
                          core::JobKind::kMatrix, core::JobKind::kProgram}) {
    const std::string golden = read_golden_job(core::job_kind_name(kind));
    ASSERT_FALSE(golden.empty()) << core::job_kind_name(kind);
    EXPECT_EQ(core::serialize_job(golden_job(kind)), golden);
    EXPECT_EQ(core::serialize_job(core::parse_job(golden)), golden);
  }
}

void expect_serialize_refused(const core::JobSpec& spec,
                              const std::string& key) {
  try {
    core::serialize_job(spec);
    ADD_FAILURE() << key << " serialized";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("job spec: " + key + ":", 0), 0u) << what;
  }
}

TEST(ServeJobSpec, SerializeRefusesNewlineInLineValue) {
  // Written verbatim, secret="AB\nseed=5" read back as secret=AB: the
  // newline ended the line and the later seed= line won.
  core::JobSpec spec = scenario_spec(1);
  spec.scenario.config.secret = "AB\nseed=5";
  expect_serialize_refused(spec, "secret");
  core::JobSpec matrix = matrix_spec(2);
  matrix.matrix.config.secret = "MX\n";
  expect_serialize_refused(matrix, "mx.secret");
  core::JobSpec campaign = campaign_spec(3);
  campaign.campaign.config.detector.classifier = "\nLR";
  expect_serialize_refused(campaign, "det.classifier");
}

TEST(ServeJobSpec, SerializeRefusesEmptyOrCommaListItem) {
  // {""} once wrote `mx.presets=`, which reads back as the empty list:
  // every preset.
  core::JobSpec spec = matrix_spec(1);
  for (const std::vector<std::string>& presets :
       {std::vector<std::string>{""}, {"slh", ""}, {"", "none"},
        {"slh,none"}}) {
    spec.matrix.config.presets = presets;
    expect_serialize_refused(spec, "mx.presets");
  }
  spec.matrix.config.presets = {"slh", "none"};
  EXPECT_EQ(core::parse_job(core::serialize_job(spec)).matrix.config.presets,
            spec.matrix.config.presets);
}

TEST(ServeJobSpec, ParseRefusesEmptyListItem) {
  // `mx.presets=slh,,none` once parsed, and the run then failed with
  // "unknown mitigation preset ''".
  core::JobSpec spec = matrix_spec(1);
  spec.matrix.config.presets = {"slh", "none"};
  const std::string text = core::serialize_job(spec);
  const std::string line = "mx.presets=slh,none\n";
  const std::size_t at = text.find(line);
  ASSERT_NE(at, std::string::npos) << text;
  for (const char* presets : {"slh,,none", ",slh", "slh,", ","}) {
    std::string bad = text;
    bad.replace(at, line.size(), "mx.presets=" + std::string(presets) + "\n");
    expect_job_rejected(bad, "mx.presets: list item '' is empty or holds ','");
  }
}

TEST(ServeJobSpec, MutatedSpecsAreRejectedOrRoundTrip) {
  // Reject-or-round-trip: a mutated spec either throws crs::Error or parses
  // to a spec whose text reads back to the same text. Any other exception
  // fails the test.
  std::vector<std::string> seeds;
  for (const char* kind : {"scenario", "campaign", "matrix", "program"}) {
    seeds.push_back(read_golden_job(kind));
    ASSERT_FALSE(seeds.back().empty()) << kind;
  }
  const std::vector<std::string> inserts = {
      "-1", "18446744073709551616", "nan", "=", "\n", "prog.source="};
  Rng rng(2030);
  int refused = 0;
  int accepted = 0;
  for (int i = 0; i < 20'000; ++i) {
    std::string text = seeds[rng.next_below(seeds.size())];
    for (std::uint64_t edits = 1 + rng.next_below(3); edits > 0; --edits) {
      const std::size_t at = rng.next_below(text.size());
      switch (rng.next_below(4)) {
        case 0:  // flip one bit of a byte
          text[at] = static_cast<char>(text[at] ^ (1 << rng.next_below(8)));
          break;
        case 1:  // delete a run
          text.erase(at, 1 + rng.next_below(8));
          break;
        case 2:  // duplicate a run
          text.insert(at, text.substr(at, 1 + rng.next_below(16)));
          break;
        default: {
          std::string insert = inserts[rng.next_below(inserts.size())];
          if (insert == "prog.source=") {
            insert += std::to_string(rng.next_below(40)) + "\n";
          }
          text.insert(at, insert);
        }
      }
      if (text.empty()) text = "\n";
    }
    std::string once;
    try {
      once = core::serialize_job(core::parse_job(text));
    } catch (const Error&) {
      ++refused;
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutation " << i << " threw " << e.what() << "\n"
                    << text;
      continue;
    }
    ++accepted;
    try {
      EXPECT_EQ(core::serialize_job(core::parse_job(once)), once)
          << "mutation " << i << ":\n" << text;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutation " << i << " re-parse threw " << e.what()
                    << "\n" << once;
    }
  }
  EXPECT_GT(refused, 0);
  EXPECT_GT(accepted, 0);
}

TEST(ServeJobSpec, AffinityKeyGroupsByConfig) {
  const core::JobSpec a = scenario_spec(1);
  core::JobSpec b = scenario_spec(2);  // same config, different id
  EXPECT_EQ(core::job_affinity_key(a), core::job_affinity_key(b));
  b.scenario.config.host_scale += 1;
  EXPECT_NE(core::job_affinity_key(a), core::job_affinity_key(b));
}

// --- Served == batch byte-identity ---------------------------------------

class ThreadOverrideGuard {
 public:
  ~ThreadOverrideGuard() { set_thread_override(0); }
};

TEST(ServeIdentity, ServedEqualsBatchForAnyThreadsAndShards) {
  ThreadOverrideGuard guard;

  // Reference bytes, computed in-process exactly as `crs_serve --oneshot`
  // (the batch CLI twin) does.
  set_thread_override(1);
  const std::string scenario_ref = core::run_job(scenario_spec(0, 3)).payload;
  const std::string campaign_ref = core::run_job(campaign_spec(0)).payload;

  for (const unsigned threads : {1u, 2u, 8u}) {
    set_thread_override(threads);
    for (const int shards : {1, 3}) {
      ServeConfig scfg;
      scfg.shards = shards;
      scfg.queue_capacity = 16;
      Server server(scfg);
      server.start();
      Client client = Client::connect_tcp(server.port());

      const Client::JobResult s = client.run(scenario_spec(1, 3));
      ASSERT_TRUE(s.accepted);
      EXPECT_EQ(s.status, "ok");
      EXPECT_EQ(s.payload, scenario_ref)
          << "threads=" << threads << " shards=" << shards;

      const Client::JobResult c = client.run(campaign_spec(2));
      ASSERT_TRUE(c.accepted);
      EXPECT_EQ(c.payload, campaign_ref)
          << "threads=" << threads << " shards=" << shards;

      server.shutdown(true);
      const serve::ServeStats stats = server.stats();
      EXPECT_EQ(stats.received, stats.accepted + stats.rejected);
      EXPECT_EQ(stats.accepted, stats.completed + stats.cancelled);
    }
  }
}

TEST(ServeIdentity, MatrixPayloadEqualsBatchCsv) {
  const core::JobSpec spec = matrix_spec(1);
  // What `crs_matrix --csv` prints for this config.
  const std::string batch_csv =
      core::matrix_csv(core::run_defense_matrix(spec.matrix.config));

  ServeConfig scfg;
  scfg.shards = 2;
  Server server(scfg);
  server.start();
  Client client = Client::connect_tcp(server.port());
  const Client::JobResult r = client.run(spec);
  ASSERT_TRUE(r.accepted);
  EXPECT_EQ(r.status, "ok");
  EXPECT_EQ(r.payload, batch_csv);
  server.shutdown(true);
}

TEST(ServeIdentity, CampaignPayloadEqualsBatchCsv) {
  const core::JobSpec spec = campaign_spec(1);
  core::CorpusConfig ccfg;
  ccfg.windows_per_class = spec.campaign.corpus_windows;
  ccfg.secret = spec.campaign.config.scenario.secret;
  ccfg.seed = spec.campaign.corpus_seed;
  const ml::Dataset benign = core::build_benign_corpus(ccfg);
  const ml::Dataset attack = core::build_attack_corpus(ccfg);
  const std::string batch_csv =
      core::campaign_to_csv(core::run_campaign(spec.campaign.config, benign,
                                               attack));
  EXPECT_EQ(core::run_job(spec).payload, batch_csv);
}

TEST(ServeIdentity, ScenarioAttemptZeroMatchesRunScenario) {
  const core::JobSpec spec = scenario_spec(1, 1);
  const core::ScenarioRun direct = core::run_scenario(spec.scenario.config);
  const std::string payload = core::run_job(spec).payload;
  // Row 1 carries run_scenario's ground truth.
  const std::string needle =
      "\n1," + std::to_string(direct.attack_launched ? 1 : 0) + "," +
      std::to_string(direct.secret_recovered ? 1 : 0) + ",";
  EXPECT_NE(payload.find(needle), std::string::npos) << payload;
  EXPECT_NE(payload.find(std::to_string(direct.profile.cycles)),
            std::string::npos);
}

TEST(ServeIdentity, DigestCollidingJobsOnOneThreadGetTheirOwnResults) {
  // These two jobs differ only in their secret, yet their
  // hash_scenario_config digests collide (both 0x97a9dcd5b7a878cc), so
  // job_affinity_key routes them to one shard. A shard runs its jobs back to
  // back on one thread, as below; B must not be served A's session.
  const auto job = [](const std::string& secret) {
    core::JobSpec spec;
    spec.kind = core::JobKind::kScenario;
    spec.scenario.config.host = "basicmath";
    spec.scenario.config.host_scale = 300;
    spec.scenario.config.rop_injected = true;
    spec.scenario.config.seed = 99;
    spec.scenario.config.secret = secret;
    return spec;
  };
  const core::JobSpec a = job("aaf4172c6dfb25fe");
  const core::JobSpec b = job("ecdbd01a29ec4bc7");

  std::string b_after_a;
  std::thread shard([&] {
    (void)core::run_job(a);
    b_after_a = core::run_job(b).payload;
  });
  shard.join();
  std::string b_alone;
  std::thread fresh([&] { b_alone = core::run_job(b).payload; });
  fresh.join();

  EXPECT_EQ(b_after_a, b_alone);
  std::string b_hex;
  for (const unsigned char c : b.scenario.config.secret) {
    static constexpr char kDigits[] = "0123456789abcdef";
    b_hex += kDigits[c >> 4];
    b_hex += kDigits[c & 0xF];
  }
  EXPECT_NE(b_after_a.find(",1," + b_hex + ","), std::string::npos)
      << b_after_a;
}

TEST(ServeIdentity, ProgramJobOverWireMatchesDirect) {
  const core::JobSpec spec = program_spec(1);
  const std::string direct = core::run_job(spec).payload;
  EXPECT_NE(direct.find("exit=42"), std::string::npos) << direct;

  ServeConfig scfg;
  Server server(scfg);
  server.start();
  Client client = Client::connect_tcp(server.port());
  const Client::JobResult r = client.run(spec);
  ASSERT_TRUE(r.accepted);
  EXPECT_EQ(r.payload, direct);
  server.shutdown(true);
}

// --- Scheduling & lifecycle ----------------------------------------------

TEST(ServeServer, ShardCountIsBoundedBeforeAnyThreadStarts) {
  // Unbounded, `crs_serve --shards 100000` spawned one OS thread per shard.
  // The constructor refuses the count; no test here calls start().
  ServeConfig scfg;
  scfg.shards = static_cast<int>(kMaxThreads) + 1;
  try {
    Server server(scfg);
    ADD_FAILURE() << scfg.shards << " shards accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("shards"), std::string::npos)
        << e.what();
  }
  scfg.shards = 0;
  EXPECT_THROW(Server server(scfg), Error);
  scfg.shards = static_cast<int>(kMaxThreads);
  EXPECT_NO_THROW(Server server(scfg));
}

TEST(ServeServer, QueueFullBackpressure) {
  ServeConfig scfg;
  scfg.shards = 1;
  scfg.queue_capacity = 2;
  Server server(scfg);
  server.start();
  server.pause_workers();

  Client client = Client::connect_tcp(server.port());
  // Fill the queue: these two are accepted…
  client.submit(scenario_spec(1));
  client.submit(scenario_spec(2));
  EXPECT_EQ(client.next_event().type, FrameType::kAccepted);
  EXPECT_EQ(client.next_event().type, FrameType::kAccepted);
  // …the third bounces with the backpressure reason.
  client.submit(scenario_spec(3));
  const Client::Event ev = client.next_event();
  EXPECT_EQ(ev.type, FrameType::kRejected);
  EXPECT_EQ(ev.id, 3u);
  EXPECT_EQ(ev.reason, "queue_full");

  // Backpressure is advisory, not fatal: after the queue drains the same
  // client submits successfully.
  server.resume_workers();
  const Client::JobResult r1 = client.await_result(1);
  EXPECT_EQ(r1.status, "ok");
  const Client::JobResult r2 = client.await_result(2);
  EXPECT_EQ(r2.status, "ok");
  const Client::JobResult r4 = client.run(scenario_spec(4));
  EXPECT_EQ(r4.status, "ok");

  server.shutdown(true);
  const serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.received, 4u);
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.cancelled, 0u);
}

TEST(ServeServer, GracefulShutdownDrainsInFlight) {
  ServeConfig scfg;
  scfg.shards = 2;
  scfg.queue_capacity = 16;
  Server server(scfg);
  server.start();
  server.pause_workers();

  Client client = Client::connect_tcp(server.port());
  const int kJobs = 5;
  for (int i = 0; i < kJobs; ++i) client.submit(scenario_spec(1 + i));
  for (int i = 0; i < kJobs; ++i) {
    EXPECT_EQ(client.next_event().type, FrameType::kAccepted);
  }

  // Shut down while everything is still queued: drain must run all five
  // and deliver all five RESULT frames before the connection dies.
  std::thread closer([&] { server.shutdown(true); });
  int ok = 0;
  int results = 0;
  while (results < kJobs) {
    const Client::Event ev = client.next_event();  // throws if server hangs up
    if (ev.type != FrameType::kResult) continue;   // progress frames
    ++results;
    if (ev.status == "ok") ++ok;
  }
  closer.join();
  EXPECT_EQ(ok, kJobs);

  const serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(stats.cancelled, 0u);
}

TEST(ServeServer, ShutdownFrameRejectsNewWork) {
  ServeConfig scfg;
  Server server(scfg);
  server.start();
  Client client = Client::connect_tcp(server.port());

  client.request_shutdown();
  EXPECT_EQ(client.next_event().type, FrameType::kPong);
  EXPECT_TRUE(server.shutdown_requested());

  client.submit(scenario_spec(1));
  const Client::Event ev = client.next_event();
  EXPECT_EQ(ev.type, FrameType::kRejected);
  EXPECT_EQ(ev.reason, "shutting_down");
  server.shutdown(true);
}

TEST(ServeServer, CancelMidFlight) {
  ServeConfig scfg;
  scfg.shards = 1;
  Server server(scfg);
  server.start();
  Client client = Client::connect_tcp(server.port());

  // Enough attempts that the job is still running when the cancel lands
  // (one shared execution serves up to 16 of them); the progress stream
  // tells us it started.
  client.submit(scenario_spec(1, 2000));
  EXPECT_EQ(client.next_event().type, FrameType::kAccepted);
  Client::Event ev = client.next_event();
  EXPECT_EQ(ev.type, FrameType::kProgress);
  EXPECT_EQ(ev.progress.total, 2000u);
  client.cancel(1);
  do {
    ev = client.next_event();
  } while (ev.type == FrameType::kProgress);
  EXPECT_EQ(ev.type, FrameType::kResult);
  EXPECT_EQ(ev.status, "cancelled");
  EXPECT_TRUE(ev.payload.empty());

  server.shutdown(true);
  const serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST(ServeServer, BadSubmitRejectedWithoutCrashing) {
  ServeConfig scfg;
  Server server(scfg);
  server.start();
  Client client = Client::connect_tcp(server.port());

  client.ping();
  EXPECT_EQ(client.next_event().type, FrameType::kPong);

  // Malformed job spec inside a well-formed frame: rejected as bad_request,
  // and the rejection echoes the id the broken spec managed to name.
  {
    const std::string junk = "crs-job v1\nkind=scenario\nid=77\nbogus=1\n";
    const std::string frame = serve::encode_frame(FrameType::kSubmit, junk);
    Socket s = connect_tcp_loopback(server.port());
    s.send_all(frame.data(), frame.size());
    FrameDecoder dec;
    char buf[512];
    for (;;) {
      const std::size_t n = s.recv_some(buf, sizeof buf);
      ASSERT_GT(n, 0u);
      dec.feed(buf, n);
      if (auto f = dec.next()) {
        ASSERT_EQ(f->type, FrameType::kRejected);
        const serve::RejectedPayload p = serve::parse_rejected(f->payload);
        EXPECT_EQ(p.id, 77u);
        EXPECT_EQ(p.reason, "bad_request");
        EXPECT_FALSE(p.detail.empty());
        break;
      }
    }
  }

  // And a stream that is not frames at all: the server answers with an
  // ERROR frame, closes that connection, and keeps serving others.
  {
    Socket s = connect_tcp_loopback(server.port());
    const std::string garbage(64, 'Z');
    s.send_all(garbage.data(), garbage.size());
    FrameDecoder dec;
    char buf[512];
    bool got_error = false;
    for (;;) {
      const std::size_t n = s.recv_some(buf, sizeof buf);
      if (n == 0) break;  // server hung up, as designed
      dec.feed(buf, n);
      if (auto f = dec.next()) {
        EXPECT_EQ(f->type, FrameType::kError);
        got_error = true;
      }
    }
    EXPECT_TRUE(got_error);
  }

  // Healthy tenants are unaffected.
  const Client::JobResult r = client.run(scenario_spec(5));
  EXPECT_EQ(r.status, "ok");
  server.shutdown(true);
}

TEST(ServeServer, UnixDomainEndpoint) {
  ServeConfig scfg;
  scfg.unix_path =
      "/tmp/crs_serve_test_" + std::to_string(::getpid()) + ".sock";
  Server server(scfg);
  server.start();
  Client client = Client::connect_unix(scfg.unix_path);
  const Client::JobResult r = client.run(program_spec(1));
  EXPECT_EQ(r.status, "ok");
  EXPECT_NE(r.payload.find("exit=42"), std::string::npos);
  server.shutdown(true);
}

TEST(ServeServer, FailedJobGetsTerminalFrame) {
  ServeConfig scfg;
  Server server(scfg);
  server.start();
  Client client = Client::connect_tcp(server.port());

  // Parses fine, fails at runtime: the assembler rejects the source.
  core::JobSpec spec = program_spec(1);
  spec.program.source = "main:\n  frobnicate r1, r2\n";
  const Client::JobResult r = client.run(spec);
  ASSERT_TRUE(r.accepted);
  EXPECT_EQ(r.status, "failed");
  EXPECT_FALSE(r.payload.empty());

  server.shutdown(true);
  const serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.accepted, stats.completed + stats.cancelled);
}

TEST(ServeServer, HostileProgramJobFailsAndTheShardServesOn) {
  ServeConfig scfg;
  scfg.shards = 1;
  Server server(scfg);
  server.start();
  Client client = Client::connect_tcp(server.port());

  // An 8 EiB .space: refused by the assembler's section bound before any
  // allocation. Without the bound the allocation threw std::bad_alloc on
  // the shard thread and ended the server.
  core::JobSpec hostile = program_spec(1);
  hostile.program.source += ".data\n.space 9223372036854775807\n";
  const Client::JobResult failed = client.run(hostile);
  ASSERT_TRUE(failed.accepted);
  EXPECT_EQ(failed.status, "failed");
  EXPECT_NE(failed.payload.find("section would exceed"), std::string::npos)
      << failed.payload;

  // The same shard serves the next job.
  const Client::JobResult next = client.run(program_spec(2));
  ASSERT_TRUE(next.accepted);
  EXPECT_EQ(next.status, "ok");
  EXPECT_NE(next.payload.find("exit=42"), std::string::npos) << next.payload;

  server.shutdown(true);
}

}  // namespace
}  // namespace crs
