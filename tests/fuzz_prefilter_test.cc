// Seeded differential fuzz tests (ctest label: fuzz) for the rare-token
// prefilter against the exact DFA matcher. Contract under fuzz: for ANY
// payload and ANY signature set, Prefilter::Scan may admit false candidates
// but must never drop a payload the DFA would match — i.e.
// MatchIntoPrefiltered returns bit-identical hits to MatchInto. Replays the checked-in corpus under tests/fuzz/ first, then
// seeded random payloads, mutation sweeps of leaking payloads, and randomly
// generated signature sets (LEAKDET_TEST_SEED overrides the seeds).

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "match/compiled_set.h"
#include "match/signature.h"
#include "prefilter/prefilter.h"
#include "test_seed.h"
#include "util/rng.h"

#ifndef LEAKDET_FUZZ_CORPUS_DIR
#define LEAKDET_FUZZ_CORPUS_DIR "tests/fuzz"
#endif

namespace leakdet {
namespace {

using match::CompiledSignatureSet;
using match::ConjunctionSignature;
using match::MatchScratch;
using match::SignatureSet;

std::string ReadCorpus(const std::string& name) {
  const std::string path = std::string(LEAKDET_FUZZ_CORPUS_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing corpus file " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// A deliberately adversarial mix: multi-token conjunction, host-scoped
// signature, short-token signature (below the window width, so it is an
// always-candidate), a binary token, and two signatures sharing a 4-byte
// window prefix.
SignatureSet FuzzSignatures() {
  std::vector<ConjunctionSignature> sigs(6);
  sigs[0].id = "udid-leak";
  sigs[0].tokens = {"udid=9774d56d682e549c", "ver=2"};
  sigs[1].id = "imei-scoped";
  sigs[1].tokens = {"imei=3534900698"};
  sigs[1].host_scope = "tracker.example";
  sigs[2].id = "short";
  sigs[2].tokens = {"&q="};  // < 4 bytes: must be an always-candidate
  sigs[3].id = "binary";
  sigs[3].tokens = {std::string("\x01\xFF\x00\x7F\xC0mark", 9)};
  sigs[4].id = "shared-prefix-a";
  sigs[4].tokens = {"token-alpha-0001"};
  sigs[5].id = "shared-prefix-b";
  sigs[5].tokens = {"token-bravo-0002"};
  return SignatureSet(sigs);
}

// The differential oracle: prefiltered matching must equal plain matching —
// same hits, same order, same count.
void ExpectDifferentialEquality(const CompiledSignatureSet& compiled,
                                const std::string& payload,
                                const std::string& host) {
  MatchScratch oracle;
  size_t want = compiled.MatchInto(payload, host, &oracle);
  MatchScratch scratch;
  match::PrefilterOutcome outcome;
  size_t got = compiled.MatchIntoPrefiltered(
      payload, host, &scratch, prefilter::Mode::kScalar, &outcome);
  ASSERT_EQ(got, want) << "payload.size=" << payload.size();
  ASSERT_EQ(scratch.hits, oracle.hits);
  if (want > 0) {
    // A payload the DFA matches must never have been screened out.
    ASSERT_NE(outcome, match::PrefilterOutcome::kSkipped)
        << "prefilter dropped a matching payload";
  }
}

TEST(FuzzPrefilter, CorpusReplays) {
  CompiledSignatureSet compiled(FuzzSignatures(), 1);
  const struct {
    const char* name;
    const char* host;
    bool expect_match;
  } kCases[] = {
      {"prefilter_leak.seed", "tracker.example", true},
      {"prefilter_clean.seed", "", false},
      {"prefilter_binary.seed", "", true},
      {"prefilter_boundary.seed", "", true},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.name);
    const std::string payload = ReadCorpus(c.name);
    ASSERT_FALSE(payload.empty());
    MatchScratch scratch;
    EXPECT_EQ(compiled.MatchInto(payload, c.host, &scratch) > 0,
              c.expect_match);
    ExpectDifferentialEquality(compiled, payload, c.host);
  }
}

TEST(FuzzPrefilter, SurvivesRandomBytes) {
  const uint64_t seed = testing::TestSeed(0xF20001);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  CompiledSignatureSet compiled(FuzzSignatures(), 1);
  for (int trial = 0; trial < 1500; ++trial) {
    size_t len = rng.UniformInt(600);
    std::string payload;
    payload.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      payload += static_cast<char>(rng.UniformInt(256));
    }
    ExpectDifferentialEquality(compiled, payload, "");
  }
}

TEST(FuzzPrefilter, MutationsOfLeakingPayloadNeverDropAMatch) {
  const uint64_t seed = testing::TestSeed(0xF20002);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  CompiledSignatureSet compiled(FuzzSignatures(), 1);
  const std::string valid = ReadCorpus("prefilter_leak.seed");
  for (int trial = 0; trial < 1500; ++trial) {
    std::string mutated = valid;
    size_t flips = 1 + rng.UniformInt(4);
    for (size_t f = 0; f < flips; ++f) {
      mutated[rng.UniformInt(mutated.size())] =
          static_cast<char>(rng.UniformInt(256));
    }
    // A mutation may or may not destroy the token — either way the
    // prefiltered path must agree with the oracle exactly.
    ExpectDifferentialEquality(compiled, mutated, "tracker.example");
  }
  // Truncation at every boundary: a token cut in half must not match, and
  // the screened path must agree at each cut.
  for (size_t cut = 0; cut < valid.size(); cut += 3) {
    ExpectDifferentialEquality(compiled, valid.substr(0, cut),
                               "tracker.example");
  }
}

TEST(FuzzPrefilter, RandomSignatureSetsStayDifferentiallyEqual) {
  const uint64_t seed = testing::TestSeed(0xF20003);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  // Small alphabet maximizes window collisions and shared prefixes — the
  // hard case for the bucketed table and the bloom screen.
  const std::string alphabet = "abAB01_=&\xFF\x00";
  auto random_token = [&](size_t min_len, size_t max_len) {
    size_t len = min_len + rng.UniformInt(max_len - min_len + 1);
    std::string t;
    for (size_t i = 0; i < len; ++i) {
      t += alphabet[rng.UniformInt(alphabet.size())];
    }
    return t;
  };
  for (int round = 0; round < 40; ++round) {
    size_t num_sigs = 1 + rng.UniformInt(20);
    std::vector<ConjunctionSignature> sigs(num_sigs);
    std::vector<std::string> all_tokens;
    for (size_t s = 0; s < num_sigs; ++s) {
      sigs[s].id = "sig-" + std::to_string(round) + "-" + std::to_string(s);
      size_t num_tokens = 1 + rng.UniformInt(3);
      for (size_t t = 0; t < num_tokens; ++t) {
        sigs[s].tokens.push_back(random_token(2, 12));
        all_tokens.push_back(sigs[s].tokens.back());
      }
    }
    CompiledSignatureSet compiled(SignatureSet(sigs), 1);
    for (int trial = 0; trial < 40; ++trial) {
      // Payload = noise with real tokens spliced in, so matches actually
      // occur (pure random bytes over this alphabet rarely complete a
      // conjunction).
      std::string payload = random_token(0, 80);
      size_t splices = rng.UniformInt(5);
      for (size_t i = 0; i < splices; ++i) {
        payload += all_tokens[rng.UniformInt(all_tokens.size())];
        payload += random_token(0, 10);
      }
      ExpectDifferentialEquality(compiled, payload, "");
    }
  }
}

}  // namespace
}  // namespace leakdet
