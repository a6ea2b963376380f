#include "match/subsequence_signature.h"

#include <gtest/gtest.h>

namespace leakdet::match {
namespace {

SubsequenceSignature MakeSig(std::string id, std::vector<std::string> tokens,
                             std::string host = "") {
  SubsequenceSignature sig;
  sig.id = std::move(id);
  sig.tokens = std::move(tokens);
  sig.host_scope = std::move(host);
  sig.cluster_size = 2;
  return sig;
}

bool InOrder(const SubsequenceSignature& sig, std::string_view content) {
  return FirstOrderViolation(sig.tokens, content) < 0;
}

TEST(SubsequenceSignatureTest, RequiresOrder) {
  SubsequenceSignature sig = MakeSig("q0", {"first", "second"});
  EXPECT_TRUE(InOrder(sig, "x first y second z"));
  EXPECT_FALSE(InOrder(sig, "x second y first z"));  // wrong order
  EXPECT_FALSE(InOrder(sig, "x first y"));           // missing token
}

TEST(SubsequenceSignatureTest, NonOverlappingOccurrences) {
  // "abab" then "ab": the second token must start after the first ends.
  SubsequenceSignature sig = MakeSig("q0", {"abab", "ab"});
  EXPECT_FALSE(InOrder(sig, "abab"));     // overlap would be needed
  EXPECT_TRUE(InOrder(sig, "ababab"));    // "abab" then "ab" at offset 4
  EXPECT_TRUE(InOrder(sig, "abab ab"));
}

TEST(SubsequenceSignatureTest, RepeatedToken) {
  SubsequenceSignature sig = MakeSig("q0", {"dup!", "dup!"});
  EXPECT_FALSE(InOrder(sig, "one dup! only"));
  EXPECT_TRUE(InOrder(sig, "dup! and dup! again"));
}

TEST(SubsequenceSignatureTest, EmptyTokenListNeverMatches) {
  // The order check holds vacuously; the set's conjunction rule rejects it.
  SubsequenceSignature sig = MakeSig("q0", {});
  EXPECT_FALSE(SubsequenceSignatureSet({sig}).Matches("anything"));
}

TEST(SubsequenceSignatureTest, FirstOrderViolationNamesTheToken) {
  std::vector<std::string> tokens = {"a=", "b=", "c="};
  EXPECT_EQ(FirstOrderViolation(tokens, "a=1 b=2 c=3"), -1);
  EXPECT_EQ(FirstOrderViolation(tokens, "b=2 a=1 c=3"), 1);
  EXPECT_EQ(FirstOrderViolation(tokens, "a=1 b=2"), 2);
  EXPECT_EQ(FirstOrderViolation(tokens, "nothing"), 0);
}

TEST(SubsequenceSignatureSetTest, PrefilterPlusOrderCheck) {
  SubsequenceSignatureSet set({MakeSig("q0", {"GET /a?", "&uid=42&"}),
                               MakeSig("q1", {"&uid=42&", "GET /a?"})});
  auto hits = set.Match("GET /a?x=1&uid=42&r=7 HTTP/1.1");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 0u);  // q1 requires reversed order
}

TEST(SubsequenceSignatureSetTest, HostScope) {
  SubsequenceSignatureSet set({MakeSig("q0", {"tok1", "tok2"}, "admob.com")});
  EXPECT_TRUE(set.Matches("tok1 tok2", "admob.com"));
  EXPECT_FALSE(set.Matches("tok1 tok2", "other.net"));
  EXPECT_TRUE(set.Matches("tok1 tok2", ""));  // scoping disabled by caller
}

TEST(SubsequenceSignatureSetTest, EmptySet) {
  SubsequenceSignatureSet set;
  EXPECT_FALSE(set.Matches("anything"));
}

TEST(SubsequenceSignatureSetTest, CopyRebuildsIndex) {
  SubsequenceSignatureSet original({MakeSig("q0", {"aaa!", "bbb!"})});
  SubsequenceSignatureSet copy(original);
  EXPECT_TRUE(copy.Matches("aaa! bbb!"));
  SubsequenceSignatureSet assigned;
  assigned = original;
  EXPECT_TRUE(assigned.Matches("aaa! bbb!"));
}

TEST(SubsequenceSignatureSetTest, SerializeRoundTrip) {
  SubsequenceSignatureSet original(
      {MakeSig("q0", {"GET /x?", std::string("\x00\xff", 2)}, "x.com"),
       MakeSig("q1", {"alpha"})});
  auto restored = SubsequenceSignatureSet::Deserialize(original.Serialize());
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->size(), 2u);
  EXPECT_EQ(restored->signatures()[0], original.signatures()[0]);
  EXPECT_EQ(restored->signatures()[1], original.signatures()[1]);
}

TEST(SubsequenceSignatureSetTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(SubsequenceSignatureSet::Deserialize("nope\n").ok());
  EXPECT_FALSE(SubsequenceSignatureSet::Deserialize(
                   "leakdet-subseq-signatures v1\nsignature q0\n")
                   .ok());
  EXPECT_FALSE(SubsequenceSignatureSet::Deserialize(
                   "leakdet-subseq-signatures v1\nsignature q0\ntoken zz\nend\n")
                   .ok());
}

TEST(SubsequenceSignatureSetTest, HitsAscendAndAgreeWithTheOrderCheck) {
  std::vector<SubsequenceSignature> sigs = {
      MakeSig("q0", {"k=", "v="}), MakeSig("q1", {"v=", "k="}),
      MakeSig("q2", {"k="}), MakeSig("q3", {"k=", "k="}),
      MakeSig("q4", {"v="}, "other.net")};
  SubsequenceSignatureSet set(sigs);
  EXPECT_EQ(set.Match("k=1&v=2", "x.com"), (std::vector<size_t>{0, 2}));
  EXPECT_EQ(set.Match("v=2&k=1&k=3"), (std::vector<size_t>{1, 2, 3, 4}));
}

TEST(SubsequenceSignatureSetTest, SerializeIsTheConjunctionFormat) {
  std::vector<SubsequenceSignature> sigs = {
      MakeSig("qsig-0", {"ab", std::string("\x00", 1)}, "x.com")};
  const std::string blocks =
      "signature qsig-0\n"
      "host x.com\n"
      "cluster_size 2\n"
      "token 6162\n"
      "token 00\n"
      "end\n";
  EXPECT_EQ(SubsequenceSignatureSet(sigs).Serialize(),
            "leakdet-subseq-signatures v1\n" + blocks);
  EXPECT_EQ(SignatureSet(sigs).Serialize(), "leakdet-signatures v1\n" + blocks);
}

TEST(SubsequenceSignatureSetTest, DeserializeRejectsClusterSizeAbove32Bits) {
  const std::string head =
      "leakdet-subseq-signatures v1\nsignature q0\ntoken 6162\n";
  auto max = SubsequenceSignatureSet::Deserialize(
      head + "cluster_size 4294967295\nend\n");
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(max->signatures()[0].cluster_size, 4294967295u);
  EXPECT_FALSE(SubsequenceSignatureSet::Deserialize(
                   head + "cluster_size 4294967297\nend\n")
                   .ok());
}

}  // namespace
}  // namespace leakdet::match
