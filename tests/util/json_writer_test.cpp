// Json writer byte identity: dump() at every indent against a fixture,
// dump(os) and append_jsonl against dump(), and parse(dump(x)) == x over
// seeded random documents.
//
// golden/json_writer.txt holds one line per indent (-1, 0, 1, 2) of one
// document that covers every escape, every control byte, 0x7f and bytes
// >= 0x80, the i64 extremes, integral, fractional and non-finite doubles
// and empty containers.  The text is stored percent-encoded ('%', '\n'
// and bytes outside 0x20..0x7e as %XX), so the fixture stays one
// printable line per case.  To regenerate after an intended output
// change:
//   VPMEM_UPDATE_GOLDEN=1 ./util_json_writer_test
// and say in the change why the bytes moved.
#include "vpmem/util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

namespace vpmem {
namespace {

constexpr int kIndents[] = {-1, 0, 1, 2};

/// Every byte the writer treats specially, plus neighbours it must not.
std::string all_special_bytes() {
  std::string s = "\"\\/\b\f\n\r\t";
  for (int c = 0x01; c < 0x20; ++c) s += static_cast<char>(c);
  s += ' ';
  s += '\x7f';
  for (int c = 0x80; c <= 0xff; ++c) s += static_cast<char>(c);
  s += "\xe2\x82\xac tail";  // UTF-8 euro sign, then plain text
  return s;
}

Json fixture_document() {
  Json doc = Json::object();
  doc["null"] = nullptr;
  doc["true"] = true;
  doc["false"] = false;
  Json ints = Json::array();
  for (const i64 n : {i64{0}, i64{-1}, i64{7}, i64{-42}, i64{1000000},
                      std::numeric_limits<i64>::min(), std::numeric_limits<i64>::max()}) {
    ints.push_back(n);
  }
  doc["ints"] = std::move(ints);
  Json doubles = Json::array();
  for (const double d : {0.0, -0.0, 2.0, -3.0, 1e21, 1e300, 0.1, -1.5e-7, 3.141592653589793,
                         1.0 / 3.0, std::numeric_limits<double>::max(),
                         std::numeric_limits<double>::denorm_min(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    doubles.push_back(d);
  }
  doc["doubles"] = std::move(doubles);
  doc["empty_string"] = "";
  doc["special"] = all_special_bytes();
  for (int c = 0x01; c < 0x20; ++c) {
    // Each control byte alone, between plain runs, and as a key.
    const std::string one(1, static_cast<char>(c));
    doc["ctl"].push_back("a" + one + "b");
    doc["ctl_keys"][one] = c;
  }
  doc[all_special_bytes()] = "key with every special byte";
  doc["empty_array"] = Json::array();
  doc["empty_object"] = Json::object();
  Json nested = Json::array();
  nested.push_back(Json::array());
  nested.push_back(Json::object());
  Json inner = Json::object();
  inner["a"] = Json::array();
  inner["a"].push_back(Json::array());
  inner["a"].push_back(1);
  inner["b"] = Json::object();
  inner["b"]["c"] = "d";
  nested.push_back(std::move(inner));
  doc["nested"] = std::move(nested);
  return doc;
}

/// Injective printable encoding of arbitrary bytes.
std::string percent_encode(const std::string& text) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string out;
  for (const char ch : text) {
    const auto c = static_cast<unsigned char>(ch);
    if (c < 0x20 || c > 0x7e || c == '%') {
      out += '%';
      out += kHex[c >> 4u];
      out += kHex[c & 0xfu];
    } else {
      out += ch;
    }
  }
  return out;
}

std::vector<std::string> fixture_lines() {
  const Json doc = fixture_document();
  std::vector<std::string> lines;
  for (const int indent : kIndents) {
    lines.push_back("indent " + std::to_string(indent) + " " + percent_encode(doc.dump(indent)));
  }
  return lines;
}

TEST(JsonWriter, MatchesGoldenFixture) {
  const std::vector<std::string> got = fixture_lines();
  if (const char* update = std::getenv("VPMEM_UPDATE_GOLDEN"); update != nullptr) {
    std::ofstream out{VPMEM_JSON_WRITER_GOLDEN};
    ASSERT_TRUE(out.is_open()) << VPMEM_JSON_WRITER_GOLDEN;
    for (const std::string& line : got) out << line << '\n';
    FAIL() << "golden fixture rewritten; rerun without VPMEM_UPDATE_GOLDEN to check it";
  }
  std::ifstream in{VPMEM_JSON_WRITER_GOLDEN};
  ASSERT_TRUE(in.is_open()) << VPMEM_JSON_WRITER_GOLDEN;
  std::vector<std::string> want;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) want.push_back(line);
  }
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "indent " << kIndents[i];
  }
}

TEST(JsonWriter, StreamOverloadAndJsonlMatchDump) {
  const Json doc = fixture_document();
  for (const int indent : kIndents) {
    std::ostringstream os;
    os << "prefix";
    doc.dump(os, indent);
    EXPECT_EQ(os.str(), "prefix" + doc.dump(indent)) << "indent " << indent;
  }
  std::ostringstream lines;
  append_jsonl(lines, doc);
  append_jsonl(lines, Json{"x"});
  EXPECT_EQ(lines.str(), doc.dump() + "\n\"x\"\n");
}

/// Random document of bounded depth: every value kind, strings over all
/// 256 byte values (NUL included), finite doubles drawn from raw bits.
class RandomDocument {
 public:
  explicit RandomDocument(std::uint64_t seed) : rng_{seed} {}

  Json value(int depth) {
    const std::uint64_t kind = rng_() % (depth >= 5 ? 6 : 8);
    switch (kind) {
      case 0: return Json{};
      case 1: return Json{(rng_() & 1u) != 0};
      case 2: return Json{static_cast<i64>(rng_())};
      case 3: return Json{static_cast<i64>(rng_() % 2001) - 1000};
      case 4: return Json{finite_double()};
      case 5: return Json{text()};
      case 6: {
        Json a = Json::array();
        for (std::uint64_t n = rng_() % 6; n > 0; --n) a.push_back(value(depth + 1));
        return a;
      }
      default: {
        Json::Object o;
        for (std::uint64_t n = rng_() % 6; n > 0; --n) o.emplace_back(text(), value(depth + 1));
        return Json{std::move(o)};
      }
    }
  }

 private:
  double finite_double() {
    if ((rng_() & 3u) == 0) return static_cast<double>(static_cast<i64>(rng_() % 1000)) - 500.0;
    double d = std::numeric_limits<double>::infinity();
    while (!std::isfinite(d)) {
      const std::uint64_t bits = rng_();
      static_assert(sizeof bits == sizeof d);
      std::memcpy(&d, &bits, sizeof d);
    }
    return d;
  }

  std::string text() {
    std::string s;
    for (std::uint64_t n = rng_() % 12; n > 0; --n) {
      const std::uint64_t r = rng_();
      // Mostly printable ASCII, so runs between escapes have some length.
      s += (r & 3u) == 0 ? static_cast<char>((r >> 8u) & 0xffu)
                         : static_cast<char>(0x20 + (r >> 8u) % 95);
    }
    return s;
  }

  std::mt19937_64 rng_;
};

TEST(JsonWriter, RandomDocumentsRoundTripAtEveryIndent) {
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    RandomDocument gen{seed};
    const Json doc = gen.value(0);
    for (const int indent : kIndents) {
      const std::string text = doc.dump(indent);
      ASSERT_EQ(Json::parse(text), doc) << "seed " << seed << " indent " << indent;
      std::ostringstream os;
      doc.dump(os, indent);
      ASSERT_EQ(os.str(), text) << "seed " << seed << " indent " << indent;
    }
  }
}

}  // namespace
}  // namespace vpmem
