// Cross-commit pins on every shipped artifact. Each scenarios/*.scenario.json
// file is run in process, exactly as shipped, and the 64-bit FNV-1a of each
// artifact it renders (report.txt, metrics.json, yield.json, events.jsonl —
// whichever are non-empty) is compared against the checked-in table
// tests/scenario/artifact_pins.txt. A refactor that claims byte-identical
// behaviour must leave that table untouched; a declared re-pin edits it.
//
// Table format: one `<scenario> <artifact> <16 hex digits>` line per
// artifact, '#' comments allowed. On a mismatch the test prints the line
// the table would need, so a deliberate re-pin is a copy of that output.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "scenario/parse.hpp"
#include "scenario/run.hpp"

namespace fs = std::filesystem;
using namespace jsi;

namespace {

using PinKey = std::pair<std::string, std::string>;  // (scenario, artifact)

std::map<PinKey, std::string> load_pins() {
  std::map<PinKey, std::string> pins;
  std::ifstream is(JSI_PIN_TABLE);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string scenario, artifact, hash;
    if (ls >> scenario >> artifact >> hash) {
      pins[{scenario, artifact}] = hash;
    }
  }
  return pins;
}

std::vector<fs::path> scenario_files() {
  std::vector<fs::path> out;
  for (const auto& entry : fs::directory_iterator(JSI_SCENARIO_DIR)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 14 &&
        name.substr(name.size() - 14) == ".scenario.json") {
      out.push_back(entry.path());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

TEST(ArtifactPins, EveryShippedScenarioMatchesItsPinnedHashes) {
#ifdef JSI_NATIVE_BUILD
  GTEST_SKIP() << "-march=native may contract FP differently; the pins "
                  "hold for the portable build only";
#endif
  const std::map<PinKey, std::string> pins = load_pins();
  ASSERT_FALSE(pins.empty()) << "no pins read from " << JSI_PIN_TABLE;

  std::map<PinKey, std::string> seen;
  for (const fs::path& p : scenario_files()) {
    const std::string name = p.filename().string();
    const std::string base = name.substr(0, name.size() - 14);
    const scenario::ScenarioOutcome out =
        scenario::run_scenario(scenario::load_scenario(p.string()));
    const std::pair<const char*, const std::string*> artifacts[] = {
        {"report.txt", &out.report_text},
        {"metrics.json", &out.metrics_json},
        {"yield.json", &out.yield_json},
        {"events.jsonl", &out.events_jsonl},
    };
    for (const auto& [artifact, text] : artifacts) {
      if (text->empty()) continue;
      const PinKey key{base, artifact};
      const std::string hash = core::fingerprint_text(*text);
      seen[key] = hash;
      const auto it = pins.find(key);
      if (it == pins.end()) {
        ADD_FAILURE() << base << "/" << artifact << " has no pin; add: "
                      << base << " " << artifact << " " << hash;
      } else if (it->second != hash) {
        ADD_FAILURE() << base << "/" << artifact << " changed: pinned "
                      << it->second << ", now " << hash;
      }
    }
  }
  for (const auto& [key, hash] : pins) {
    EXPECT_TRUE(seen.count(key))
        << key.first << "/" << key.second << " is pinned (" << hash
        << ") but was not produced";
  }
}
