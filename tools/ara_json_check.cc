// Strict JSON validity checker for exporter output (traces, metrics).
//
//   ara_json_check FILE [FILE...]
//
// Exits 0 when every file parses as exactly one RFC 8259 JSON value,
// nonzero otherwise. Used by the CLI smoke ctest to validate the files
// written by `ara_sim --trace ... --metrics ...` without any external
// JSON dependency.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json_io.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s FILE [FILE...]\n", argv[0]);
    return 2;
  }
  int failures = 0;
  for (int i = 1; i < argc; ++i) {
    std::ifstream in(argv[i], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "%s: cannot open\n", argv[i]);
      ++failures;
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string error;
    if (ara::obs::validate_json(buf.str(), &error)) {
      std::printf("%s: valid JSON (%zu bytes)\n", argv[i], buf.str().size());
    } else {
      std::fprintf(stderr, "%s: INVALID JSON: %s\n", argv[i], error.c_str());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
