// Trace smoke validator: reads each file named on the command line and
// verifies it is one complete, well-formed JSON value containing a
// traceEvents array.  Paired (via CTest fixtures) with a run of
// examples/comm_thread_study under AMTLCE_TRACE.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "json_check.hpp"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s trace.json [trace.json...]\n", argv[0]);
    return 2;
  }
  int rc = 0;
  for (int i = 1; i < argc; ++i) {
    std::ifstream in(argv[i]);
    if (!in.good()) {
      std::fprintf(stderr, "FAIL %s: cannot open\n", argv[i]);
      rc = 1;
      continue;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    if (!test_support::json_parse_ok(text)) {
      std::fprintf(stderr, "FAIL %s: malformed JSON\n", argv[i]);
      rc = 1;
    } else if (text.find("\"traceEvents\"") == std::string::npos) {
      std::fprintf(stderr, "FAIL %s: no traceEvents array\n", argv[i]);
      rc = 1;
    } else if (text.find("\"ph\":\"X\"") == std::string::npos) {
      std::fprintf(stderr, "FAIL %s: no complete (ph:X) events\n", argv[i]);
      rc = 1;
    } else {
      std::printf("OK   %s (%zu bytes)\n", argv[i], text.size());
    }
  }
  return rc;
}
