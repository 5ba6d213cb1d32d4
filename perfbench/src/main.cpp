// solarbench: the benchmark's native helper, driven by perfbench/run.py.
//
//   solarbench mix <socket> <plan> <records_out> <bodies_out>
//   solarbench closed <socket> <plan> <count> <records_out>
//   solarbench trace <workload> <plan> <seconds> <threads> <out>
//
// mix and closed are socket load generators (client.cpp); trace is the
// in-process traced replay (replay.cpp).
#include <exception>
#include <iostream>
#include <string>

namespace perfbench {
int run_mix(const std::string& socket_path, const std::string& plan_path,
            const std::string& records_path, const std::string& bodies_path);
int run_closed(const std::string& socket_path, const std::string& plan_path,
               std::size_t count, const std::string& records_path);
int run_trace(const std::string& workload, const std::string& plan_path,
              double seconds, std::size_t threads,
              const std::string& out_path);
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  try {
    if (cmd == "mix" && argc == 6) {
      return perfbench::run_mix(argv[2], argv[3], argv[4], argv[5]);
    }
    if (cmd == "closed" && argc == 6) {
      return perfbench::run_closed(argv[2], argv[3], std::stoul(argv[4]),
                                   argv[5]);
    }
    if (cmd == "trace" && argc == 7) {
      return perfbench::run_trace(argv[2], argv[3], std::stod(argv[4]),
                                  std::stoul(argv[5]), argv[6]);
    }
  } catch (const std::exception& e) {
    std::cerr << "solarbench " << cmd << ": " << e.what() << "\n";
    return 1;
  }
  std::cerr << "usage: solarbench mix SOCKET PLAN RECORDS BODIES\n"
               "       solarbench closed SOCKET PLAN COUNT RECORDS\n"
               "       solarbench trace WORKLOAD PLAN SECONDS THREADS OUT\n";
  return 2;
}
