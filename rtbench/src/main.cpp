// rtbench: the real-time serving benchmark binary (see rtbench/README.md).
//
//   rtbench --workload steady_float|burst_wire_int8|sharded_capacity
//           --seed N --seconds S [--trace-out FILE] [--setup-only]
//           [--perturb] [--commit ID]
//
// Prints a provenance line and, as its last line, one JSON object with the
// run's metrics (name, unit, value, sample count).  Exits 3 without metrics
// when the correctness gate fails, 2 on usage or runtime errors.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <string>

#include "nn/simd.hpp"
#include "trace.hpp"
#include "util/args.hpp"
#include "workloads.hpp"

namespace {

using namespace rtbench;

[[noreturn]] void usage(const std::string& why) {
    std::fprintf(stderr,
                 "rtbench: %s\nusage: rtbench --workload steady_float|burst_wire_int8|"
                 "sharded_capacity --seed N --seconds S [--trace-out FILE] [--setup-only] "
                 "[--perturb] [--commit ID]\n",
                 why.c_str());
    std::exit(2);
}

options parse(int argc, char** argv) {
    options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage("missing value for " + flag);
            return argv[++i];
        };
        if (flag == "--workload") {
            opt.workload = value();
        } else if (flag == "--seed") {
            const auto v = fallsense::util::parse_long(value());
            if (!v || *v < 0) usage("--seed needs a non-negative integer");
            opt.seed = static_cast<std::uint64_t>(*v);
        } else if (flag == "--seconds") {
            const auto v = fallsense::util::parse_double(value());
            if (!v || *v <= 0.0 || *v > 600.0) usage("--seconds needs a value in (0, 600]");
            opt.seconds = *v;
        } else if (flag == "--trace-out") {
            opt.trace_out = value();
        } else if (flag == "--commit") {
            opt.commit = value();
        } else if (flag == "--setup-only") {
            opt.setup_only = true;
        } else if (flag == "--perturb") {
            opt.perturb = true;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (opt.workload.empty()) usage("--workload is required");
    return opt;
}

std::string number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string metrics_json(const report& r) {
    std::ostringstream os;
    os << '[';
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const metric& m = r.metrics[i];
        os << (i ? ", " : "") << "{\"name\": \"" << m.name << "\", \"unit\": \"" << m.unit
           << "\", \"value\": " << number(m.value) << ", \"count\": " << m.count << '}';
    }
    os << ']';
    return os.str();
}

std::string trace_other_data(const options& opt, const report& r) {
    std::ostringstream os;
    os << "{\"provenance\": " << provenance_json(opt) << ", \"values\": {";
    for (std::size_t i = 0; i < r.trace_values.size(); ++i) {
        os << (i ? ", " : "") << '"' << r.trace_values[i].first
           << "\": " << number(r.trace_values[i].second);
    }
    os << "}, \"end_to_end\": " << metrics_json(r) << '}';
    return os.str();
}

}  // namespace

int main(int argc, char** argv) {
    const options opt = parse(argc, argv);
    fallsense::nn::set_simd_mode(fallsense::nn::simd_mode::native);
    try {
        report r;
        if (opt.workload == "steady_float") {
            r = run_steady_float(opt);
        } else if (opt.workload == "burst_wire_int8") {
            r = run_burst_wire_int8(opt);
        } else if (opt.workload == "sharded_capacity") {
            r = run_sharded_capacity(opt);
        } else {
            usage("unknown workload " + opt.workload);
        }
        if (r.perturbed) std::fprintf(stderr, "self-test: perturbation fired\n");
        if (!r.failures.empty()) {
            for (const std::string& f : r.failures) std::fprintf(stderr, "gate: %s\n", f.c_str());
            std::fprintf(stderr, "gate: FAILED (%zu findings)\n", r.failures.size());
            return 3;
        }
        if (!opt.trace_out.empty()) trace::write_chrome_trace(opt.trace_out, trace_other_data(opt, r));
        std::printf("provenance %s\n", provenance_json(opt).c_str());
        std::printf("{\"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                    static_cast<unsigned long long>(r.attempted),
                    static_cast<unsigned long long>(r.failed), metrics_json(r).c_str());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "rtbench: %s\n", e.what());
        return 2;
    }
}
