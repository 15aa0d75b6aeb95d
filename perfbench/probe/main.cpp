#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "probe.hpp"

namespace perfbench {

Sequence::Sequence(std::string kind, std::size_t distinct, std::uint64_t seed)
    : kind_(std::move(kind)), distinct_(distinct), rng_(seed ^ 0x5eedULL) {
  if (distinct_ == 0) throw std::invalid_argument("sequence: no lines");
  if (kind_ != "random" && kind_ != "cyclic" && kind_ != "dupes") {
    throw std::invalid_argument("sequence: unknown kind " + kind_);
  }
  if (kind_ == "dupes" && distinct_ % 3 != 0) {
    throw std::invalid_argument("sequence: dupes needs line triples");
  }
}

std::uint32_t Sequence::next() {
  const std::uint64_t p = position_++;
  if (kind_ == "cyclic") return static_cast<std::uint32_t>(p % distinct_);
  if (kind_ == "random") {
    return static_cast<std::uint32_t>(
        rng_.range(0, static_cast<std::int64_t>(distinct_) - 1));
  }
  constexpr std::size_t kRecent = 16;
  const std::size_t originals = distinct_ / 3;
  if (recent_.empty() || rng_.unit() <= 0.05) {
    const auto original =
        static_cast<std::uint32_t>(next_original_++ % originals);
    if (recent_.size() < kRecent) {
      recent_.push_back(original);
    } else {
      recent_[recent_head_] = original;
      recent_head_ = (recent_head_ + 1) % kRecent;
    }
    return 3 * original;
  }
  const std::uint32_t original = recent_[static_cast<std::size_t>(
      rng_.range(0, static_cast<std::int64_t>(recent_.size()) - 1))];
  return 3 * original + static_cast<std::uint32_t>(rng_.range(1, 2));
}

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected argument: " + arg);
    }
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      kv_.emplace_back(arg.substr(2), "true");
    } else {
      kv_.emplace_back(arg.substr(2, eq - 2), arg.substr(eq + 1));
    }
  }
}

bool Args::has(const std::string& key) const {
  return std::any_of(kv_.begin(), kv_.end(),
                     [&](const auto& kv) { return kv.first == key; });
}

std::string Args::get(const std::string& key,
                      const std::string& fallback) const {
  for (const auto& [k, v] : kv_) {
    if (k == key) return v;
  }
  return fallback;
}

std::int64_t Args::get_int(const std::string& key,
                           std::int64_t fallback) const {
  return has(key) ? std::stoll(get(key)) : fallback;
}

double Args::get_double(const std::string& key, double fallback) const {
  return has(key) ? std::stod(get(key)) : fallback;
}

std::vector<std::string> Args::all(const std::string& key) const {
  std::vector<std::string> out;
  for (const auto& [k, v] : kv_) {
    if (k == key) out.push_back(v);
  }
  return out;
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Stats::set(const std::string& key, double value) {
  fields_[key] = number(value);
}

void Stats::set(const std::string& key, const std::string& value) {
  fields_[key] = quoted(value);
}

void Stats::set(const std::string& key, const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    out += number(values[i]);
  }
  fields_[key] = out + "]";
}

void Stats::write(const std::string& path) const {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : fields_) {
    if (!first) out += ',';
    first = false;
    out += quoted(k) + ":" + v;
  }
  write_file(path, out + "}\n");
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
  if (!out) throw std::runtime_error("cannot write " + path);
}

Expected::Expected(const std::string& path) {
  for (const std::string& line : read_lines(path)) {
    const std::size_t comma = line.find(',');
    if (line.rfind("{\"index\":", 0) != 0 || comma == std::string::npos) {
      throw std::runtime_error("reference line without an index: " + line);
    }
    tails_.push_back(line.substr(comma));
  }
}

bool Expected::matches(std::uint32_t id, std::uint64_t position,
                       const char* line, std::size_t size) const {
  if (id >= tails_.size()) return false;
  char head[40];
  const int n = std::snprintf(head, sizeof(head), "{\"index\":%llu",
                              static_cast<unsigned long long>(position));
  const auto head_size = static_cast<std::size_t>(n);
  const std::string& tail = tails_[id];
  return size == head_size + tail.size() &&
         std::memcmp(line, head, head_size) == 0 &&
         std::memcmp(line + head_size, tail.data(), tail.size()) == 0;
}

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const auto idx = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(sorted.size())));
  return sorted[idx - 1];
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::cerr << "usage: perfbench_probe "
                 "<gen|reference|drive-batch|drive-serve|replay> [--k=v...]\n";
    return 2;
  }
  const std::string command = argv[1];
  try {
    const Args args(argc, argv, 2);
    if (command == "gen") return cmd_gen(args);
    if (command == "reference") return cmd_reference(args);
    if (command == "drive-batch") return cmd_drive_batch(args);
    if (command == "drive-serve") return cmd_drive_serve(args);
    if (command == "replay") return cmd_replay(args);
    std::cerr << "perfbench_probe: unknown command " << command << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_probe " << command << ": " << e.what() << "\n";
    return 1;
  }
}
