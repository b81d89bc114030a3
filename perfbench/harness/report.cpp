#include "report.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double tail_percentile(std::size_t samples) {
  static constexpr double kLadder[] = {99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  for (const double p : kLadder) {
    // Compare in integer hundredths of a percent so 1000 samples at p99
    // count exactly ten beyond, not 9.999...
    const auto beyond_x10000 =
        static_cast<long long>(samples) * (10000 - std::llround(p * 100.0));
    if (beyond_x10000 >= 10LL * 10000) return p;
  }
  return 0.0;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto n = values.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank - 1), values.end());
  return values[rank - 1];
}

double median(const std::vector<double>& values) { return quantile(values, 0.5); }

Summary summarize(const std::vector<double>& values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const auto at = [&](double q) {
    std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(s.count)));
    rank = std::clamp<std::size_t>(rank, 1, s.count);
    return sorted[rank - 1];
  };
  s.p50 = at(0.5);
  s.p95 = at(0.95);
  s.p99 = at(0.99);
  s.tail_pct = tail_percentile(s.count);
  s.tail = s.tail_pct > 0.0 ? at(s.tail_pct / 100.0) : sorted.back();
  return s;
}

std::vector<double> open_loop_schedule(std::size_t n, double rate_per_s) {
  if (!(rate_per_s > 0.0)) throw std::invalid_argument("open_loop_schedule: rate must be > 0");
  std::vector<double> out(n);
  const double gap_us = 1e6 / rate_per_s;
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<double>(i) * gap_us;
  return out;
}

bool backlog_grows(const std::vector<double>& intended_us, const std::vector<double>& done_us,
                   std::size_t windows) {
  if (intended_us.size() != done_us.size())
    throw std::invalid_argument("backlog_grows: series lengths differ");
  if (intended_us.empty() || windows < 2) return false;
  const double span = *std::max_element(intended_us.begin(), intended_us.end());
  if (!(span > 0.0)) return false;
  std::vector<std::size_t> outstanding(windows, 0);
  for (std::size_t w = 0; w < windows; ++w) {
    const double edge = span * static_cast<double>(w + 1) / static_cast<double>(windows);
    for (std::size_t i = 0; i < intended_us.size(); ++i) {
      const bool due = intended_us[i] < edge;
      const bool open = done_us[i] < 0.0 || done_us[i] > edge;
      if (due && open) ++outstanding[w];
    }
  }
  for (std::size_t w = 1; w < windows; ++w)
    if (outstanding[w] <= outstanding[w - 1]) return false;
  const std::size_t floor =
      std::max<std::size_t>(10, (intended_us.size() + 99) / 100);
  return outstanding.back() >= floor;
}

double knee_rate(const std::vector<LadderStep>& steps, double limit_us) {
  const auto passes = [&](const LadderStep& s) {
    return s.complete && !s.backlog_grew && s.tail_us <= limit_us;
  };
  std::size_t ok = 0;
  while (ok < steps.size() && passes(steps[ok])) ++ok;
  if (ok == 0) return 0.0;
  const LadderStep& last = steps[ok - 1];
  if (ok == steps.size()) return last.rate;
  const LadderStep& next = steps[ok];
  if (!next.complete || next.backlog_grew || !(next.tail_us > last.tail_us) ||
      !(last.tail_us > 0.0))
    return last.rate;
  double f = (std::log(limit_us) - std::log(last.tail_us)) /
             (std::log(next.tail_us) - std::log(last.tail_us));
  f = std::clamp(f, 0.0, 1.0);
  return last.rate * std::pow(next.rate / last.rate, f);
}

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

// --- Tracer. -----------------------------------------------------------------

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t Tracer::intern(std::string_view name) {
  if (auto it = name_ids_.find(name); it != name_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(std::string(name), id);
  return id;
}

Tracer::Id Tracer::begin(std::string_view name, std::uint64_t request) {
  Span span;
  span.name = intern(name);
  span.parent = open_;
  span.request = request;
  span.start_ns = now_ns();
  spans_.push_back(span);
  open_ = static_cast<Id>(spans_.size() - 1);
  return open_;
}

void Tracer::end(Id id) {
  Span& span = spans_[id];
  span.end_ns = now_ns();
  const std::int64_t dur = span.end_ns - span.start_ns;
  if (span.parent != kNone) spans_[span.parent].child_ns += dur;
  Totals& t = totals_[names_[span.name]];
  ++t.count;
  t.total_s += static_cast<double>(dur) * 1e-9;
  t.self_s += static_cast<double>(dur - span.child_ns) * 1e-9;
  open_ = span.parent;
}

void Tracer::account(std::string_view name, std::int64_t ns) {
  if (open_ != kNone) spans_[open_].child_ns += ns;
  auto it = totals_.find(name);
  if (it == totals_.end()) it = totals_.emplace(std::string(name), Totals{}).first;
  ++it->second.count;
  it->second.total_s += static_cast<double>(ns) * 1e-9;
  it->second.self_s += static_cast<double>(ns) * 1e-9;
}

Tracer::Totals Tracer::totals_for(std::string_view name) const {
  auto it = totals_.find(name);
  return it == totals_.end() ? Totals{} : it->second;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  for (const Span& s : spans_) {
    out << "{\"name\":" << json_string(names_[s.name]) << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":"
        << (s.parent == kNone ? -1LL : static_cast<long long>(s.parent))
        << ",\"request\":" << s.request
        << ",\"self_ns\":" << (s.end_ns - s.start_ns - s.child_ns) << "}\n";
  }
}

// --- JSON. -------------------------------------------------------------------

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  if (value == std::trunc(value) && std::fabs(value) < 1e15)
    return std::to_string(static_cast<long long>(value));
  char buf[32];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (const double v : values) out += (out.size() > 1 ? ", " : "") + json_number(v);
  return out + "]";
}

void JsonObject::key(std::string_view k) {
  if (!body_.empty()) body_ += ", ";
  body_ += json_string(k) + ": ";
}

JsonObject& JsonObject::num(std::string_view k, double value) {
  key(k);
  body_ += json_number(value);
  return *this;
}

JsonObject& JsonObject::integer(std::string_view k, long long value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::str(std::string_view k, std::string_view value) {
  key(k);
  body_ += json_string(value);
  return *this;
}

JsonObject& JsonObject::boolean(std::string_view k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::raw(std::string_view k, std::string_view json) {
  key(k);
  body_ += json;
  return *this;
}

}  // namespace perfbench
