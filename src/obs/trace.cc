#include "obs/trace.h"

#include <fstream>
#include <sstream>

#include "common/logging.h"
#include "obs/json.h"

namespace screp::obs {

Tracer::Tracer(size_t capacity) : ring_(capacity) {}

void Tracer::Add(const TraceSpan& span) {
  for (const Sink& sink : sinks_) sink(span);
  if (enabled_) ring_.Push(span);
}

void Tracer::SetProcessName(int32_t pid, std::string name) {
  process_names_[pid] = std::move(name);
}

std::string Tracer::ToChromeJson() const {
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& [pid, name] : process_names_) {
    if (!first) out << ",";
    first = false;
    out << "{\"ph\":\"M\",\"pid\":" << pid
        << ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\""
        << JsonEscape(name) << "\"}}";
  }
  for (size_t i = 0; i < ring_.size(); ++i) {
    const TraceSpan& span = ring_[i];
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << JsonEscape(span.name) << "\",\"cat\":\""
        << JsonEscape(span.category)
        << "\",\"ph\":\"X\",\"ts\":" << span.start
        << ",\"dur\":" << span.duration << ",\"pid\":" << span.pid
        << ",\"tid\":" << span.tid << ",\"args\":{\"txn\":" << span.txn;
    if (span.arg_name != nullptr) {
      out << ",\"" << JsonEscape(span.arg_name) << "\":" << span.arg_value;
    }
    out << "}}";
  }
  out << "]}";
  return out.str();
}

Status Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream file(path, std::ios::trunc);
  if (!file.is_open()) {
    return Status::IOError("cannot open trace output: " + path);
  }
  file << ToChromeJson();
  file.close();
  if (!file.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace screp::obs
