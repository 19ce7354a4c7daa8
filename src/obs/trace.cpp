#include "obs/trace.hpp"

#include <atomic>
#include <stdexcept>

#include "obs/json.hpp"

namespace quicksand::obs {

namespace {

std::atomic<TraceSink*> g_trace{nullptr};

/// One event as a JSONL line: only 'X' events carry `dur`, and a zero
/// `tid` is left out.
std::string JsonlLine(std::string_view name, char phase, std::int64_t ts_us, int depth,
                      std::int64_t dur_us, int tid, const TraceSink::Args& args) {
  std::string line = "{\"name\":\"" + JsonValue::Escape(name) + "\",\"ph\":\"";
  line += phase;
  line += "\",\"ts\":" + std::to_string(ts_us) + ",\"depth\":" + std::to_string(depth);
  if (phase == 'X') line += ",\"dur\":" + std::to_string(dur_us);
  if (tid != 0) line += ",\"tid\":" + std::to_string(tid);
  if (!args.empty()) {
    line += ",\"args\":{";
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (i > 0) line += ',';
      line += '"' + JsonValue::Escape(args[i].first) + "\":\"" +
              JsonValue::Escape(args[i].second) + '"';
    }
    line += '}';
  }
  line += "}\n";
  return line;
}

}  // namespace

TraceSink::TraceSink(const std::string& jsonl_path) : out_(jsonl_path) {
  if (!out_) throw std::runtime_error("TraceSink: cannot open '" + jsonl_path + "'");
}

TraceSink::~TraceSink() {
  if (GlobalTrace() == this) SetGlobalTrace(nullptr);
}

void TraceSink::Instant(std::string_view name, const Args& args) {
  const std::lock_guard<std::mutex> lock(mutex_);
  out_ << JsonlLine(name, 'i', clock_.ElapsedUs(), /*depth=*/0, /*dur_us=*/0, /*tid=*/0,
                    args);
}

void TraceSink::Complete(std::string_view name, std::int64_t dur_us, int depth,
                         int tid, const Args& args) {
  const std::lock_guard<std::mutex> lock(mutex_);
  out_ << JsonlLine(name, 'X', clock_.ElapsedUs() - dur_us, depth, dur_us, tid, args);
}

TraceSink* GlobalTrace() noexcept { return g_trace.load(std::memory_order_acquire); }

void SetGlobalTrace(TraceSink* sink) noexcept {
  g_trace.store(sink, std::memory_order_release);
}

}  // namespace quicksand::obs
