#include "src/util/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string_view>
#include <tuple>
#include <utility>

#include "src/util/log.hpp"
#include "src/util/table.hpp"

namespace vcgt::trace {

namespace {

/// Per-thread bounded ring buffer. The owning thread appends; the writer
/// snapshots. Both take `mutex` — uncontended except at dump time.
struct Recorder {
  std::mutex mutex;
  std::vector<Event> ring;      ///< capacity-bounded storage
  std::size_t capacity = 0;
  std::size_t head = 0;         ///< next write position
  std::size_t count = 0;        ///< valid events (<= capacity)
  std::uint64_t dropped = 0;
  int track = 0;
  int depth = 0;  ///< open spans on this thread (owner-thread only)

  void push(Event ev) {
    std::scoped_lock lock(mutex);
    if (capacity == 0) return;
    if (ring.size() < capacity) {
      ring.push_back(std::move(ev));
      ++count;
    } else {
      ring[head] = std::move(ev);
      if (count < capacity) {
        ++count;
      } else {
        ++dropped;
      }
    }
    head = (head + 1) % capacity;
  }

  void reset(std::size_t cap) {
    std::scoped_lock lock(mutex);
    ring.clear();
    ring.reserve(std::min<std::size_t>(cap, 1024));
    capacity = cap;
    head = count = 0;
    dropped = 0;
  }

  /// Oldest-first copy of the ring contents.
  std::vector<Event> drain_copy() {
    std::scoped_lock lock(mutex);
    std::vector<Event> out;
    out.reserve(count);
    if (ring.size() < capacity) {
      out = ring;  // not yet wrapped: insertion order == age order
    } else {
      for (std::size_t i = 0; i < count; ++i) {
        out.push_back(ring[(head + i) % capacity]);
      }
    }
    return out;
  }
};

struct Registry {
  std::mutex mutex;
  std::vector<std::shared_ptr<Recorder>> recorders;
  std::size_t capacity = 1 << 16;
};

Registry& registry() {
  static Registry r;
  return r;
}

std::atomic<bool> g_enabled{false};

thread_local std::shared_ptr<Recorder> t_recorder;
thread_local int t_track = 0;

Recorder& recorder() {
  if (!t_recorder) {
    auto rec = std::make_shared<Recorder>();
    rec->track = t_track;
    auto& reg = registry();
    std::scoped_lock lock(reg.mutex);
    rec->reset(reg.capacity);
    reg.recorders.push_back(rec);
    t_recorder = std::move(rec);
  }
  return *t_recorder;
}

void fill_args(Event& ev, const Event::Arg* args, int nargs) {
  ev.nargs = std::min(nargs, Event::kMaxArgs);
  for (int i = 0; i < ev.nargs; ++i) ev.args[i] = args[i];
}

/// JSON string escaping for event names (the only free-form strings we emit).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::int64_t now_ns() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

void enable(std::size_t per_thread_capacity) {
  auto& reg = registry();
  {
    std::scoped_lock lock(reg.mutex);
    reg.capacity = std::max<std::size_t>(per_thread_capacity, 16);
    for (auto& rec : reg.recorders) rec->reset(reg.capacity);
  }
  g_enabled.store(true, std::memory_order_release);
}

void disable() { g_enabled.store(false, std::memory_order_release); }

void clear() {
  auto& reg = registry();
  std::scoped_lock lock(reg.mutex);
  for (auto& rec : reg.recorders) rec->reset(reg.capacity);
}

void set_track(int track) {
  t_track = track;
  if (t_recorder) {
    std::scoped_lock lock(t_recorder->mutex);
    t_recorder->track = track;
  }
}

int current_track() { return t_track; }

int current_depth() { return t_recorder ? t_recorder->depth : 0; }

std::uint64_t dropped() {
  auto& reg = registry();
  std::scoped_lock lock(reg.mutex);
  std::uint64_t total = 0;
  for (auto& rec : reg.recorders) {
    std::scoped_lock rl(rec->mutex);
    total += rec->dropped;
  }
  return total;
}

Span::Span(const char* name) {
  if (!enabled()) return;
  name_ = name;
  begin_ns_ = now_ns();
  active_ = true;
  ++recorder().depth;
}

void Span::arg(const char* key, double value) {
  if (!active_ || nargs_ >= Event::kMaxArgs) return;
  args_[nargs_++] = {key, value};
}

Span::~Span() {
  if (!active_) return;
  Recorder& rec = recorder();
  --rec.depth;
  Event ev;
  ev.name = std::move(name_);
  ev.track = rec.track;
  ev.ts_ns = begin_ns_;
  ev.dur_ns = now_ns() - begin_ns_;
  ev.phase = 'X';
  ev.depth = rec.depth;
  fill_args(ev, args_, nargs_);
  rec.push(std::move(ev));
}

void complete(const char* name, std::int64_t begin_ns, std::int64_t dur_ns,
              std::initializer_list<Event::Arg> args) {
  if (!enabled()) return;
  Recorder& rec = recorder();
  Event ev;
  ev.name = name;
  ev.track = rec.track;
  ev.ts_ns = begin_ns;
  ev.dur_ns = dur_ns;
  ev.phase = 'X';
  ev.depth = rec.depth;
  fill_args(ev, args.begin(), static_cast<int>(args.size()));
  rec.push(std::move(ev));
}

void counter(const char* name, double value) {
  if (!enabled()) return;
  Recorder& rec = recorder();
  Event ev;
  ev.name = name;
  ev.track = rec.track;
  ev.ts_ns = now_ns();
  ev.phase = 'C';
  ev.args[0] = {"value", value};
  ev.nargs = 1;
  rec.push(std::move(ev));
}

void instant(const char* name) {
  if (!enabled()) return;
  Recorder& rec = recorder();
  Event ev;
  ev.name = name;
  ev.track = rec.track;
  ev.ts_ns = now_ns();
  ev.phase = 'i';
  rec.push(std::move(ev));
}

std::vector<Event> snapshot() {
  std::vector<std::shared_ptr<Recorder>> recs;
  {
    auto& reg = registry();
    std::scoped_lock lock(reg.mutex);
    recs = reg.recorders;
  }
  std::vector<Event> out;
  for (auto& rec : recs) {
    auto part = rec->drain_copy();
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  std::stable_sort(out.begin(), out.end(), [](const Event& a, const Event& b) {
    return std::tie(a.track, a.ts_ns) < std::tie(b.track, b.ts_ns);
  });
  return out;
}

std::vector<SummaryRow> summary() {
  std::map<std::string, SummaryRow> agg;
  for (const Event& ev : snapshot()) {
    if (ev.phase != 'X') continue;
    SummaryRow& row = agg[ev.name];
    row.name = ev.name;
    ++row.count;
    row.total_seconds += static_cast<double>(ev.dur_ns) * 1e-9;
    for (int i = 0; i < ev.nargs; ++i) {
      if (std::string_view(ev.args[i].key) == "bytes") {
        row.bytes += static_cast<std::uint64_t>(ev.args[i].value);
      } else if (std::string_view(ev.args[i].key) == "msgs") {
        row.msgs += static_cast<std::uint64_t>(ev.args[i].value);
      }
    }
  }
  std::vector<SummaryRow> rows;
  rows.reserve(agg.size());
  for (auto& [name, row] : agg) {
    row.mean_seconds = row.count ? row.total_seconds / static_cast<double>(row.count) : 0.0;
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(), [](const SummaryRow& a, const SummaryRow& b) {
    return a.total_seconds > b.total_seconds;
  });
  return rows;
}

void write_summary(std::ostream& os) {
  util::Table t({"span", "count", "total s", "mean ms", "MB", "msgs"});
  for (const auto& row : summary()) {
    t.add_row({row.name, std::to_string(row.count), util::Table::num(row.total_seconds, 4),
               util::Table::num(row.mean_seconds * 1e3, 4),
               util::Table::num(static_cast<double>(row.bytes) / 1e6, 3),
               std::to_string(row.msgs)});
  }
  t.print_text(os, "trace summary");
  if (const auto d = dropped()) {
    os << "(ring overflow: " << d << " events dropped)\n";
  }
}

void write_chrome_trace(std::ostream& os) {
  const auto events = snapshot();
  os << "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };
  // Track metadata: one named lane per rank.
  std::vector<int> tracks;
  for (const Event& ev : events) {
    if (std::find(tracks.begin(), tracks.end(), ev.track) == tracks.end()) {
      tracks.push_back(ev.track);
    }
  }
  std::sort(tracks.begin(), tracks.end());
  os << "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"vcgt\"}}";
  first = false;
  for (const int t : tracks) {
    sep();
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << t
       << ",\"args\":{\"name\":\"rank " << t << "\"}}";
  }
  char buf[64];
  for (const Event& ev : events) {
    sep();
    std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ev.ts_ns) * 1e-3);
    os << "{\"name\":\"" << json_escape(ev.name) << "\",\"ph\":\"" << ev.phase
       << "\",\"pid\":0,\"tid\":" << ev.track << ",\"ts\":" << buf;
    if (ev.phase == 'X') {
      std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ev.dur_ns) * 1e-3);
      os << ",\"dur\":" << buf;
    }
    if (ev.phase == 'i') os << ",\"s\":\"t\"";
    if (ev.nargs > 0) {
      os << ",\"args\":{";
      for (int i = 0; i < ev.nargs; ++i) {
        if (i) os << ",";
        std::snprintf(buf, sizeof buf, "%.17g", ev.args[i].value);
        os << "\"" << json_escape(ev.args[i].key) << "\":" << buf;
      }
      os << "}";
    }
    os << "}";
  }
  os << "\n]}\n";
}

bool write_chrome_trace(const std::string& path) {
  std::ofstream f(path);
  if (!f) {
    util::error("trace: cannot open '{}' for writing", path);
    return false;
  }
  write_chrome_trace(f);
  return static_cast<bool>(f);
}

}  // namespace vcgt::trace
