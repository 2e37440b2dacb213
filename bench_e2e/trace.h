// Bench-local span recorder for the traced run.
//
// Spans are recorded in memory from the benchmark's own code, around its
// calls into each layer, and written once at exit as Chrome trace-event
// JSON (loads in Perfetto and chrome://tracing). One recorder serves one
// thread: the traced job calls the layers one after another.
#pragma once

#include <chrono>
#include <fstream>
#include <iomanip>
#include <map>
#include <string>
#include <vector>

namespace e2e {

class TraceRecorder {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;  ///< since the recorder was created
    double end_us = -1.0;   ///< < 0 while the span is open
    int parent = -1;        ///< index into spans(), -1 for a root
    int job = 0;

    double ms() const { return (end_us - start_us) / 1000.0; }
  };

  /// Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(TraceRecorder& rec, std::string name) : rec_(rec), id_(rec.open(std::move(name))) {}
    ~Scope() { rec_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Closes the span before the end of the scope and returns its duration
    /// in ms.
    double close() {
      rec_.close(id_);
      return rec_.spans_[id_].ms();
    }

   private:
    TraceRecorder& rec_;
    int id_;
  };

  void set_job(int job) { job_ = job; }

  const std::vector<Span>& spans() const { return spans_; }

  /// A span's duration minus the time its direct children cover (children
  /// of one span never overlap: the traced job is sequential).
  double self_ms(int index) const {
    double self = spans_[index].ms();
    for (const Span& s : spans_)
      if (s.parent == index) self -= s.ms();
    return self;
  }

  /// Per span name, the self time of every span with that name, in order.
  std::map<std::string, std::vector<double>> self_ms_by_name() const {
    std::map<std::string, std::vector<double>> out;
    for (int i = 0; i < static_cast<int>(spans_.size()); ++i)
      out[spans_[i].name].push_back(self_ms(i));
    return out;
  }

  /// Writes the spans as Chrome trace-event JSON ("X" complete events).
  bool write_chrome_json(const std::string& path) const {
    std::ofstream out(path);
    out << std::fixed << std::setprecision(3);  // microseconds, to the ns
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
          << "\", \"cat\": \"e2e\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << s.start_us << ", \"dur\": " << (s.end_us - s.start_us)
          << ", \"args\": {\"job\": " << s.job << ", \"parent\": \""
          << (s.parent < 0 ? "" : spans_[s.parent].name) << "\"}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0_)
        .count();
  }

  int open(std::string name) {
    spans_.push_back({std::move(name), now_us(), -1.0, open_, job_});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }

  void close(int id) {
    if (spans_[id].end_us >= 0.0) return;  // closed early through Scope::close
    spans_[id].end_us = now_us();
    open_ = spans_[id].parent;
  }

  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  int open_ = -1;
  int job_ = 0;
};

}  // namespace e2e
