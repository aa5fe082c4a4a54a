#include "report.h"

#include <sys/stat.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <unordered_map>

#include "core/messages.h"
#include "wire/codec.h"

namespace rtbench {

namespace {

using obiwan::rmi::MessageKind;

// Message kinds the per-kind layer metrics report.
constexpr MessageKind kReportedKinds[] = {
    MessageKind::kGet,    MessageKind::kPut,    MessageKind::kCommit, MessageKind::kPush,
    MessageKind::kCall,   MessageKind::kLookup, MessageKind::kRelease};

// Batch sizes (records per get reply) replicate_graph sends: incremental
// 1 and 16, cluster 32, the 128-node closure.
constexpr std::size_t kWireBatches[] = {1, 16, 32, 128};

// Linear-interpolated quantile; 0 for no samples.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string KindLabel(MessageKind kind) { return std::string(obiwan::rmi::KindName(kind)); }

struct Figures {
  double ops_per_s, op_us_p50, cpu_us_per_op;
};

Figures CoreFigures(const Harness& h) {
  std::vector<double> total;
  for (const OpTiming& t : h.Samples()) total.push_back(static_cast<double>(t.total_ns) / 1e3);
  const auto n = static_cast<double>(h.completed);
  return Figures{Ratio(n, h.wall_s), Quantile(total, 0.5),
                 Ratio(h.usage_after.cpu_us - h.usage_before.cpu_us, n)};
}

// Request spans of one thread, sorted by start, for "time outside
// Transport::Request" (client requests on a thread never overlap: they are
// synchronous).
class RequestIndex {
 public:
  explicit RequestIndex(const std::vector<SpanRecord>& spans) {
    for (const SpanRecord& s : spans) {
      if (s.kind == SpanKind::kRequest) by_thread_[s.thread].push_back({s.start, s.end});
    }
    for (auto& [thread, v] : by_thread_) std::sort(v.begin(), v.end());
  }

  // Summed duration of the thread's request spans inside [start, end].
  std::int64_t Within(std::uint32_t thread, std::int64_t start, std::int64_t end) const {
    auto it = by_thread_.find(thread);
    if (it == by_thread_.end()) return 0;
    const auto& v = it->second;
    std::int64_t sum = 0;
    for (auto r = std::lower_bound(v.begin(), v.end(), std::pair{start, std::int64_t{0}});
         r != v.end() && r->first <= end; ++r) {
      if (r->second <= end) sum += r->second - r->first;
    }
    return sum;
  }

 private:
  std::unordered_map<std::uint32_t, std::vector<std::pair<std::int64_t, std::int64_t>>> by_thread_;
};

void WriteSpans(const Harness& h, const std::vector<SpanRecord>& spans) {
  const std::string& dir = h.options().out_dir;
  ::mkdir(dir.c_str(), 0755);
  // One file per workload, overwritten by its next traced run.
  const std::string path = dir + "/spans-" + h.options().workload + ".tsv";
  std::ofstream out(path);
  out << "id\tparent\tthread\tkind\tsite\tmsg\tstart_ns\tend_ns\n";
  static constexpr const char* kKindNames[] = {"op", "fault", "commit", "request", "serve"};
  for (const SpanRecord& s : spans) {
    out << s.id << '\t' << s.parent << '\t' << s.thread << '\t'
        << kKindNames[static_cast<int>(s.kind)] << '\t' << int{s.site} << '\t'
        << (s.msg != 0 ? obiwan::rmi::KindName(static_cast<MessageKind>(s.msg)) : "-")
        << '\t' << s.start << '\t' << s.end << '\n';
  }
  if (!out) std::cerr << "rtbench: could not write " << path << "\n";
}

// Re-run the public codec on one captured get reply per batch size.
void WireMetrics(std::vector<Metric>& out) {
  std::map<std::size_t, obiwan::core::GetReply> by_size;
  for (const obiwan::Bytes& bytes : ReplyCapture::Instance().Take()) {
    obiwan::wire::Reader r(obiwan::AsView(bytes));
    auto reply = obiwan::wire::Decode<obiwan::core::GetReply>(r);
    if (r.ok()) by_size.try_emplace(reply.objects.size(), std::move(reply));
  }
  for (std::size_t batch : kWireBatches) {
    double encode_ns = 0;
    double decode_ns = 0;
    if (auto it = by_size.find(batch); it != by_size.end()) {
      const obiwan::core::GetReply& reply = it->second;
      const std::size_t reps = std::max<std::size_t>(8, 4096 / batch);
      std::size_t sink = 0;
      obiwan::Bytes encoded;
      std::int64_t start = NowNs();
      for (std::size_t i = 0; i < reps; ++i) {
        obiwan::wire::Writer w;
        obiwan::wire::Encode(w, reply);
        encoded = std::move(w).Take();
        sink += encoded.size();
      }
      encode_ns = static_cast<double>(NowNs() - start) / static_cast<double>(reps * batch);
      start = NowNs();
      for (std::size_t i = 0; i < reps; ++i) {
        obiwan::wire::Reader r(obiwan::AsView(encoded));
        sink += obiwan::wire::Decode<obiwan::core::GetReply>(r).objects.size();
      }
      decode_ns = static_cast<double>(NowNs() - start) / static_cast<double>(reps * batch);
      if (sink == 0) std::cerr << "rtbench: empty codec re-run\n";
    }
    out.push_back({"wire.encode_ns_per_record.b" + std::to_string(batch), encode_ns, "ns"});
    out.push_back({"wire.decode_ns_per_record.b" + std::to_string(batch), decode_ns, "ns"});
  }
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

}  // namespace

std::vector<Metric> EndToEndMetrics(const Harness& h) {
  std::vector<double> first;
  std::vector<double> total;
  for (const OpTiming& t : h.Samples()) {
    first.push_back(static_cast<double>(t.first_ns) / 1e3);
    total.push_back(static_cast<double>(t.total_ns) / 1e3);
  }
  const auto n = static_cast<double>(h.completed);
  const TrafficCount traffic = h.traffic_after - h.traffic_before;
  const Figures core = CoreFigures(h);
  return {
      {"setup_s", static_cast<double>(h.setup_end_ns - h.options().t0_ns) / 1e9, "s"},
      {"ops_per_s", core.ops_per_s, "ops/s"},
      {"first_result_us_p50", Quantile(first, 0.5), "us"},
      {"op_us_p50", core.op_us_p50, "us"},
      {"op_us_p90", Quantile(total, 0.9), "us"},
      {"cpu_us_per_op", core.cpu_us_per_op, "us"},
      {"wire_bytes_per_op",
       Ratio(static_cast<double>(traffic.request_bytes + traffic.reply_bytes), n), "bytes"},
      {"round_trips_per_op", Ratio(static_cast<double>(traffic.requests), n), "count"},
      {"peak_rss_mib", h.usage_after.max_rss_mib, "MiB"},
  };
}

std::vector<Metric> LayerMetrics(const Harness& h) {
  std::vector<Metric> out;
  const auto n = static_cast<double>(h.completed);
  const TrafficCount traffic = h.traffic_after - h.traffic_before;
  const std::vector<SpanRecord> spans = SpanLog::Instance().Collect();
  WriteSpans(h, spans);

  // net
  for (MessageKind kind : kReportedKinds) {
    out.push_back({"net.requests_per_op." + KindLabel(kind),
                   Ratio(static_cast<double>(traffic.by_kind[static_cast<std::size_t>(kind)]), n),
                   "count"});
  }
  out.push_back({"net.request_bytes_per_op", Ratio(static_cast<double>(traffic.request_bytes), n),
                 "bytes"});
  out.push_back({"net.reply_bytes_per_op", Ratio(static_cast<double>(traffic.reply_bytes), n),
                 "bytes"});
  {
    std::vector<double> us;
    for (std::int64_t ns : RequestPairing::Instance().TakeTransportNs()) {
      us.push_back(static_cast<double>(ns) / 1e3);
    }
    out.push_back({"net.transport_us_p50", Quantile(us, 0.5), "us"});
  }

  // rmi: handler time by kind, on the serving site.
  std::map<std::uint8_t, std::vector<double>> serve_us;
  for (const SpanRecord& s : spans) {
    if (s.kind == SpanKind::kServe) {
      serve_us[s.msg].push_back(static_cast<double>(s.end - s.start) / 1e3);
    }
  }
  for (MessageKind kind : kReportedKinds) {
    out.push_back({"rmi.serve_us_p50." + KindLabel(kind),
                   Quantile(serve_us[static_cast<std::uint8_t>(kind)], 0.5), "us"});
  }

  // core: self time = span minus the thread's Transport::Request spans in it.
  const RequestIndex requests(spans);
  double op_self_ns = 0;
  std::vector<double> fault_self_us;
  std::vector<double> commit_self_us;
  for (const SpanRecord& s : spans) {
    const double self =
        static_cast<double>(s.end - s.start - requests.Within(s.thread, s.start, s.end));
    if (s.kind == SpanKind::kOp) op_self_ns += self;
    if (s.kind == SpanKind::kFault) fault_self_us.push_back(self / 1e3);
    if (s.kind == SpanKind::kCommit) commit_self_us.push_back(self / 1e3);
  }
  out.push_back({"core.client_self_us_per_op", Ratio(op_self_ns / 1e3, n), "us"});
  out.push_back({"core.fault_self_us_p50", Quantile(fault_self_us, 0.5), "us"});
  {
    std::vector<double> probe;
    for (std::int64_t ns : h.probe_ns) probe.push_back(static_cast<double>(ns));
    out.push_back({"core.object_table.probe_ns_p50", Quantile(probe, 0.5), "ns"});
  }

  // core.fanout: the master's (site 0) pushes issued while it served a put.
  {
    std::vector<std::pair<std::int64_t, std::int64_t>> pushes;
    for (const SpanRecord& s : spans) {
      if (s.kind == SpanKind::kRequest && s.site == 0 &&
          s.msg == static_cast<std::uint8_t>(MessageKind::kPush)) {
        pushes.push_back({s.start, s.end});
      }
    }
    std::sort(pushes.begin(), pushes.end());
    std::vector<double> makespan_us;
    double sum_us = 0;
    for (const SpanRecord& s : spans) {
      if (s.kind != SpanKind::kServe || s.site != 0 ||
          s.msg != static_cast<std::uint8_t>(MessageKind::kPut)) {
        continue;
      }
      std::int64_t first = -1;
      std::int64_t last = -1;
      for (auto p = std::lower_bound(pushes.begin(), pushes.end(),
                                     std::pair{s.start, std::int64_t{0}});
           p != pushes.end() && p->first <= s.end; ++p) {
        if (first < 0) first = p->first;
        last = std::max(last, p->second);
        sum_us += static_cast<double>(p->second - p->first) / 1e3;
      }
      if (first >= 0) makespan_us.push_back(static_cast<double>(last - first) / 1e3);
    }
    out.push_back({"core.fanout.push_makespan_us_p50", Quantile(makespan_us, 0.5), "us"});
    out.push_back({"core.fanout.push_us_sum_per_put",
                   Ratio(sum_us, static_cast<double>(makespan_us.size())), "us"});
  }

  WireMetrics(out);

  // consistency
  const double puts = static_cast<double>(h.hooks_after.puts - h.hooks_before.puts);
  out.push_back({"consistency.hook_ns_per_put",
                 Ratio(static_cast<double>(h.hooks_after.put_hook_ns - h.hooks_before.put_hook_ns),
                       puts),
                 "ns"});
  out.push_back({"consistency.hook_calls_per_op",
                 Ratio(static_cast<double>(h.hooks_after.calls - h.hooks_before.calls), n),
                 "count"});

  // tx
  out.push_back({"tx.commit_self_us_p50", Quantile(commit_self_us, 0.5), "us"});

  // process
  out.push_back({"proc.ctx_switches_per_op",
                 Ratio(static_cast<double>(h.usage_after.ctx_switches - h.usage_before.ctx_switches),
                       n),
                 "count"});
  out.push_back({"proc.minor_faults_per_op",
                 Ratio(static_cast<double>(h.usage_after.minor_faults - h.usage_before.minor_faults),
                       n),
                 "count"});
  out.push_back({"proc.threads_peak", static_cast<double>(ThreadPeak::Instance().peak()), "count"});

  // The traced run's own end-to-end figures, to set against the untraced
  // runs' medians (the cost of tracing).
  const Figures traced = CoreFigures(h);
  out.push_back({"trace.ops_per_s", traced.ops_per_s, "ops/s"});
  out.push_back({"trace.op_us_p50", traced.op_us_p50, "us"});
  out.push_back({"trace.cpu_us_per_op", traced.cpu_us_per_op, "us"});
  return out;
}

void PrintResult(const Harness& h, const std::vector<Metric>& metrics) {
  std::cout << "workload " << h.options().workload << " seed " << h.options().seed
            << (h.options().trace ? " (traced)" : "") << ": " << h.completed
            << " ops in " << JsonNumber(h.wall_s) << " s\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << JsonNumber(m.value) << " " << m.unit << "\n";
  }
  std::string json = "{\"correct\": ";
  json += h.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(h.attempted);
  json += ", \"failed\": " + std::to_string(h.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + JsonNumber(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

}  // namespace rtbench
