#include "trace_table.h"

#include <algorithm>
#include <map>

namespace perfbench {

std::string LayerOf(const std::string& span_name) {
  const size_t colon = span_name.find(':');
  if (colon != std::string::npos) return span_name.substr(0, colon);
  const std::string area = span_name.substr(0, span_name.find('/'));
  if (area == "shard" || area == "incr" || area == "serve") return area;
  return "core";
}

std::vector<LayerTime> SelfTimeByLayer(
    const std::vector<dmc::TraceEvent>& events) {
  std::map<int, std::vector<const dmc::TraceEvent*>> lanes;
  for (const dmc::TraceEvent& e : events) lanes[e.tid].push_back(&e);
  std::map<std::string, LayerTime> layers;
  for (auto& [lane, spans] : lanes) {
    // Parents before their children: by start, then longest first.
    std::sort(spans.begin(), spans.end(),
              [](const dmc::TraceEvent* a, const dmc::TraceEvent* b) {
                if (a->ts_micros != b->ts_micros) {
                  return a->ts_micros < b->ts_micros;
                }
                return a->dur_micros > b->dur_micros;
              });
    std::vector<int64_t> self(spans.size());
    std::vector<size_t> open;  // indices of the enclosing spans
    for (size_t i = 0; i < spans.size(); ++i) {
      const dmc::TraceEvent& e = *spans[i];
      self[i] = e.dur_micros;
      while (!open.empty()) {
        const dmc::TraceEvent& p = *spans[open.back()];
        if (e.ts_micros >= p.ts_micros + p.dur_micros) {
          open.pop_back();
        } else {
          break;
        }
      }
      if (!open.empty()) self[open.back()] -= e.dur_micros;
      open.push_back(i);
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      LayerTime& lt = layers[LayerOf(spans[i]->name)];
      lt.self_seconds += std::max<int64_t>(self[i], 0) * 1e-6;
      ++lt.spans;
    }
  }
  std::vector<LayerTime> out;
  for (auto& [name, lt] : layers) {
    lt.layer = name;
    out.push_back(lt);
  }
  std::sort(out.begin(), out.end(), [](const LayerTime& a, const LayerTime& b) {
    return a.self_seconds > b.self_seconds;
  });
  return out;
}

}  // namespace perfbench
