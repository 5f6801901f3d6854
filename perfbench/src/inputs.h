// Seeded request streams built from the Table I trace generator.
//
// A desktop is one generated machine trace under a key prefix. Writes are
// the trace's own write/delete events, replayed in trace order with their
// timestamps from a seeded starting offset; reads draw keys in proportion
// to the trace's per-key read counters. Every key is pinned to one
// connection by hash, so each key's writes reach the daemon in schedule
// order and the value every GET must return is known when the schedule is
// built.
//
// Recorded time: the machines' initial configuration is preloaded one key
// every kPreloadSpacing of recorded time, and the trace's writes follow,
// shifted to start after the preload. Preloading every key at one
// timestamp would hand the daemon's online co-modification tracker one
// burst holding every key, whose pair table grows with the square of the
// key count (it exhausted 15 GB for the serve-memory fleet).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "api/command.h"
#include "common.h"
#include "common/rng.h"
#include "openloop.h"
#include "workload/generator.h"
#include "workload/profiles.h"

namespace perfbench {

enum class OpKind : uint8_t { kGet = 0, kPut = 1, kDelete = 2 };

inline constexpr ocasta::TimeMicros kPreloadSpacing = 2'000'000;

struct Desktop {
  std::string prefix;
  const ocasta::MachineTrace* machine = nullptr;
  std::vector<size_t> writes;  // Indices of write/delete events in the trace.
  std::vector<std::string> read_keys;
  std::vector<double> read_cum;  // Cumulative read counts, for weighted draws.
  size_t cursor = 0;
};

// One timed phase of a workload: a fixed offered rate for a fixed time.
struct Phase {
  std::vector<Slot> slots;
  std::vector<ocasta::api::Command> cmds;
  std::vector<OpKind> kinds;
  std::vector<std::optional<ocasta::Value>> expect;  // GET: value it must return.
  uint64_t user_bytes = 0;                           // Key + value bytes written.
};

inline std::string KeyName(const std::string& prefix, const std::string& app,
                           const std::string& key) {
  return prefix + app + "/" + key;
}

inline uint64_t UserBytes(const std::string& key, const ocasta::Value& value) {
  return key.size() + value.ToDisplay().size();
}

// Machine traces for a seed: the Table I profiles with their generator
// seeds shifted by the benchmark seed.
inline ocasta::MachineTrace GenerateShifted(ocasta::MachineProfile profile, uint64_t seed) {
  profile.seed += seed * 1000003ULL;
  return ocasta::GenerateMachineTrace(profile);
}

class RequestStream {
 public:
  RequestStream(std::vector<Desktop> desktops, uint32_t connections, uint64_t seed,
                double write_fraction)
      : desktops_(std::move(desktops)),
        connections_(connections),
        rng_(seed ^ 0x5eed5eed5eedULL),
        write_fraction_(write_fraction) {
    for (Desktop& d : desktops_) {
      const auto& events = d.machine->trace.events();
      for (size_t i = 0; i < events.size(); ++i) {
        if (events[i].op != ocasta::AccessOp::kRead) d.writes.push_back(i);
      }
      double cum = 0;
      for (const auto& [app, counts] : d.machine->read_counts) {
        for (const auto& [key, count] : counts) {
          if (count == 0) continue;
          cum += static_cast<double>(count);
          d.read_keys.push_back(KeyName(d.prefix, app, key));
          d.read_cum.push_back(cum);
        }
      }
      d.cursor = d.writes.empty() ? 0 : rng_.next_below(d.writes.size() / 2 + 1);
      for (const auto& [app, config] : d.machine->initial_configs) {
        for (const auto& [key, value] : config) {
          const std::string name = KeyName(d.prefix, app, key);
          const auto stamp = kPreloadSpacing * static_cast<int64_t>(initial_.size() + 1);
          initial_.push_back({name, value, stamp});
          state_[name] = value;
          initial_bytes_ += UserBytes(name, value);
        }
      }
    }
    for (const Preload& p : initial_) hash_.Add(p.key + "=" + p.value.ToDisplay());
    time_offset_ = kPreloadSpacing * static_cast<int64_t>(initial_.size() + 2);
  }

  // The machines' initial configuration, preloaded before timing.
  struct Preload {
    std::string key;
    ocasta::Value value;
    ocasta::TimeMicros timestamp = 0;
  };
  const std::vector<Preload>& initial() const { return initial_; }
  uint64_t initial_bytes() const { return initial_bytes_; }
  // Every key preloaded or written so far, with the value it must hold.
  const std::map<std::string, std::optional<ocasta::Value>>& state() const { return state_; }
  size_t key_count() const { return state_.size(); }
  uint32_t ConnOf(const std::string& key) const {
    return static_cast<uint32_t>(HashKey(key) % connections_);
  }
  // Fingerprint of everything generated so far (preload and phases).
  std::string Hash() const { return hash_.Hex(); }

  Phase Next(double rate, double seconds) {
    Phase phase;
    const std::vector<int64_t> due =
        PoissonDueTimes(rate, seconds, [this] { return rng_.next_double(); });
    for (int64_t t : due) {
      Desktop& d = desktops_[desktops_.size() == 1 ? 0 : rng_.next_below(desktops_.size())];
      const bool write = rng_.next_double() < write_fraction_ && !d.writes.empty();
      std::string key;
      if (write) {
        const ocasta::AccessEvent& e = d.machine->trace.events()[d.writes[d.cursor]];
        d.cursor = (d.cursor + 1) % d.writes.size();
        key = KeyName(d.prefix, e.app, e.key);
        if (e.op == ocasta::AccessOp::kWrite) {
          phase.kinds.push_back(OpKind::kPut);
          phase.cmds.push_back(ocasta::api::PutCmd{key, e.value, e.timestamp + time_offset_});
          state_[key] = e.value;
          phase.user_bytes += UserBytes(key, e.value);
        } else {
          phase.kinds.push_back(OpKind::kDelete);
          phase.cmds.push_back(ocasta::api::DeleteCmd{key, e.timestamp + time_offset_, false});
          state_[key] = std::nullopt;
          phase.user_bytes += key.size();
        }
        phase.expect.push_back(std::nullopt);
      } else {
        const double r = rng_.next_double() * d.read_cum.back();
        const size_t i = static_cast<size_t>(
            std::lower_bound(d.read_cum.begin(), d.read_cum.end(), r) - d.read_cum.begin());
        key = d.read_keys[std::min(i, d.read_keys.size() - 1)];
        phase.kinds.push_back(OpKind::kGet);
        phase.cmds.push_back(ocasta::api::GetCmd{key});
        auto it = state_.find(key);
        phase.expect.push_back(it == state_.end() ? std::nullopt : it->second);
      }
      phase.slots.push_back({t, ConnOf(key)});
      hash_.Add(t);
      hash_.Add(static_cast<int64_t>(phase.slots.back().conn));
      hash_.Add(static_cast<int64_t>(phase.kinds.back()));
      hash_.Add(key);
      if (write && phase.kinds.back() == OpKind::kPut) {
        const auto& put = std::get<ocasta::api::PutCmd>(phase.cmds.back().op);
        hash_.Add(put.value.ToDisplay());
        hash_.Add(put.timestamp);
      }
    }
    return phase;
  }

 private:
  std::vector<Desktop> desktops_;
  uint32_t connections_;
  ocasta::Rng rng_;
  double write_fraction_;
  std::vector<Preload> initial_;
  ocasta::TimeMicros time_offset_ = 0;
  uint64_t initial_bytes_ = 0;
  std::map<std::string, std::optional<ocasta::Value>> state_;
  Fnv hash_;
};

}  // namespace perfbench
