#include "fault/fault.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>

#include "util/check.hpp"

namespace massf {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkDown: return "link_down";
    case FaultKind::kLinkUp: return "link_up";
    case FaultKind::kRouterCrash: return "crash";
    case FaultKind::kRouterRestore: return "restore";
    case FaultKind::kLossBurst: return "loss";
    case FaultKind::kBgpReset: return "bgp_reset";
    case FaultKind::kBgpWithdraw: return "bgp_withdraw";
    case FaultKind::kBgpAnnounce: return "bgp_announce";
  }
  return "?";
}

FaultSchedule& FaultSchedule::link_down(SimTime at, LinkId link) {
  MASSF_CHECK(at >= 0 && link >= 0);
  events_.push_back({at, FaultKind::kLinkDown, link, -1, 0, 0});
  return *this;
}

FaultSchedule& FaultSchedule::link_up(SimTime at, LinkId link) {
  MASSF_CHECK(at >= 0 && link >= 0);
  events_.push_back({at, FaultKind::kLinkUp, link, -1, 0, 0});
  return *this;
}

FaultSchedule& FaultSchedule::flap_train(SimTime start, LinkId link,
                                         std::int32_t count, SimTime period,
                                         SimTime downtime) {
  MASSF_CHECK(count > 0 && period > 0 && downtime > 0 && downtime < period);
  for (std::int32_t i = 0; i < count; ++i) {
    link_down(start + period * i, link);
    link_up(start + period * i + downtime, link);
  }
  return *this;
}

FaultSchedule& FaultSchedule::router_crash(SimTime at, NodeId router) {
  MASSF_CHECK(at >= 0 && router >= 0);
  events_.push_back({at, FaultKind::kRouterCrash, router, -1, 0, 0});
  return *this;
}

FaultSchedule& FaultSchedule::router_restore(SimTime at, NodeId router) {
  MASSF_CHECK(at >= 0 && router >= 0);
  events_.push_back({at, FaultKind::kRouterRestore, router, -1, 0, 0});
  return *this;
}

FaultSchedule& FaultSchedule::loss_burst(SimTime at, LinkId link,
                                         SimTime duration, double rate) {
  MASSF_CHECK(at >= 0 && link >= 0 && duration > 0);
  MASSF_CHECK(rate > 0 && rate < 1.0);
  events_.push_back({at, FaultKind::kLossBurst, link, -1, duration, rate});
  return *this;
}

FaultSchedule& FaultSchedule::bgp_reset(SimTime at, AsId as, AsId peer,
                                        SimTime downtime) {
  MASSF_CHECK(at >= 0 && as >= 0 && peer >= 0 && as != peer && downtime > 0);
  events_.push_back({at, FaultKind::kBgpReset, as, peer, downtime, 0});
  return *this;
}

FaultSchedule& FaultSchedule::bgp_withdraw(SimTime at, AsId as) {
  MASSF_CHECK(at >= 0 && as >= 0);
  events_.push_back({at, FaultKind::kBgpWithdraw, as, -1, 0, 0});
  return *this;
}

FaultSchedule& FaultSchedule::bgp_announce(SimTime at, AsId as) {
  MASSF_CHECK(at >= 0 && as >= 0);
  events_.push_back({at, FaultKind::kBgpAnnounce, as, -1, 0, 0});
  return *this;
}

bool FaultSchedule::has_bgp_events() const {
  return std::any_of(events_.begin(), events_.end(), [](const FaultEvent& e) {
    return e.kind == FaultKind::kBgpReset ||
           e.kind == FaultKind::kBgpWithdraw ||
           e.kind == FaultKind::kBgpAnnounce;
  });
}

FaultSchedule& FaultSchedule::append(const FaultSchedule& other) {
  events_.insert(events_.end(), other.events_.begin(), other.events_.end());
  return *this;
}

std::string fault_event_text(const FaultEvent& e) {
  char buf[160];
  const double at_s = to_seconds(e.at);
  switch (e.kind) {
    case FaultKind::kLinkDown:
    case FaultKind::kLinkUp:
      std::snprintf(buf, sizeof buf, "at %g %s link=%d", at_s,
                    fault_kind_name(e.kind), e.target);
      break;
    case FaultKind::kRouterCrash:
    case FaultKind::kRouterRestore:
      std::snprintf(buf, sizeof buf, "at %g %s router=%d", at_s,
                    fault_kind_name(e.kind), e.target);
      break;
    case FaultKind::kLossBurst:
      std::snprintf(buf, sizeof buf, "at %g loss link=%d duration=%g rate=%g",
                    at_s, e.target, to_seconds(e.duration), e.rate);
      break;
    case FaultKind::kBgpReset:
      std::snprintf(buf, sizeof buf,
                    "at %g bgp_reset as=%d peer=%d downtime=%g", at_s,
                    e.target, e.peer, to_seconds(e.duration));
      break;
    case FaultKind::kBgpWithdraw:
    case FaultKind::kBgpAnnounce:
      std::snprintf(buf, sizeof buf, "at %g %s as=%d", at_s,
                    fault_kind_name(e.kind), e.target);
      break;
  }
  return buf;
}

std::string FaultSchedule::to_text() const {
  std::vector<FaultEvent> sorted = events_;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  std::string out;
  for (const FaultEvent& e : sorted) out += fault_event_text(e) + '\n';
  return out;
}

namespace {

// One parsed `key=value` argument list.
using Args = std::map<std::string, std::string, std::less<>>;

bool parse_double(std::string_view s, double* out) {
  char* end = nullptr;
  const std::string tmp(s);
  *out = std::strtod(tmp.c_str(), &end);
  return end == tmp.c_str() + tmp.size() && !tmp.empty();
}

bool parse_int(std::string_view s, std::int32_t* out) {
  double d = 0;
  if (!parse_double(s, &d)) return false;
  *out = static_cast<std::int32_t>(d);
  return static_cast<double>(*out) == d;
}

std::optional<std::string> get(const Args& args, std::string_view key) {
  const auto it = args.find(key);
  if (it == args.end()) return std::nullopt;
  return it->second;
}

bool require_int(const Args& args, std::string_view key, std::int32_t* out,
                 std::string* error) {
  const auto v = get(args, key);
  if (!v || !parse_int(*v, out)) {
    *error = "missing or malformed " + std::string(key);
    return false;
  }
  return true;
}

// A link, router or AS id: a non-negative integer.
bool require_id(const Args& args, std::string_view key, std::int32_t* out,
                std::string* error) {
  if (!require_int(args, key, out, error)) return false;
  if (*out < 0) {
    *error = std::string(key) + " must be >= 0";
    return false;
  }
  return true;
}

bool require_double(const Args& args, std::string_view key, double* out,
                    std::string* error) {
  const auto v = get(args, key);
  if (!v || !parse_double(*v, out)) {
    *error = "missing or malformed " + std::string(key);
    return false;
  }
  return true;
}

}  // namespace

std::optional<FaultSchedule> parse_fault_schedule(std::string_view text,
                                                  std::string* error) {
  FaultSchedule schedule;
  std::istringstream in{std::string(text)};
  std::string line;
  std::int32_t line_no = 0;

  const auto fail = [&](const std::string& what) {
    if (error) {
      *error = "line " + std::to_string(line_no) + ": " + what;
    }
    return std::nullopt;
  };

  while (std::getline(in, line)) {
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream tokens(line);
    std::string word;
    std::vector<std::string> parts;
    while (tokens >> word) parts.push_back(word);
    if (parts.empty()) continue;

    if (parts.size() < 3 || parts[0] != "at") {
      return fail("expected `at <seconds> <event> key=value...`");
    }
    double at_s = 0;
    if (!parse_double(parts[1], &at_s) || at_s < 0) {
      return fail("bad time `" + parts[1] + "`");
    }
    const SimTime at = from_seconds(at_s);
    const std::string& verb = parts[2];

    Args args;
    for (std::size_t i = 3; i < parts.size(); ++i) {
      const auto eq = parts[i].find('=');
      if (eq == std::string::npos || eq == 0) {
        return fail("bad argument `" + parts[i] + "` (want key=value)");
      }
      args[parts[i].substr(0, eq)] = parts[i].substr(eq + 1);
    }

    std::string what;
    if (verb == "link_down" || verb == "link_up") {
      std::int32_t link = -1;
      if (!require_id(args, "link", &link, &what)) return fail(what);
      if (verb == "link_down") {
        schedule.link_down(at, link);
      } else {
        schedule.link_up(at, link);
      }
    } else if (verb == "flap") {
      std::int32_t link = -1, count = 0;
      double period = 0, downtime = 0;
      if (!require_id(args, "link", &link, &what) ||
          !require_int(args, "count", &count, &what) ||
          !require_double(args, "period", &period, &what) ||
          !require_double(args, "downtime", &downtime, &what)) {
        return fail(what);
      }
      if (count <= 0 || period <= 0 || downtime <= 0 || downtime >= period) {
        return fail("flap needs count>0 and 0<downtime<period");
      }
      schedule.flap_train(at, link, count, from_seconds(period),
                          from_seconds(downtime));
    } else if (verb == "crash" || verb == "restore") {
      std::int32_t router = -1;
      if (!require_id(args, "router", &router, &what)) return fail(what);
      if (verb == "crash") {
        schedule.router_crash(at, router);
      } else {
        schedule.router_restore(at, router);
      }
    } else if (verb == "loss") {
      std::int32_t link = -1;
      double duration = 0, rate = 0;
      if (!require_id(args, "link", &link, &what) ||
          !require_double(args, "duration", &duration, &what) ||
          !require_double(args, "rate", &rate, &what)) {
        return fail(what);
      }
      if (duration <= 0 || rate <= 0 || rate >= 1.0) {
        return fail("loss needs duration>0 and 0<rate<1");
      }
      schedule.loss_burst(at, link, from_seconds(duration), rate);
    } else if (verb == "bgp_reset") {
      std::int32_t as = -1, peer = -1;
      double downtime = 0;
      if (!require_id(args, "as", &as, &what) ||
          !require_id(args, "peer", &peer, &what) ||
          !require_double(args, "downtime", &downtime, &what)) {
        return fail(what);
      }
      if (as == peer || downtime <= 0) {
        return fail("bgp_reset needs as != peer and downtime>0");
      }
      schedule.bgp_reset(at, as, peer, from_seconds(downtime));
    } else if (verb == "bgp_withdraw" || verb == "bgp_announce") {
      std::int32_t as = -1;
      if (!require_id(args, "as", &as, &what)) return fail(what);
      if (verb == "bgp_withdraw") {
        schedule.bgp_withdraw(at, as);
      } else {
        schedule.bgp_announce(at, as);
      }
    } else {
      return fail("unknown event `" + verb + "`");
    }
  }
  return schedule;
}

}  // namespace massf
