#include "analysis/race.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

namespace sp::analysis {

namespace {

void max_join(std::vector<std::uint64_t>& into,
              const std::vector<std::uint64_t>& from) {
  for (std::size_t i = 0; i < into.size() && i < from.size(); ++i) {
    into[i] = std::max(into[i], from[i]);
  }
}

const char* access_kind(bool is_write) { return is_write ? "write" : "read"; }

}  // namespace

std::string RaceEndpoint::describe() const {
  return std::string(access_kind(is_write)) + " by world rank " +
         std::to_string(world_rank) + " (stage '" + stage + "') at " +
         site.str();
}

std::string RaceFinding::describe() const {
  std::string s = "data race on '" + prior.label + "' between:\n  " +
                  prior.describe() + "\n  " + later.describe();
  s += "\n  (" + std::to_string(prior.size) + "-byte " +
       access_kind(prior.is_write) + " vs " + std::to_string(later.size) +
       "-byte " + access_kind(later.is_write) + "; " +
       std::to_string(occurrences) + " conflicting byte pair" +
       (occurrences == 1 ? "" : "s") +
       "; no happens-before path orders the two)";
  return s;
}

std::string RaceReport::str() const {
  if (clean()) {
    return "race audit clean: " + std::to_string(accesses) +
           " annotated accesses across " + std::to_string(nranks) +
           " ranks, " + std::to_string(sync_joins) +
           " synchronization joins, 0 unordered conflicting pairs";
  }
  std::string s = "race audit found " + std::to_string(races.size()) +
                  " unordered conflicting access pair" +
                  (races.size() == 1 ? "" : "s") + " (" +
                  std::to_string(accesses) + " annotated accesses, " +
                  std::to_string(nranks) + " ranks):";
  for (const RaceFinding& f : races) {
    s += "\n" + f.describe();
  }
  return s;
}

void RaceAuditor::on_run_begin(std::uint32_t nranks) {
  std::lock_guard<std::mutex> lock(mu_);
  nranks_ = nranks;
  vc_.assign(nranks, std::vector<std::uint64_t>(nranks, 0));
  for (std::uint32_t r = 0; r < nranks; ++r) vc_[r][r] = 1;
  fail_join_.assign(nranks, 0);
  joins_.clear();
  shadow_.clear();
  infos_.clear();
  last_info_.assign(nranks, nullptr);
  findings_.clear();
  accesses_ = 0;
  sync_joins_ = 0;
}

void RaceAuditor::on_arrive(std::uint32_t world_rank, std::uint64_t group,
                            std::uint64_t seq, double /*clock*/,
                            const char* /*op*/,
                            const std::string* /*stage*/) {
  std::lock_guard<std::mutex> lock(mu_);
  if (world_rank >= nranks_) return;
  Join& j = joins_[{group, seq}];
  if (j.clock.empty()) j.clock.assign(nranks_, 0);
  max_join(j.clock, vc_[world_rank]);
  ++j.arrivals;
}

void RaceAuditor::on_pickup(std::uint32_t world_rank, std::uint64_t group,
                            std::uint64_t seq) {
  std::lock_guard<std::mutex> lock(mu_);
  if (world_rank >= nranks_) return;
  auto it = joins_.find({group, seq});
  if (it != joins_.end()) {
    max_join(vc_[world_rank], it->second.clock);
    if (++it->second.pickups == it->second.arrivals) joins_.erase(it);
  }
  // Order everything a dead rank did before this pickup: physically, the
  // engine lock serializes the kill before every later rendezvous on
  // both backends, so survivors' post-recovery accesses cannot race the
  // victim's history.
  max_join(vc_[world_rank], fail_join_);
  ++vc_[world_rank][world_rank];
  // The rank enters a new epoch: its interned access record must not
  // absorb accesses from the previous one.
  last_info_[world_rank] = nullptr;
  ++sync_joins_;
}

void RaceAuditor::on_rank_killed(std::uint32_t world_rank, double /*clock*/,
                                 const std::string* /*stage*/) {
  std::lock_guard<std::mutex> lock(mu_);
  if (world_rank >= nranks_) return;
  max_join(fail_join_, vc_[world_rank]);
}

const RaceAuditor::AccessInfo* RaceAuditor::intern_(
    const comm::RaceAccess& access) {
  const std::uint32_t r = access.world_rank;
  const std::uint64_t clock = vc_[r][r];
  const AccessInfo* last = last_info_[r];
  if (last != nullptr && last->clock == clock &&
      last->ep.is_write == access.is_write &&
      last->ep.site.file == access.site.file &&
      last->ep.site.line == access.site.line &&
      last->ep.label == access.label) {
    return last;  // same epoch, same call site: a loop over an array
  }
  AccessInfo& info = infos_.emplace_back();
  info.clock = clock;
  info.ep.world_rank = r;
  info.ep.is_write = access.is_write;
  info.ep.addr = access.addr;
  info.ep.size = access.size;
  info.ep.label = access.label;
  if (access.stage != nullptr) info.ep.stage = *access.stage;
  info.ep.site = access.site;
  last_info_[r] = &info;
  return &info;
}

bool RaceAuditor::ordered_before_(const AccessInfo& prior,
                                  std::uint32_t later_rank) const {
  return prior.clock <= vc_[later_rank][prior.ep.world_rank];
}

void RaceAuditor::flag_(const AccessInfo& prior, const AccessInfo& later) {
  std::string key = prior.ep.label;
  key += '|';
  key += access_kind(prior.ep.is_write);
  key += '|';
  key += prior.ep.site.file;
  key += ':' + std::to_string(prior.ep.site.line) + '|';
  key += access_kind(later.ep.is_write);
  key += '|';
  key += later.ep.site.file;
  key += ':' + std::to_string(later.ep.site.line);
  auto [it, inserted] = findings_.try_emplace(std::move(key));
  RaceFinding& f = it->second;
  if (inserted) {
    f.prior = prior.ep;
    f.later = later.ep;
  }
  ++f.occurrences;
}

void RaceAuditor::on_access(const comm::RaceAccess& access) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint32_t r = access.world_rank;
  ++accesses_;
  if (r >= nranks_ || access.size == 0) return;
  const AccessInfo* cur = intern_(access);
  for (std::uintptr_t b = access.addr; b < access.addr + access.size; ++b) {
    Cell& cell = shadow_[b];
    if (cell.write != nullptr && cell.write->ep.world_rank != r &&
        !ordered_before_(*cell.write, r)) {
      flag_(*cell.write, *cur);
    }
    if (access.is_write) {
      for (std::uint32_t q = 0; q < cell.reads.size(); ++q) {
        const AccessInfo* rd = cell.reads[q];
        if (rd != nullptr && q != r && !ordered_before_(*rd, r)) {
          flag_(*rd, *cur);
        }
      }
      cell.write = cur;
      cell.reads.clear();
    } else {
      if (cell.reads.empty()) cell.reads.assign(nranks_, nullptr);
      cell.reads[r] = cur;
    }
  }
}

RaceReport RaceAuditor::report() const {
  std::lock_guard<std::mutex> lock(mu_);
  RaceReport rep;
  rep.accesses = accesses_;
  rep.sync_joins = sync_joins_;
  rep.nranks = nranks_;
  rep.races.reserve(findings_.size());
  // findings_ is keyed by (label, kinds, both call sites): iteration is
  // deterministic regardless of discovery order.
  for (const auto& [key, finding] : findings_) {
    (void)key;
    rep.races.push_back(finding);
  }
  return rep;
}

RaceReport audit_races(comm::BspEngine::Options options,
                       const std::function<void(comm::Comm&)>& program) {
  RaceAuditor auditor;
  comm::BspEngine engine(options);
  {
    ScopedRaceAudit install(auditor);
    engine.run(program);
  }
  return auditor.report();
}

}  // namespace sp::analysis
