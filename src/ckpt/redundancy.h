// Checkpoint-redundancy schemes (the SCR-style trade space), as a
// configuration value (AcrConfig::redundancy).
//
// The paper's buddy scheme (§2.1) fully duplicates every verified image
// across replicas. That is one point on a redundancy-vs-memory curve:
//
//   Local    no remote copy at all: zero extra memory and wire. SDC
//            rollback (which only needs the local image) still works; a
//            hard failure degrades to a scratch restart.
//   Partner  the buddy path: the cross-replica copy of §2.1, 1x extra
//            memory (held by the buddy), image-sized recovery transfer.
//   Rs       Reed–Solomon group parity within one replica (rs.h): m dead
//            members of a group are rebuilt from the survivors, so a
//            buddy-PAIR loss is survivable. m = 1 is the classic RAID-5
//            XOR rotation; the driver's --ckpt-scheme=xor is a spelling.
//
// Which dead sets each scheme survives is one rule, recoverable() below;
// every recovery rung of the manager asks it. Only rs keeps state of its
// own (ckpt::RsScheme); elsewhere the scheme is read from the config.
#pragma once

#include <algorithm>
#include <span>
#include <utility>

#include "ckpt/group.h"

namespace acr::ckpt {

enum class Scheme { Local, Partner, Rs };

inline const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::Local:
      return "local";
    case Scheme::Partner:
      return "partner";
    case Scheme::Rs:
      return "rs";
  }
  return "?";
}

/// Can every (replica, node index) role in `wave` get its verified image
/// back? The wave's roles always count as lost; `lost(r, i)` says whether
/// any other role's image is gone. Only the wave's own buddy pairs and
/// groups are checked: local restores nothing, partner fails when a wave
/// role's buddy (1 - r, i) is lost too, and rs fails when a (replica,
/// group) the wave touches has more than `rs_parity` lost members.
template <typename Lost>
bool recoverable(Scheme scheme, const GroupMap& groups, int rs_parity,
                 std::span<const std::pair<int, int>> wave, Lost&& lost) {
  auto gone = [&](int r, int i) {
    return std::ranges::find(wave, std::pair{r, i}) != wave.end() || lost(r, i);
  };
  for (const auto& [r, i] : wave) {
    if (scheme == Scheme::Local) return false;
    if (scheme == Scheme::Partner && gone(1 - r, i)) return false;
    if (scheme != Scheme::Rs) continue;
    int dead = 0;
    for (int m : groups.group_members(i)) dead += gone(r, m);
    if (dead > rs_parity) return false;
  }
  return true;
}

}  // namespace acr::ckpt
