// Checkpoint-redundancy schemes (the SCR-style trade space), as a
// configuration value (AcrConfig::redundancy).
//
// The paper's buddy scheme (§2.1) fully duplicates every verified image
// across replicas. That is one point on a redundancy-vs-memory curve:
//
//   Local    no remote copy at all. Zero extra memory and wire; any hard
//            failure loses the node's image, so recovery degrades to a
//            scratch restart. SDC rollback (which only needs the local
//            verified image) still works.
//   Partner  the existing buddy path: the cross-replica copy of §2.1,
//            1x extra memory (held by the buddy), image-sized recovery
//            transfer over the expensive inter-replica links.
//   Rs       Reed–Solomon group parity within one replica (rs.h): any m
//            dead members of an n-node group are rebuilt from the n - m
//            survivors, so a buddy-PAIR loss (fatal under Partner) is
//            survivable. m = 1 is the classic RAID-5 XOR rotation; the
//            driver's --ckpt-scheme=xor is a spelling of it.
//
// Only rs keeps state of its own (ckpt::RsScheme). Local and partner need
// no object: the node agent's buddy path and the manager's recovery
// routing read the scheme from the config.
#pragma once

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

}  // namespace acr::ckpt
