// One injected fault as a typed record (§6.1).
//
// Every fault that reaches a run — a Poisson/Weibull arrival, a burst seed
// or follower, a node repair, or one line of a scripted scenario — is a
// Fault handed to acr::AcrRuntime::apply (now) or inject (at f.time). The
// record is resolved: the random sources draw their victim, task slot and
// timing from their own streams before building it, and apply owns
// everything that happens when it lands (see DESIGN "Fault entry").
#pragma once

#include <string>
#include <utility>

#include "common/rng.h"

namespace acr::failure {

struct Fault {
  enum class Kind {
    KillRole,      ///< fail-stop the node playing (replica, index)
    KillHardware,  ///< fail-stop hardware node `pid`, spare or role player
    Flip,          ///< flip one payload bit of task `slot` on (replica, index)
    Repair,        ///< return dead hardware `pid` to the spare pool
  };
  /// A role (replica, index) and, for flips, one of its task slots; or a
  /// hardware node by physical id.
  struct Target {
    int replica = -1;
    int index = -1;
    int slot = 0;
    int pid = -1;
  };

  double time = 0.0;
  Kind kind = Kind::KillRole;
  Target target;
  /// Trace detail of a kill ("burst-seed", "burst-follower"; empty for a
  /// plain role kill).
  std::string why;
  /// Flip only: the stream that draws the flipped byte and bit. It must
  /// outlive the fault; a random source passes its own, so that its draw
  /// order does not depend on who else injects flips.
  Pcg32* draws = nullptr;

  static Fault kill_role(double time, int replica, int index) {
    return {time, Kind::KillRole, {replica, index, 0, -1}, {}, nullptr};
  }
  static Fault kill_hardware(double time, int pid, std::string why = {}) {
    return {time, Kind::KillHardware, {-1, -1, 0, pid}, std::move(why),
            nullptr};
  }
  static Fault flip(double time, int replica, int index, int slot,
                    Pcg32& draws) {
    return {time, Kind::Flip, {replica, index, slot, -1}, {}, &draws};
  }
  static Fault repair(double time, int pid) {
    return {time, Kind::Repair, {-1, -1, 0, pid}, {}, nullptr};
  }
};

}  // namespace acr::failure
