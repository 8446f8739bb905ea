// Phase messages of apps::IterativeTask: the codec and the early-arrival
// inbox.
//
// The codec writes and reads the pup record stream of a plain struct
// {u64 iter, i32 phase, i32 sender, vector<double> data} without a pup
// traversal; PhaseCodec.* checks its bytes against a pup::Packer pass and
// its rejection of every malformed payload. The inbox is a flat vector
// that must behave, and checkpoint, exactly like the nested map
// (iter, phase) -> sender -> data it replaced; PhaseInbox.* drives seeded
// arrival sequences through a task and compares both against a map model.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "apps/iterative.h"
#include "common/rng.h"
#include "pup/pup.h"

namespace acr::apps {
namespace {

/// The message as a pup struct: the reference for the codec's stream.
struct RefPhaseMsg {
  std::uint64_t iter = 0;
  std::int32_t phase = 0;
  std::int32_t sender = 0;
  std::vector<double> data;

  void pup(pup::Puper& p) {
    p | iter;
    p | phase;
    p | sender;
    p | data;
  }
};

buf::Buffer packed(RefPhaseMsg m) {
  pup::Packer p;
  p | m;
  return p.take_buffer();
}

/// The old inbox type; its pup stream is the inbox's checkpoint format.
using MapInbox = std::map<std::pair<std::uint64_t, std::int32_t>,
                          std::map<std::int32_t, std::vector<double>>>;

/// What the nested-map inbox would hold, and the phases computed so far.
struct Model {
  MapInbox inbox;
  std::set<std::pair<std::uint64_t, std::int32_t>> computed;
};

/// Captures sends and parks compute continuations until the test fires
/// them, so messages can arrive while a phase computes.
class ScriptContext final : public rt::TaskContext {
 public:
  std::vector<buf::Buffer> sent;
  std::vector<std::function<void()>> pending;

  void send(rt::TaskAddr, int, buf::Buffer payload) override {
    sent.push_back(std::move(payload));
  }
  void after_compute(double, std::function<void()> fn) override {
    pending.push_back(std::move(fn));
  }
  rt::ProgressDecision report_progress(std::uint64_t) override {
    return rt::ProgressDecision::Continue;
  }
  void notify_done() override {}
  double now() const override { return 0.0; }
  rt::TaskAddr self() const override { return {}; }
  int replica() const override { return 0; }
  int num_nodes() const override { return 1; }
  bool paused() const override { return false; }
  Pcg32 make_app_rng(std::uint64_t salt) const override { return Pcg32(salt); }

  void fire_one() {
    std::function<void()> fn = std::move(pending.front());
    pending.erase(pending.begin());
    fn();
  }
};

constexpr int kPhases = 2;
constexpr int kSenders = 3;  ///< sender keys 0..2 in every phase

/// Two phases per iteration, three messages per phase. Every compute is
/// checked against, and consumes, the model's entry for its phase.
class ProbeTask final : public IterativeTask {
 public:
  ProbeTask(std::uint64_t iterations, Model* model)
      : IterativeTask(iterations), model_(model) {}

  using IterativeTask::send_phase_msg;

  double state() const { return state_; }
  int computes() const { return computes_; }

 protected:
  void init() override {}
  void send_phase(std::uint64_t, int) override {}
  int expected_in_phase(std::uint64_t, int) const override { return kSenders; }
  int num_phases() const override { return kPhases; }

  double compute_phase(std::uint64_t iter, int phase, Inbox msgs) override {
    ++computes_;
    for (const auto& [sender, data] : msgs)
      for (double v : data) state_ = state_ * 0.5 + v + sender;
    if (model_ == nullptr) return 1e-6;
    model_->computed.insert({iter, phase});
    auto it = model_->inbox.find({iter, phase});
    if (it == model_->inbox.end()) {
      ADD_FAILURE() << "computed (" << iter << ", " << phase
                    << ") with no model entry";
      return 1e-6;
    }
    // In the map's order: sorted by sender.
    std::vector<std::pair<std::int32_t, std::vector<double>>> got;
    for (const auto& [sender, data] : msgs)
      got.emplace_back(sender, std::vector<double>(data.begin(), data.end()));
    decltype(got) want(it->second.begin(), it->second.end());
    EXPECT_EQ(got, want) << "compute inputs of (" << iter << ", " << phase
                         << ")";
    model_->inbox.erase(it);
    return 1e-6;
  }

  void pup_state(pup::Puper& p) override { p | state_; }

 private:
  Model* model_;
  double state_ = 0.0;
  int computes_ = 0;
};

rt::Message message_of(buf::Buffer payload) {
  rt::Message m;
  m.tag = 1;
  m.payload = std::move(payload);
  return m;
}

/// The task's fixed-size fields, read back from its own checkpoint.
struct Header {
  std::uint64_t total = 0, iter = 0, sent_iter = 0;
  std::int32_t phase = 0, sent_phase = 0;
  bool initialized = false;

  void pup(pup::Puper& p) {
    p | total;
    p | iter;
    p | phase;
    p | sent_iter;
    p | sent_phase;
    p | initialized;
  }
};

/// The checkpoint the task would have written with the nested-map inbox
/// holding `model`.
std::vector<std::byte> map_checkpoint(const pup::Checkpoint& actual,
                                      MapInbox model, double state) {
  Header h;
  pup::Unpacker u(actual);
  u | h;
  pup::Packer p;
  p | h;
  p | model;
  p | state;
  pup::Checkpoint c = p.take();
  return {c.bytes().begin(), c.bytes().end()};
}

std::vector<std::byte> bytes_of(const pup::Checkpoint& c) {
  return {c.bytes().begin(), c.bytes().end()};
}

// --- codec -------------------------------------------------------------------

TEST(PhaseCodec, EncodedBytesEqualAPupPackerPass) {
  for (std::size_t n : {0u, 1u, 16u, 4096u}) {
    RefPhaseMsg ref;
    ref.iter = 0x0123456789ABCDEFull;
    ref.phase = -7;
    ref.sender = 5;
    for (std::size_t i = 0; i < n; ++i)
      ref.data.push_back(0.25 * static_cast<double>(i) - 3.0);
    ScriptContext ctx;
    ProbeTask task(1, nullptr);
    task.ctx = &ctx;
    task.send_phase_msg({}, ref.iter, ref.phase, ref.sender, ref.data);
    ASSERT_EQ(ctx.sent.size(), 1u);
    EXPECT_TRUE(ctx.sent[0].content_equals(packed(ref))) << "n=" << n;
  }
}

TEST(PhaseCodec, DecodesAPupPackedMessage) {
  for (std::size_t n : {0u, 1u, 16u, 4096u}) {
    ScriptContext ctx;
    Model model;
    ProbeTask task(1, &model);
    task.ctx = &ctx;
    task.on_start();
    for (std::int32_t s = kSenders - 1; s >= 0; --s) {
      RefPhaseMsg ref;
      ref.iter = 1;
      ref.sender = s;
      ref.data.assign(n, 1.5 * s);
      model.inbox[{1, 0}][s] = ref.data;
      task.on_message(message_of(packed(ref)));
    }
    EXPECT_EQ(task.computes(), 1) << "n=" << n;
    EXPECT_TRUE(model.inbox.empty());
  }
}

/// Every way a payload can be malformed, as (what, bytes).
std::vector<std::pair<std::string, std::vector<std::byte>>> malformed_variants(
    const RefPhaseMsg& ref) {
  buf::Buffer good = packed(ref);
  std::vector<std::byte> b(good.bytes().begin(), good.bytes().end());
  std::vector<std::pair<std::string, std::vector<std::byte>>> out;
  for (std::size_t len = 0; len < b.size(); ++len)
    out.emplace_back("truncated to " + std::to_string(len),
                     std::vector<std::byte>(b.begin(), b.begin() + len));
  // Record starts: iter, phase, sender, size, data.
  const std::size_t starts[] = {0, 17, 30, 43, 60};
  for (std::size_t at : starts) {
    auto tagged = b;
    tagged[at] = static_cast<std::byte>(pup::Tag::I64);
    out.emplace_back("wrong tag at " + std::to_string(at), tagged);
    auto counted = b;
    std::uint64_t count = 0;
    std::memcpy(&count, counted.data() + at + 1, sizeof count);
    ++count;
    std::memcpy(counted.data() + at + 1, &count, sizeof count);
    out.emplace_back("wrong count at " + std::to_string(at), counted);
  }
  auto sized = b;  // the Size value disagrees with the data record's count
  std::uint64_t n = ref.data.size() - 1;
  std::memcpy(sized.data() + 43 + 9, &n, sizeof n);
  out.emplace_back("size/count disagree", sized);
  auto trailing = b;
  trailing.push_back(std::byte{0});
  out.emplace_back("trailing byte", trailing);
  return out;
}

void expect_all_malformed_rejected(ProbeTask& task, const RefPhaseMsg& ref) {
  for (const auto& [what, bytes] : malformed_variants(ref)) {
    rt::Message m = message_of(buf::Buffer::copy_of(bytes));
    EXPECT_THROW(task.on_message(m), pup::StreamError) << what;
  }
}

TEST(PhaseCodec, MalformedPayloadsThrowStreamError) {
  RefPhaseMsg ref;
  ref.iter = 1;
  ref.data.assign(16, 2.0);
  ScriptContext ctx;
  ProbeTask task(4, nullptr);
  task.ctx = &ctx;
  task.on_start();
  pup::Checkpoint before = pup::make_checkpoint(task);
  expect_all_malformed_rejected(task, ref);
  EXPECT_EQ(bytes_of(pup::make_checkpoint(task)), bytes_of(before))
      << "a rejected payload was buffered";
}

TEST(PhaseCodec, MalformedStalePayloadsThrowToo) {
  // A task five iterations in, restored from a checkpoint that says so.
  Header h;
  h.total = 10;
  h.iter = 5;
  h.sent_iter = 5;
  h.sent_phase = kPhases - 1;
  h.initialized = true;
  pup::Packer p;
  p | h;
  MapInbox empty;
  p | empty;
  double state = 0.0;
  p | state;
  ScriptContext ctx;
  ProbeTask task(10, nullptr);
  task.ctx = &ctx;
  pup::restore_checkpoint(task, p.take());
  ASSERT_EQ(task.progress(), 5u);

  RefPhaseMsg stale;
  stale.iter = 3;
  stale.data.assign(16, 2.0);
  expect_all_malformed_rejected(task, stale);
  // The well-formed stale message is dropped without a trace.
  pup::Checkpoint before = pup::make_checkpoint(task);
  task.on_message(message_of(packed(stale)));
  EXPECT_EQ(bytes_of(pup::make_checkpoint(task)), bytes_of(before));
}

// --- inbox -------------------------------------------------------------------

struct ArrivalCounts {
  int fresh = 0, overwrites = 0, stale = 0, leftovers = 0, round_trips = 0;
};

/// One seeded arrival sequence. Every original message is delivered once,
/// in a shuffled order; duplicates with new data land on pending keys
/// (overwrite), on phases already computed in the current iteration
/// (leftover) and on finished iterations (stale). Compute continuations
/// fire at random points and the task is pup round-tripped between events.
/// After every event the checkpoint must equal the nested-map stream.
void run_arrival_sequence(std::uint64_t seed, ArrivalCounts& counts) {
  constexpr std::uint64_t kIters = 5;
  Pcg32 rng(seed, 0xA11CE);
  std::vector<RefPhaseMsg> originals;
  for (std::uint64_t i = 1; i <= kIters; ++i)
    for (std::int32_t ph = 0; ph < kPhases; ++ph)
      for (std::int32_t s = 0; s < kSenders; ++s) {
        RefPhaseMsg m;
        m.iter = i;
        m.phase = ph;
        m.sender = s;
        m.data.resize(rng.bounded(5));
        for (double& v : m.data) v = rng.uniform();
        originals.push_back(std::move(m));
      }
  // Shuffle within a sliding window: mostly in order, often not.
  for (std::size_t k = 0; k < originals.size(); ++k) {
    std::size_t j = k + rng.bounded(static_cast<std::uint32_t>(
                            std::min<std::size_t>(8, originals.size() - k)));
    std::swap(originals[k], originals[j]);
  }

  Model model;
  ScriptContext ctx;
  auto task = std::make_unique<ProbeTask>(kIters, &model);
  task->ctx = &ctx;
  task->on_start();

  std::vector<RefPhaseMsg> delivered;
  auto deliver = [&](const RefPhaseMsg& m) {
    std::pair<std::uint64_t, std::int32_t> key{m.iter, m.phase};
    if (m.iter <= task->progress()) {
      ++counts.stale;
    } else {
      auto held = model.inbox.find(key);
      if (held != model.inbox.end() && held->second.count(m.sender))
        ++counts.overwrites;
      else if (model.computed.count(key))
        ++counts.leftovers;
      else
        ++counts.fresh;
      model.inbox[key][m.sender] = m.data;
    }
    task->on_message(message_of(packed(m)));
  };

  std::size_t next = 0;
  while (next < originals.size() || !ctx.pending.empty()) {
    std::uint32_t action = rng.bounded(10);
    if (action < 2 && !ctx.pending.empty()) {
      ctx.fire_one();
    } else if (action < 4 && !delivered.empty()) {
      RefPhaseMsg dup = delivered[rng.bounded(
          static_cast<std::uint32_t>(delivered.size()))];
      for (double& v : dup.data) v += 1.0;
      dup.data.push_back(static_cast<double>(seed));
      deliver(dup);
    } else if (action == 4 && ctx.pending.empty()) {
      // Restores land only between computes, as at a checkpoint.
      pup::Checkpoint c = pup::make_checkpoint(*task);
      auto restored = std::make_unique<ProbeTask>(kIters, &model);
      restored->ctx = &ctx;
      pup::restore_checkpoint(*restored, c);
      ASSERT_EQ(bytes_of(pup::make_checkpoint(*restored)), bytes_of(c));
      task = std::move(restored);
      task->on_resume();
      ++counts.round_trips;
    } else if (next < originals.size()) {
      delivered.push_back(originals[next]);
      deliver(originals[next++]);
    } else {
      ctx.fire_one();
    }
    pup::Checkpoint c = pup::make_checkpoint(*task);
    ASSERT_EQ(bytes_of(c), map_checkpoint(c, model.inbox, task->state()))
        << "seed " << seed << " after " << next << " originals";
  }
  EXPECT_EQ(task->progress(), kIters) << "seed " << seed;
}

TEST(PhaseInbox, SeededArrivalsMatchTheNestedMap) {
  ArrivalCounts counts;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    run_arrival_sequence(seed, counts);
    if (HasFatalFailure()) return;
  }
  // Every kind of arrival was exercised, many times over.
  EXPECT_GT(counts.fresh, 1000);
  EXPECT_GT(counts.overwrites, 100);
  EXPECT_GT(counts.stale, 100);
  EXPECT_GT(counts.leftovers, 100);
  EXPECT_GT(counts.round_trips, 100);
}

}  // namespace
}  // namespace acr::apps
