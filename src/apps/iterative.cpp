#include "apps/iterative.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <tuple>

namespace acr::apps {

namespace {

using pup::Tag;

/// A pup record header: tag byte, then the element count as a u64.
constexpr std::size_t kRecordHeader = 1 + sizeof(std::uint64_t);
/// The iter, phase, sender and Size records every phase message starts
/// with.
constexpr std::size_t kFixedBytes = 4 * kRecordHeader +
                                    sizeof(std::uint64_t) +
                                    2 * sizeof(std::int32_t) +
                                    sizeof(std::uint64_t);

/// Writes pup records into a span sized for them.
class RecordWriter {
 public:
  explicit RecordWriter(std::span<std::byte> out) : out_(out) {}

  void record(Tag tag, std::uint64_t count, const void* data,
              std::size_t bytes) {
    out_[pos_] = static_cast<std::byte>(tag);
    std::memcpy(out_.data() + pos_ + 1, &count, sizeof count);
    if (bytes > 0)
      std::memcpy(out_.data() + pos_ + kRecordHeader, data, bytes);
    pos_ += kRecordHeader + bytes;
  }
  template <typename T>
  void scalar(Tag tag, T v) {
    record(tag, 1, &v, sizeof v);
  }

 private:
  std::span<std::byte> out_;
  std::size_t pos_ = 0;
};

/// Reads pup records with the checks pup::Unpacker makes: truncation, tag
/// and count. Every failure is a pup::StreamError.
class RecordReader {
 public:
  explicit RecordReader(std::span<const std::byte> in) : in_(in) {}

  /// Check the next header and return the offset of its payload, which
  /// must hold `count` elements of `elem_size` bytes.
  std::size_t record(Tag tag, std::uint64_t count, std::size_t elem_size) {
    if (in_.size() - pos_ < kRecordHeader)
      throw pup::StreamError("phase message truncated at offset " +
                             std::to_string(pos_));
    auto t = static_cast<std::uint8_t>(in_[pos_]);
    std::uint64_t n = 0;
    std::memcpy(&n, in_.data() + pos_ + 1, sizeof n);
    pos_ += kRecordHeader;
    if (t != static_cast<std::uint8_t>(tag))
      throw pup::StreamError(std::string("record tag mismatch: stream has ") +
                             pup::tag_name(static_cast<Tag>(t)) +
                             ", object expects " + pup::tag_name(tag));
    if (n != count)
      throw pup::StreamError("record count mismatch for " +
                             std::string(pup::tag_name(tag)) +
                             ": stream has " + std::to_string(n) +
                             ", object expects " + std::to_string(count));
    if (count > (in_.size() - pos_) / elem_size)
      throw pup::StreamError("phase message truncated in a " +
                             std::string(pup::tag_name(tag)) + " record");
    std::size_t at = pos_;
    pos_ += static_cast<std::size_t>(count) * elem_size;
    return at;
  }
  template <typename T>
  T scalar(Tag tag) {
    T v{};
    std::memcpy(&v, in_.data() + record(tag, 1, sizeof v), sizeof v);
    return v;
  }
  void expect_end() const {
    if (pos_ != in_.size())
      throw pup::StreamError("phase message has trailing bytes");
  }

 private:
  std::span<const std::byte> in_;
  std::size_t pos_ = 0;
};

}  // namespace

void IterativeTask::on_start() {
  if (!initialized_) {
    init();
    initialized_ = true;
  }
  begin_phase();
}

void IterativeTask::on_resume() {
  if (iter_ >= total_iters_) {
    ctx->notify_done();
    return;
  }
  begin_phase();
}

void IterativeTask::begin_phase() {
  if (iter_ >= total_iters_) {
    ctx->notify_done();
    return;
  }
  std::uint64_t iter = iter_ + 1;
  // Resend protection: a pause/unpause cycle must not duplicate sends, but
  // a rollback (which rewinds sent_iter_/sent_phase_ via pup) must resend.
  bool already_sent =
      sent_iter_ > iter ||
      (sent_iter_ == iter && sent_phase_ >= phase_);
  if (!already_sent) {
    sent_iter_ = iter;
    sent_phase_ = phase_;
    send_phase(iter, phase_);
  }
  try_compute();
}

void IterativeTask::on_message(const rt::Message& m) {
  RecordReader r(m.payload.bytes());
  Held h;
  h.iter = r.scalar<std::uint64_t>(Tag::U64);
  h.phase = r.scalar<std::int32_t>(Tag::I32);
  h.sender = r.scalar<std::int32_t>(Tag::I32);
  auto n = r.scalar<std::uint64_t>(Tag::Size);
  if (n > 0)
    h.data = m.payload.slice(r.record(Tag::F64, n, sizeof(double)),
                             static_cast<std::size_t>(n) * sizeof(double));
  r.expect_end();
  // Stale data for an already-completed iteration (duplicates after a
  // rollback in the *other* direction) is dropped; identical duplicates for
  // a pending phase overwrite idempotently.
  if (h.iter <= iter_) return;
  // An empty buffer has no capacity: make room for the phase's whole set.
  if (buffer_.empty())
    buffer_.reserve(static_cast<std::size_t>(
        std::max(expected_in_phase(iter_ + 1, phase_), 1)));
  hold(std::move(h));
  try_compute();
}

void IterativeTask::hold(Held h) {
  auto it = std::lower_bound(
      buffer_.begin(), buffer_.end(), h,
      [](const Held& a, const Held& b) { return a.key() < b.key(); });
  if (it != buffer_.end() && it->key() == h.key())
    it->data = std::move(h.data);
  else
    buffer_.insert(it, std::move(h));
}

void IterativeTask::try_compute() {
  if (computing_ || ctx->paused()) return;
  if (iter_ >= total_iters_) return;
  std::uint64_t iter = iter_ + 1;
  auto first = std::lower_bound(
      buffer_.begin(), buffer_.end(), iter, [this](const Held& a, auto i) {
        return std::tie(a.iter, a.phase) < std::tie(i, phase_);
      });
  auto last = first;
  while (last != buffer_.end() && last->iter == iter && last->phase == phase_)
    ++last;
  if (last - first < expected_in_phase(iter, phase_)) return;

  // Decode the phase's data into scratch shared by the thread's tasks: the
  // held slices are not aligned for doubles.
  thread_local std::vector<double> values;
  thread_local std::vector<InboxMsg> msgs;
  std::size_t total = 0;
  for (auto h = first; h != last; ++h) total += h->data.size();
  values.resize(total / sizeof(double));
  msgs.clear();
  std::size_t at = 0;
  for (auto h = first; h != last; ++h) {
    std::size_t n = h->data.size() / sizeof(double);
    if (n > 0) std::memcpy(values.data() + at, h->data.data(), h->data.size());
    msgs.push_back({h->sender, std::span(values.data() + at, n)});
    at += n;
  }
  buffer_.erase(first, last);
  if (buffer_.empty()) buffer_ = std::vector<Held>();

  computing_ = true;
  double cost = compute_phase(iter, phase_, msgs);
  ctx->after_compute(cost, [this]() { finish_phase(); });
}

void IterativeTask::finish_phase() {
  computing_ = false;
  ++phase_;
  if (phase_ < num_phases()) {
    begin_phase();
    return;
  }
  // Iteration complete.
  phase_ = 0;
  ++iter_;
  rt::ProgressDecision d = ctx->report_progress(iter_);
  if (iter_ >= total_iters_) {
    ctx->notify_done();
    return;
  }
  if (d == rt::ProgressDecision::Pause) return;
  begin_phase();
}

void IterativeTask::pup(pup::Puper& p) {
  p | total_iters_;
  p | iter_;
  p | phase_;
  p | sent_iter_;
  p | sent_phase_;
  p | initialized_;
  pup_buffer(p);
  pup_state(p);
  // A restore can land while this object was mid-compute (the node was
  // running when the rollback arrived); the stale transient would wedge
  // try_compute forever. Checkpoints are only cut at iteration boundaries,
  // where computing_ is false by construction.
  if (p.is_unpacking()) computing_ = false;
}

void IterativeTask::pup_buffer(pup::Puper& p) {
  // The stream of the nested map: a count of (iter, phase) groups; per
  // group iter, phase and a count of messages; per message sender and its
  // data as a vector<double>.
  std::vector<double> data;
  if (p.is_unpacking()) {
    buffer_ = std::vector<Held>();
    std::uint64_t groups = 0;
    p.size_value(groups);
    for (std::uint64_t g = 0; g < groups; ++g) {
      Held h;
      std::uint64_t n = 0;
      p | h.iter;
      p | h.phase;
      p.size_value(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        p | h.sender;
        p | data;
        h.data = buf::Buffer::copy_of(std::as_bytes(std::span(data)));
        hold(h);
      }
    }
    return;
  }
  std::uint64_t groups = 0;
  for (std::size_t i = 0; i < buffer_.size(); ++i)
    if (i == 0 || buffer_[i].iter != buffer_[i - 1].iter ||
        buffer_[i].phase != buffer_[i - 1].phase)
      ++groups;
  p.size_value(groups);
  for (auto first = buffer_.begin(); first != buffer_.end();) {
    auto last = first;
    while (last != buffer_.end() && last->iter == first->iter &&
           last->phase == first->phase)
      ++last;
    std::uint64_t iter = first->iter;
    std::int32_t phase = first->phase;
    auto n = static_cast<std::uint64_t>(last - first);
    p | iter;
    p | phase;
    p.size_value(n);
    for (; first != last; ++first) {
      std::int32_t sender = first->sender;
      data.resize(first->data.size() / sizeof(double));
      if (!data.empty())
        std::memcpy(data.data(), first->data.data(), first->data.size());
      p | sender;
      p | data;
    }
  }
}

void IterativeTask::send_phase_msg(rt::TaskAddr dst, std::uint64_t iter,
                                   int phase, int sender_key,
                                   std::span<const double> data) {
  std::size_t bytes = kFixedBytes;
  if (!data.empty()) bytes += kRecordHeader + data.size_bytes();
  buf::BufferBuilder& builder = rt::payload_builder();
  builder.reserve_slice(bytes);
  RecordWriter w(builder.extend(bytes));
  w.scalar(Tag::U64, iter);
  w.scalar(Tag::I32, static_cast<std::int32_t>(phase));
  w.scalar(Tag::I32, static_cast<std::int32_t>(sender_key));
  w.scalar(Tag::Size, static_cast<std::uint64_t>(data.size()));
  if (!data.empty())
    w.record(Tag::F64, data.size(), data.data(), data.size_bytes());
  ctx->send(dst, /*tag=*/1, builder.take_slice());
}

}  // namespace acr::apps
