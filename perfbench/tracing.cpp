#include "tracing.h"

#include <memory>
#include <utility>

#include "pup/pup.h"

namespace perfbench {

using acr::rt::Task;
using acr::rt::TaskContext;

double Tracer::total_self_s() const {
  double sum = 0.0;
  for (const LayerStats& s : stats_) sum += s.self_s;
  return sum;
}

void Tracer::enter(Layer layer) {
  stack_.push_back(Frame{layer, Clock::now(), 0.0});
}

void Tracer::exit() {
  Frame f = stack_.back();
  stack_.pop_back();
  double d = std::chrono::duration<double>(Clock::now() - f.start).count();
  LayerStats& s = stats_[static_cast<std::size_t>(f.layer)];
  ++s.calls;
  s.self_s += d - f.child_s;
  if (!stack_.empty()) stack_.back().child_s += d;
}

namespace {

/// Forwards every call to the node's real context, timing the two that
/// enter other layers and wrapping compute continuations in handler spans.
class TracingContext final : public TaskContext {
 public:
  explicit TracingContext(Tracer& tracer) : tracer_(tracer) {}

  TaskContext* target = nullptr;

  void send(acr::rt::TaskAddr dst, int tag, acr::buf::Buffer payload) override {
    Tracer::Span span(tracer_, Layer::Send);
    tracer_.send_bytes += payload.size();
    target->send(dst, tag, std::move(payload));
  }
  void after_compute(double seconds, std::function<void()> fn) override {
    // The continuation may fire after this context is gone; it captures
    // only the tracer, which outlives the cluster.
    target->after_compute(seconds, [&tracer = tracer_, fn = std::move(fn)]() {
      Tracer::Span span(tracer, Layer::Handler);
      fn();
    });
  }
  acr::rt::ProgressDecision report_progress(std::uint64_t iters) override {
    Tracer::Span span(tracer_, Layer::Progress);
    return target->report_progress(iters);
  }
  void notify_done() override { target->notify_done(); }
  double now() const override { return target->now(); }
  acr::rt::TaskAddr self() const override { return target->self(); }
  int replica() const override { return target->replica(); }
  int num_nodes() const override { return target->num_nodes(); }
  bool paused() const override { return target->paused(); }
  acr::Pcg32 make_app_rng(std::uint64_t salt) const override {
    return target->make_app_rng(salt);
  }

 private:
  Tracer& tracer_;
};

class TracedTask final : public Task {
 public:
  TracedTask(std::unique_ptr<Task> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer), proxy_(tracer) {}

  Task& inner() { return *inner_; }

  void on_start() override {
    bind();
    Tracer::Span span(tracer_, Layer::Handler);
    inner_->on_start();
  }
  void on_resume() override {
    bind();
    Tracer::Span span(tracer_, Layer::Handler);
    inner_->on_resume();
  }
  void on_message(const acr::rt::Message& m) override {
    bind();
    Tracer::Span span(tracer_, Layer::Handler);
    inner_->on_message(m);
  }
  void pup(acr::pup::Puper& p) override {
    if (auto* packer = dynamic_cast<acr::pup::Packer*>(&p)) {
      std::size_t before = packer->bytes_written();
      {
        Tracer::Span span(tracer_, Layer::Pack);
        inner_->pup(p);
      }
      tracer_.pack_bytes += packer->bytes_written() - before;
    } else if (dynamic_cast<acr::pup::Unpacker*>(&p) != nullptr) {
      Tracer::Span span(tracer_, Layer::Unpack);
      inner_->pup(p);
    } else {
      inner_->pup(p);
    }
  }
  std::uint64_t progress() const override { return inner_->progress(); }

 private:
  /// The hosting node installs `ctx` on this decorator; route the wrapped
  /// task's calls through the timing proxy in front of it.
  void bind() {
    proxy_.target = ctx;
    inner_->ctx = &proxy_;
  }

  std::unique_ptr<Task> inner_;
  Tracer& tracer_;
  TracingContext proxy_;
};

}  // namespace

acr::rt::Cluster::TaskFactory traced_factory(acr::rt::Cluster::TaskFactory inner,
                                             Tracer& tracer) {
  return [inner = std::move(inner), &tracer](int replica, int node_index) {
    std::vector<std::unique_ptr<Task>> tasks = inner(replica, node_index);
    for (auto& t : tasks) t = std::make_unique<TracedTask>(std::move(t), tracer);
    return tasks;
  };
}

Task& unwrap(Task& task) {
  auto* traced = dynamic_cast<TracedTask*>(&task);
  return traced != nullptr ? traced->inner() : task;
}

}  // namespace perfbench
