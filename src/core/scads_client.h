// ScadsClient: the cheap, copyable data-plane handle.
//
// Scads (core/scads.h) owns the deployment — nodes, cluster state, the
// control plane. A ScadsClient is a value type over one Router plus a set
// of per-client RequestOptions defaults: copy it freely, hand one to each
// application thread, each GraphClient/SessionClient. On a threaded
// backend the handle is what client threads hold — the Router underneath
// serializes its own state, so concurrent calls through copies of one
// handle are safe. The handle adds no state of its own beyond the
// defaults, so copies are two pointers and an options struct.
//
// Two call forms per operation:
//  * options-less — the handle's defaults apply (this is where the old
//    Router convenience overloads went: per-client defaults live here,
//    the Router keeps only the explicit RequestOptions API);
//  * options-taking — the caller's options are used as given.
//
// The *Sync helpers block the calling thread until the callback fires and
// therefore only work where someone else advances the world — a
// ThreadedRuntime, whose workers run deliveries while this thread waits.
// On the deterministic simulator nothing runs while the caller blocks, so
// they refuse (kFailedPrecondition) instead of deadlocking; sim callers
// pump the loop themselves (Scads::*Sync does exactly that).

#ifndef SCADS_CORE_SCADS_CLIENT_H_
#define SCADS_CORE_SCADS_CLIENT_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/router.h"
#include "common/request_options.h"
#include "common/result.h"
#include "storage/engine.h"

namespace scads {

class ScadsClient {
 public:
  ScadsClient() = default;
  explicit ScadsClient(Router* router, RequestOptions defaults = RequestOptions{})
      : router_(router), defaults_(std::move(defaults)) {}

  Router* router() const { return router_; }
  /// The executor (and clock) the underlying router runs on.
  Executor* loop() const { return router_->loop(); }
  /// Per-handle request defaults, applied by every options-less call.
  const RequestOptions& defaults() const { return defaults_; }
  void set_defaults(RequestOptions defaults) { defaults_ = std::move(defaults); }
  /// A fresh copy of the defaults for callers that want to tweak one knob.
  RequestOptions options() const { return defaults_; }

  // --- async data plane --------------------------------------------------

  void Get(const std::string& key, std::function<void(Result<Record>)> callback) const {
    router_->Get(key, defaults_, std::move(callback));
  }
  void Get(const std::string& key, RequestOptions options,
           std::function<void(Result<Record>)> callback) const {
    router_->Get(key, std::move(options), std::move(callback));
  }

  void MultiGet(const std::vector<std::string>& keys,
                std::function<void(std::vector<Result<Record>>)> callback) const {
    router_->MultiGet(keys, defaults_, std::move(callback));
  }
  void MultiGet(const std::vector<std::string>& keys, RequestOptions options,
                std::function<void(std::vector<Result<Record>>)> callback) const {
    router_->MultiGet(keys, std::move(options), std::move(callback));
  }

  void Put(const std::string& key, const std::string& value, AckMode ack,
           std::function<void(Status)> callback) const {
    router_->Put(key, value, ack, defaults_, std::move(callback));
  }
  void Put(const std::string& key, const std::string& value, AckMode ack,
           RequestOptions options, std::function<void(Status)> callback) const {
    router_->Put(key, value, ack, std::move(options), std::move(callback));
  }

  void Delete(const std::string& key, AckMode ack, std::function<void(Status)> callback) const {
    router_->Delete(key, ack, defaults_, std::move(callback));
  }
  void Delete(const std::string& key, AckMode ack, RequestOptions options,
              std::function<void(Status)> callback) const {
    router_->Delete(key, ack, std::move(options), std::move(callback));
  }

  void Scan(const std::string& start, const std::string& end, size_t limit,
            std::function<void(Result<std::vector<Record>>)> callback) const {
    router_->Scan(start, end, limit, defaults_, std::move(callback));
  }
  void Scan(const std::string& start, const std::string& end, size_t limit,
            RequestOptions options,
            std::function<void(Result<std::vector<Record>>)> callback) const {
    router_->Scan(start, end, limit, std::move(options), std::move(callback));
  }

  // --- blocking helpers (threaded backends only) -------------------------

  Result<Record> GetSync(const std::string& key) const { return GetSync(key, defaults_); }
  Result<Record> GetSync(const std::string& key, RequestOptions options) const {
    if (!CanBlock()) return Result<Record>(SyncRefused());
    return Await<Result<Record>>([&](std::function<void(Result<Record>)> done) {
      router_->Get(key, std::move(options), std::move(done));
    });
  }

  Status PutSync(const std::string& key, const std::string& value,
                 AckMode ack = AckMode::kPrimary) const {
    return PutSync(key, value, ack, defaults_);
  }
  Status PutSync(const std::string& key, const std::string& value, AckMode ack,
                 RequestOptions options) const {
    if (!CanBlock()) return SyncRefused();
    return Await<Status>([&](std::function<void(Status)> done) {
      router_->Put(key, value, ack, std::move(options), std::move(done));
    });
  }

  Status DeleteSync(const std::string& key, AckMode ack = AckMode::kPrimary) const {
    return DeleteSync(key, ack, defaults_);
  }
  Status DeleteSync(const std::string& key, AckMode ack, RequestOptions options) const {
    if (!CanBlock()) return SyncRefused();
    return Await<Status>([&](std::function<void(Status)> done) {
      router_->Delete(key, ack, std::move(options), std::move(done));
    });
  }

  std::vector<Result<Record>> MultiGetSync(const std::vector<std::string>& keys) const {
    return MultiGetSync(keys, defaults_);
  }
  std::vector<Result<Record>> MultiGetSync(const std::vector<std::string>& keys,
                                           RequestOptions options) const {
    if (!CanBlock()) {
      return std::vector<Result<Record>>(keys.size(), Result<Record>(SyncRefused()));
    }
    return Await<std::vector<Result<Record>>>(
        [&](std::function<void(std::vector<Result<Record>>)> done) {
          router_->MultiGet(keys, std::move(options), std::move(done));
        });
  }

 private:
  /// Blocking is sound only when other threads drive completions.
  bool CanBlock() const { return !router_->loop()->deterministic(); }

  static Status SyncRefused() {
    return FailedPreconditionError(
        "blocking helpers need a threaded backend; pump the sim loop instead");
  }

  /// One-shot rendezvous: start the async op, sleep until its callback
  /// lands the value. The callback may run on any worker, or inline on
  /// this thread before `start` returns (a zero-cost cache hit); the value
  /// is then already set and the wait returns at once.
  template <typename T>
  T Await(const std::function<void(std::function<void(T)>)>& start) const {
    struct Rendezvous {
      std::mutex mu;
      std::condition_variable cv;
      std::optional<T> value;
    };
    auto rv = std::make_shared<Rendezvous>();
    start([rv](T value) {
      {
        std::lock_guard<std::mutex> lock(rv->mu);
        rv->value.emplace(std::move(value));
      }
      rv->cv.notify_one();
    });
    std::unique_lock<std::mutex> lock(rv->mu);
    rv->cv.wait(lock, [&] { return rv->value.has_value(); });
    return std::move(*rv->value);
  }

  Router* router_ = nullptr;
  RequestOptions defaults_;
};

}  // namespace scads

#endif  // SCADS_CORE_SCADS_CLIENT_H_
