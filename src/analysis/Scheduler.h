//===- analysis/Scheduler.h - Ordered speculative bounded check -*- C++ -*-===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bounded check's scheduler (docs/architecture.md, "The bounded-check
/// scheduler"). Units (unfoldings) are committed strictly in enumeration
/// order by the calling thread, so verdicts and every deterministic counter
/// are independent of the thread count. With one thread every unit is
/// solved inline; with more, helper threads solve and the calling thread
/// commits. Helpers never spend work the commit will discard: they re-check
/// subsumption (committed violations plus cycles found at lower indices)
/// before each expensive stage, a Z3 solve whose unit turns subsumed is
/// interrupted (and its env rebuilt, Z3EnvSlot), and a head unit left
/// without a usable answer — e.g. pruned provisionally against a cycle the
/// commit then discarded — is solved at commit time. Only the first helper
/// starts at once; a Z3 context costs ~13 ms and ~19 MB and its
/// construction serializes across threads, so the others join after
/// kSpinUp. One scheduler serves a whole analyze() call.
///
//===----------------------------------------------------------------------===//

#ifndef C4_ANALYSIS_SCHEDULER_H
#define C4_ANALYSIS_SCHEDULER_H

#include "smt/Z3Env.h"
#include "support/Deadline.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace c4 {

/// The cancellation handle of one unit, consulted by the solve callback
/// between its stages. The commit loop's own gate never dies.
class SpecGate {
public:
  /// True once the unit is known to be subsumed: its answer is unused.
  bool dead() const { return Dead.load(std::memory_order_relaxed); }

  /// Brackets one Z3 solve on the unit's environment. Returns false (skip
  /// the solve) when the unit is already dead; while inside, a unit that
  /// dies has its environment interrupted.
  bool enterSolve() {
    env();
    if (!Mu)
      return true;
    std::lock_guard<std::mutex> Lock(*Mu);
    InSolve = !dead();
    return InSolve;
  }
  void leaveSolve() {
    if (!Mu)
      return;
    std::lock_guard<std::mutex> Lock(*Mu);
    InSolve = false;
  }

  /// The Z3 environment to solve on, built on first use: units that need
  /// no solve (replayed, prefiltered, no candidates) never pay for one.
  Z3Env &env() {
    if (!Env)
      Env = &Acquire();
    return *Env;
  }

private:
  friend class SpecScheduler;
  std::atomic<bool> Dead{false};
  std::mutex *Mu = nullptr; ///< the round lock; null for the commit loop
  bool InSolve = false;     ///< guarded by *Mu
  std::function<Z3Env &()> Acquire;
  Z3Env *Env = nullptr;
};

/// What a round did beyond the commits themselves.
struct SpecStats {
  unsigned Subsumed = 0;  ///< units subsumed at commit
  unsigned Deferred = 0;  ///< units left unchecked by an expired deadline
  unsigned Discarded = 0; ///< units whose speculative work was cancelled
                          ///< or thrown away (timing-dependent)
  bool Completed = true;  ///< false when the deadline cut the round short
};

/// The callbacks of one round over units 0..N-1.
template <typename Outcome> struct SpecHooks {
  /// Sorted subsumption key (original transaction set) of every unit.
  const std::vector<std::vector<unsigned>> *Keys = nullptr;
  /// True when a committed violation's key is a subset of the argument.
  /// Called with the round lock held.
  std::function<bool(const std::vector<unsigned> &)> CommittedSubsumes;
  /// Solves unit I (on the gate's env); nullopt when the gate died or the
  /// deadline expired before the answer was complete.
  std::function<std::optional<Outcome>(size_t, SpecGate &)> Solve;
  /// The key of the violation a finished outcome would record, if any.
  std::function<const std::vector<unsigned> *(const Outcome &)> Found;
  /// Commit-order work on an outcome about to be committed, run on the
  /// committing thread without the round lock (may be empty).
  std::function<void(size_t, Outcome &)> Prepare;
  /// Applies unit I's outcome, with the round lock held. Returns the key of
  /// a violation it newly recorded, if any.
  std::function<const std::vector<unsigned> *(size_t, Outcome &&)> Commit;
};

class SpecScheduler {
public:
  /// \p Threads solving threads (0 means hardware concurrency): with one,
  /// the committing thread solves everything inline; otherwise \p Threads
  /// helpers solve and the committing thread only commits. \p DL is the
  /// analysis deadline, or null.
  SpecScheduler(unsigned Threads, const Deadline *Dl)
      : DL(Dl), Start(std::chrono::steady_clock::now()) {
    if (!Threads)
      Threads = std::max(1u, std::thread::hardware_concurrency());
    Envs.resize(Threads > 1 ? Threads : 0);
  }

  unsigned helpers() const { return static_cast<unsigned>(Envs.size()); }

  /// Runs one round of \p N units; commits happen on the calling thread.
  /// Without helpers the units are solved inline on the env \p MainEnv
  /// returns.
  template <typename Outcome>
  SpecStats run(size_t N, const std::function<Z3Env &()> &MainEnv,
                const SpecHooks<Outcome> &H);

  /// The first helper's env, for the committing thread's own queries
  /// between rounds (null without helpers): no extra context needed.
  Z3Env *idleHelperEnv() { return Envs.empty() ? nullptr : &Envs[0].get(); }

  /// How long an analysis runs before helpers beyond the first join in.
  static constexpr std::chrono::milliseconds kSpinUp{100};

private:
  template <typename Outcome> struct Round;

  const Deadline *DL;
  std::chrono::steady_clock::time_point Start;
  /// Per-helper environments, built on first use and rebuilt after an
  /// interrupt. Helper h of every round uses Envs[h].
  std::vector<Z3EnvSlot> Envs;
  std::unique_ptr<ThreadPool> Pool; ///< built on the first parallel round
};

template <typename Outcome> struct SpecScheduler::Round {
  enum State : unsigned char { Unclaimed, Pruned, Running, Done };
  struct Slot {
    State St = Unclaimed;
    bool Worked = false; ///< a helper started on it
    SpecGate Gate;
    std::optional<Outcome> Out;
  };

  Round(size_t N, const SpecHooks<Outcome> &Hooks, unsigned Helpers)
      : H(Hooks), Slots(N), Busy(Helpers, kIdle) {}

  static constexpr size_t kIdle = ~size_t(0);

  static bool covers(const std::vector<unsigned> &Set,
                     const std::vector<unsigned> &Sub) {
    return std::includes(Set.begin(), Set.end(), Sub.begin(), Sub.end());
  }
  const std::vector<unsigned> &key(size_t I) const { return (*H.Keys)[I]; }

  /// Subsumed by a committed violation or a speculative cycle found at a
  /// lower, not yet committed index. Requires Mu.
  bool deadFor(size_t I) const {
    if (H.CommittedSubsumes(key(I)))
      return true;
    for (const auto &[Index, V] : Found)
      if (Index >= Head && Index < I && covers(key(I), V))
        return true;
    return false;
  }

  /// Marks unit I dead and interrupts its solve if one runs. Requires Mu.
  void kill(size_t I) {
    SpecGate &G = Slots[I].Gate;
    if (!G.Dead.exchange(true, std::memory_order_relaxed) && G.InSolve)
      G.Env->interrupt();
    Cv.notify_all();
  }

  /// Kills every unit in flight above \p From that \p V subsumes.
  void killCovered(const std::vector<unsigned> &V, size_t From) {
    for (size_t I : Busy)
      if (I != kIdle && I > From && covers(key(I), V))
        kill(I);
  }

  const SpecHooks<Outcome> &H;
  std::vector<Slot> Slots;
  std::mutex Mu;
  std::condition_variable Cv;
  size_t Next = 0; ///< lowest unclaimed unit
  size_t Head = 0; ///< the unit the commit loop is deciding
  bool Stop = false;
  std::vector<std::pair<size_t, std::vector<unsigned>>> Found;
  std::vector<size_t> Busy; ///< per helper: the unit it runs, or kIdle
  /// A unit the commit loop needs solved now (kIdle: none); its gate never
  /// dies, since nothing below the head is uncommitted.
  size_t Retry = kIdle;
  std::unique_ptr<SpecGate> RetryGate;
  std::optional<Outcome> RetryOut;
  bool RetryDone = false;
};

template <typename Outcome>
SpecStats SpecScheduler::run(size_t N,
                             const std::function<Z3Env &()> &MainEnv,
                             const SpecHooks<Outcome> &H) {
  unsigned NumHelpers =
      static_cast<unsigned>(std::min<size_t>(helpers(), N));
  Round<Outcome> Rd(N, H, NumHelpers);

  auto HelperLoop = [&](unsigned Hp) {
    std::unique_lock<std::mutex> Lock(Rd.Mu);
    if (Hp)
      Rd.Cv.wait_until(Lock, Start + kSpinUp, [&] { return Rd.Stop; });
    while (true) {
      Rd.Cv.wait(Lock, [&] {
        return Rd.Stop || Rd.Retry != Rd.kIdle || Rd.Next < N;
      });
      if (Rd.Stop)
        return;
      size_t I;
      SpecGate *Gate;
      bool IsRetry = Rd.Retry != Rd.kIdle;
      if (IsRetry) {
        I = Rd.Retry;
        Rd.Retry = Rd.kIdle;
        Rd.RetryGate = std::make_unique<SpecGate>();
        Gate = Rd.RetryGate.get();
      } else {
        I = Rd.Next++;
        auto &S = Rd.Slots[I];
        if (Rd.deadFor(I)) {
          S.St = Rd.Pruned;
          Rd.Cv.notify_all();
          continue;
        }
        S.St = Rd.Running;
        S.Worked = true;
        Rd.Busy[Hp] = I;
        Gate = &S.Gate;
      }
      Gate->Mu = &Rd.Mu;
      Gate->Acquire = [this, Hp]() -> Z3Env & { return Envs[Hp].get(); };
      Lock.unlock();
      std::optional<Outcome> Out = H.Solve(I, *Gate);
      Lock.lock();
      Gate->InSolve = false;
      if (IsRetry) {
        Rd.RetryOut = std::move(Out);
        Rd.RetryDone = true;
      } else {
        auto &S = Rd.Slots[I];
        Rd.Busy[Hp] = Rd.kIdle;
        if (Out && !S.Gate.dead()) {
          if (const std::vector<unsigned> *V = H.Found(*Out)) {
            Rd.Found.emplace_back(I, *V);
            Rd.killCovered(*V, I);
          }
          S.Out = std::move(Out);
        }
        S.St = Rd.Done;
      }
      Rd.Cv.notify_all();
    }
  };

  std::vector<std::future<void>> Helpers;
  if (NumHelpers) {
    if (!Pool)
      Pool = std::make_unique<ThreadPool>(helpers());
    for (unsigned Hp = 0; Hp != NumHelpers; ++Hp)
      Helpers.push_back(Pool->submit([&HelperLoop, Hp] { HelperLoop(Hp); }));
  }

  SpecStats St;
  SpecGate InlineGate;
  InlineGate.Acquire = MainEnv;
  {
    std::unique_lock<std::mutex> Lock(Rd.Mu);
    for (size_t I = 0; I != N; ++I) {
      Rd.Head = I;
      auto &S = Rd.Slots[I];
      if (DL && DL->expired()) {
        St.Deferred = static_cast<unsigned>(N - I);
        St.Completed = false;
        break;
      }
      // Authoritative subsumption check, in enumeration order; decided
      // before waiting, so a discarded answer is never waited for.
      if (H.CommittedSubsumes(Rd.key(I))) {
        ++St.Subsumed;
        if (S.St == Rd.Unclaimed) {
          Rd.Next = I + 1;
          S.St = Rd.Pruned;
        } else if (S.Worked) {
          ++St.Discarded;
          if (S.St == Rd.Running)
            Rd.kill(I);
        }
        continue;
      }
      std::optional<Outcome> Out;
      if (!NumHelpers) {
        Rd.Next = I + 1;
        Lock.unlock();
        Out = H.Solve(I, InlineGate);
        Lock.lock();
      } else {
        // Nothing below the head is uncommitted, so a live head cannot die
        // any more: its answer will be used. An unclaimed head is the next
        // claim of the first free helper.
        Rd.Cv.wait(Lock, [&S, &Rd] {
          return S.St == Rd.Pruned || S.St == Rd.Done ||
                 (S.St == Rd.Running && S.Gate.dead());
        });
        if (S.St == Rd.Done && S.Out) {
          Out = std::move(S.Out);
        } else if (!(DL && DL->expired())) {
          // Pruned provisionally, or its speculation was cut short: have
          // it solved now.
          St.Discarded += S.Worked;
          Rd.Retry = I;
          Rd.RetryDone = false;
          Rd.Cv.notify_all();
          Rd.Cv.wait(Lock, [&Rd] { return Rd.RetryDone; });
          Out = std::move(Rd.RetryOut);
        }
      }
      if (!Out || (DL && DL->expired())) {
        // Deadline: defer everything from here on. Answers that raced
        // past the expiry are dropped, so the committed part is a prefix
        // of the enumeration order.
        St.Deferred = static_cast<unsigned>(N - I);
        St.Completed = false;
        break;
      }
      if (H.Prepare) {
        Lock.unlock();
        H.Prepare(I, *Out);
        Lock.lock();
      }
      if (const std::vector<unsigned> *V = H.Commit(I, std::move(*Out)))
        Rd.killCovered(*V, I);
    }
    // Stop the helpers: nothing still in flight will be committed.
    Rd.Stop = true;
    for (size_t I : Rd.Busy)
      if (I != Rd.kIdle)
        Rd.kill(I);
    Rd.Cv.notify_all();
  }
  for (std::future<void> &F : Helpers)
    F.get();
  return St;
}

} // namespace c4

#endif // C4_ANALYSIS_SCHEDULER_H
