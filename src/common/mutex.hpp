// The mutex of the node-wide state that every transaction's handlers take:
// siteVC, the watermark table, the ParticipantTable and the LockTable
// shards. At zero delay every handler runs on a client thread, so all
// clients take these locks at once, each for well under a microsecond. A
// std::mutex parks its caller in the kernel as soon as the lock is busy.
// This one is glibc's adaptive mutex, which spins briefly on a busy lock
// before it parks, as the store's entry latches do; where glibc does not
// define its initialiser it is a plain pthread mutex.
//
// An acquisition whose first try fails adds one to the Counter given at
// construction, if any, so a node can report its contended acquisitions
// per lock family. An uncontended lock costs the one try.
#pragma once

#include <pthread.h>

#include "common/histogram.hpp"

namespace fwkv {

class Mutex {
 public:
  explicit Mutex(Counter* contended = nullptr) : contended_(contended) {}
  ~Mutex() { pthread_mutex_destroy(&mu_); }
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() {
    if (pthread_mutex_trylock(&mu_) == 0) return;
    if (contended_ != nullptr) contended_->add();
    pthread_mutex_lock(&mu_);
  }
  void unlock() { pthread_mutex_unlock(&mu_); }

 private:
#ifdef PTHREAD_ADAPTIVE_MUTEX_INITIALIZER_NP
  pthread_mutex_t mu_ = PTHREAD_ADAPTIVE_MUTEX_INITIALIZER_NP;
#else
  pthread_mutex_t mu_ = PTHREAD_MUTEX_INITIALIZER;
#endif
  Counter* const contended_;
};

}  // namespace fwkv
