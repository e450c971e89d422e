#include "workload/work_thread.hh"

#include <cassert>
#include <string>

namespace pagesim
{

WorkThread::WorkThread(Simulation &sim, MemoryManager &mm,
                       Workload &workload, AddressSpace &space,
                       unsigned tid)
    : SimActor(sim, workload.name() + ".t" + std::to_string(tid), true),
      mm_(mm), workload_(workload), space_(space), tid_(tid),
      stream_(workload.stream(tid))
{
    assert(stream_ && "workload returned no stream for thread");
}

void
WorkThread::step()
{
    CostSink sink;
    const SimDuration chunk = mm_.config().appChunk;
    while (true) {
        // The op is used in place, in the stream's block or in
        // pending_; only an op that must be retried is copied.
        const Op *op;
        if (havePending_) {
            op = &pending_;
            havePending_ = false;
        } else if ((op = stream_->take()) == nullptr) {
            if (carry_ > 0) {
                // Charge the tail of accumulated work, then finish on
                // the next dispatch (take() must stay null).
                const SimDuration w = carry_;
                carry_ = 0;
                yieldAfter(w);
                return;
            }
            tstats_.finishTime = now();
            finish();
            return;
        }

        switch (op->kind) {
          case Op::Kind::Compute:
            carry_ += op->compute;
            break;

          case Op::Kind::Touch:
          case Op::Kind::FdTouch: {
            ++tstats_.touches;
            carry_ += op->compute; // per-touch application work
            const auto outcome =
                op->kind == Op::Kind::FdTouch
                    ? mm_.fdAccess(*this, space_, op->vpn, op->write, sink)
                    : mm_.access(*this, space_, op->vpn, op->write, sink);
            carry_ += sink.take();
            if (outcome == MemoryManager::AccessOutcome::Blocked) {
                ++tstats_.blockedFaults;
                pending_ = *op;
                pending_.compute = 0; // don't double-charge on retry
                havePending_ = true;
                block();
                return;
            }
            break;
          }

          case Op::Kind::Barrier: {
            // Synchronization points need exact timestamps: charge any
            // accumulated work first and retry the op.
            if (carry_ > 0) {
                pending_ = *op;
                havePending_ = true;
                const SimDuration w = carry_;
                carry_ = 0;
                yieldAfter(w);
                return;
            }
            SimBarrier *barrier = workload_.barrier(op->id);
            if (barrier != nullptr) {
                ++tstats_.barriersPassed;
                if (!barrier->arrive(*this)) {
                    block();
                    return;
                }
            }
            break;
          }

          case Op::Kind::RequestStart:
          case Op::Kind::RequestEnd:
          case Op::Kind::Phase: {
            if (carry_ > 0) {
                pending_ = *op;
                havePending_ = true;
                const SimDuration w = carry_;
                carry_ = 0;
                yieldAfter(w);
                return;
            }
            if (op->kind == Op::Kind::RequestStart) {
                requestStart_ = now();
            } else if (op->kind == Op::Kind::RequestEnd) {
                workload_.recordRequest(op->id, now() - requestStart_);
            } else {
                workload_.phaseReached(tid_, op->id, now());
            }
            break;
          }
        }

        if (carry_ >= chunk) {
            const SimDuration w = carry_;
            carry_ = 0;
            yieldAfter(w);
            return;
        }
    }
}

} // namespace pagesim
