#include "cpu/processor.hh"

#include "axiom/trace.hh"
#include "check/checker.hh"
#include "sim/logging.hh"

namespace mcsim::cpu
{

namespace
{

/**
 * Terminate on an op kind that reached a stage which, by construction,
 * never handles it (e.g. an Exec op in the memory pipeline). Op-kind
 * switches list every enumerator explicitly and route the impossible
 * ones here, so adding an OpKind makes -Wswitch (and mcsim-lint)
 * force every stage to be revisited.
 */
[[noreturn]] void
unreachableOp(const char *stage, Processor::OpKind kind)
{
    panic("[unreachable-op] %s cannot handle op kind %d", stage,
          static_cast<int>(kind));
}

} // namespace

std::uint64_t
Processor::readMem(Addr addr, std::uint8_t width) const
{
    return width == 4 ? mem.readU32(addr) : mem.readU64(addr);
}

void
Processor::writeMem(Addr addr, std::uint64_t value, std::uint8_t width)
{
    if (width == 4)
        mem.writeU32(addr, static_cast<std::uint32_t>(value));
    else
        mem.writeU64(addr, value);
}

Processor::Processor(EventQueue &eq, const ProcParams &params,
                     mem::Cache &cache_ref, mem::FunctionalMemory &memory)
    : queue(eq), cfg(params), cache(cache_ref), mem(memory)
{
    cache.setCompletionHandler(
        [this](std::uint64_t cookie) { onCompletion(cookie); });
    cache.setRetryHandler([this]() { onRetry(); });
}

void
Processor::start(SimTask &&t)
{
    MCSIM_ASSERT(!started, "processor %u started twice", cfg.id);
    task = std::move(t);
    started = true;
    queue.schedule(
        queue.now(),
        [this]() {
            task.resume();
            afterResume();
        },
        EventQueue::prioCpu);
}

void
Processor::afterResume()
{
    if (task.done() && !finished) {
        finished = true;
        procStats.finishedAt = queue.now();
        task.rethrowIfFailed();
        if (doneFn)
            doneFn();
    }
}

mem::AccessType
Processor::accessTypeFor(OpKind kind) const
{
    switch (kind) {
      case OpKind::Load:
      case OpKind::LoadUse:
        return mem::AccessType::Load;  // callers map `own` separately
      case OpKind::Store:
        return mem::AccessType::Store;
      case OpKind::SyncLoad:
        return mem::AccessType::SyncLoad;
      case OpKind::SyncRmw:
        return mem::AccessType::SyncRmw;
      case OpKind::SyncStore:
        return mem::AccessType::SyncStore;
      case OpKind::Exec:
      case OpKind::Use:
      case OpKind::Fence:
        // Never reach the cache: no memory access type exists for them.
        unreachableOp("accessTypeFor", kind);
    }
    unreachableOp("accessTypeFor", kind);
}

void
Processor::countOp(const Op &op)
{
    procStats.instructions += 1;
    switch (op.kind) {
      case OpKind::Exec:
        procStats.execCycles += op.cycles;
        break;
      case OpKind::Load:
      case OpKind::LoadUse:
        procStats.loads += 1;
        break;
      case OpKind::Use:
        break;
      case OpKind::Store:
        procStats.stores += 1;
        break;
      case OpKind::SyncLoad:
        procStats.syncLoads += 1;
        break;
      case OpKind::SyncRmw:
        procStats.syncRmws += 1;
        break;
      case OpKind::SyncStore:
        procStats.syncStores += 1;
        break;
      case OpKind::Fence:
        procStats.fences += 1;
        break;
    }
}

bool
Processor::beginOp(const Op &op, std::coroutine_handle<> h)
{
    MCSIM_ASSERT(!active, "processor %u began op with one active", cfg.id);
    const Tick now = queue.now();
    if (issueSink)
        issueSink->onIssue(op);
    countOp(op);

    switch (op.kind) {
      case OpKind::Exec: {
        if (op.cycles == 0)
            return false;
        active = Active{op, h, now};
        chargeBusy(op.cycles);
        finishAt(now + op.cycles, 0);
        return true;
      }

      case OpKind::Use: {
        auto it = tokens.find(op.token);
        MCSIM_ASSERT(it != tokens.end(),
                     "use of unknown/consumed load token");
        TokenState &tok = it->second;
        if (tok.readyKnown && tok.ready <= now) {
            opResult = tok.value;
            tokens.erase(it);
            return false;  // register already available: no stall
        }
        active = Active{op, h, now};
        if (tok.readyKnown) {
            procStats.useStallCycles += tok.ready - now;
            chargeStall(obs::StallCause::LoadMiss, now, tok.ready);
            const std::uint64_t value = tok.value;
            const Tick ready = tok.ready;
            tokens.erase(it);
            finishAt(ready, value);
        } else {
            active->wait = WaitKind::Register;
            active->waitStart = now;
            active->waitToken = op.token;
        }
        return true;
      }

      case OpKind::Load:
      case OpKind::LoadUse:
      case OpKind::Store:
      case OpKind::SyncLoad:
      case OpKind::SyncRmw:
      case OpKind::SyncStore:
      case OpKind::Fence: {
        // Every memory-pipeline kind funnels into the issue logic.
        active = Active{op, h, now};
        attemptMem();
        return true;
      }
    }
    unreachableOp("beginOp", op.kind);
}

void
Processor::chargeBusy(std::uint64_t cycles)
{
    if (cycles == 0)
        return;
    procStats.breakdown.busy(cycles);
    if (tracer) {
        tracer->span(obs::Track::Proc, cfg.id, obs::SpanKind::Busy,
                     queue.now(), cycles);
    }
}

void
Processor::chargeStall(obs::StallCause cause, Tick from, Tick until)
{
    if (until <= from)
        return;
    procStats.breakdown.stall(cause, until - from);
    if (tracer) {
        // The six stall SpanKinds mirror StallCause in order.
        const auto kind = static_cast<obs::SpanKind>(
            static_cast<unsigned>(obs::SpanKind::StallLoadMiss) +
            static_cast<unsigned>(cause));
        tracer->span(obs::Track::Proc, cfg.id, kind, from, until - from);
    }
}

obs::StallCause
Processor::gateCauseFor(Gate gate) const
{
    switch (gate) {
      case Gate::Drain:
        return obs::StallCause::FenceSync;
      case Gate::ReleaseBusy:
        return obs::StallCause::Release;
      case Gate::CacheBlocked:
        return obs::StallCause::StoreMshr;
      case Gate::SingleOutstanding:
        // Charge the wait to the reference actually outstanding; under
        // the SC rule there is exactly one (early-released SC store
        // requests no longer count as outstanding).
        // mcsim-lint: order-insensitive(at most one live entry under SC)
        for (const auto &[cookie, rec] : inFlight) {
            (void)cookie;
            if (rec.earlyReleased)
                continue;
            switch (rec.kind) {
              case OpKind::Load:
              case OpKind::LoadUse:
                return obs::StallCause::LoadMiss;
              case OpKind::Store:
                // With the SC store buffer the wait ends exactly at the
                // interface-buffer hand-off, so it is backpressure, not
                // MSHR occupancy.
                return cfg.model.scStoreBufferRelease
                           ? obs::StallCause::Buffer
                           : obs::StallCause::StoreMshr;
              case OpKind::SyncLoad:
              case OpKind::SyncRmw:
                return obs::StallCause::Acquire;
              case OpKind::SyncStore:
                return obs::StallCause::Release;
              case OpKind::Exec:
              case OpKind::Use:
              case OpKind::Fence:
                // Never enter inFlight; keep scanning.
                break;
            }
        }
        return obs::StallCause::LoadMiss;
      case Gate::None:
        break;
    }
    return obs::StallCause::LoadMiss;
}

void
Processor::clearGate()
{
    if (!active || active->gate == Gate::None)
        return;
    const Tick waited = queue.now() - active->gateStart;
    chargeStall(active->gateCause, active->gateStart, queue.now());
    switch (active->gate) {
      case Gate::SingleOutstanding:
        procStats.issueStallCycles += waited;
        break;
      case Gate::Drain:
        procStats.drainStallCycles += waited;
        break;
      case Gate::ReleaseBusy:
        procStats.syncStallCycles += waited;
        break;
      case Gate::CacheBlocked:
        procStats.blockedStallCycles += waited;
        break;
      case Gate::None:
        break;
    }
    active->gate = Gate::None;
}

void
Processor::attemptMem()
{
    MCSIM_ASSERT(active, "attemptMem without active op");
    const Op &op = active->op;
    const Tick now = queue.now();
    const auto &model = cfg.model;
    const bool is_sync = op.kind == OpKind::SyncLoad ||
                         op.kind == OpKind::SyncRmw ||
                         op.kind == OpKind::SyncStore;

    auto gateOn = [&](Gate g) {
        if (active->gate == Gate::None) {
            active->gateStart = now;
            active->gateCause = gateCauseFor(g);
        } else if (active->gate != g) {
            // Switching gates: charge the old one first.
            clearGate();
            active->gateStart = now;
            active->gateCause = gateCauseFor(g);
        }
        active->gate = g;
        active->wait = WaitKind::Gated;
    };

    // SYNC fence: under the relaxed models wait for every outstanding
    // reference (and any pending release) to be performed; under SC the
    // single-outstanding rule already provides the ordering.
    if (op.kind == OpKind::Fence) {
        const bool relaxed = !model.singleOutstanding;
        if (relaxed && (outstanding > 0 || releasePending) &&
            !syncOrderingDisabled) {
            gateOn(Gate::Drain);
            return;
        }
        clearGate();
        if (checker)
            checker->onFenceComplete(cfg.id);
        if (recorder)
            recorder->recordFence(cfg.id, now);
        chargeBusy(1);
        finishAt(now + 1, 0);
        return;
    }

    // RC: releases never stall the processor; they are deferred until the
    // references outstanding at the release have been performed.
    if (model.releaseConsistent && op.kind == OpKind::SyncStore) {
        if (releasePending) {
            gateOn(Gate::ReleaseBusy);  // hardware tracks one release
            return;
        }
        clearGate();
        // Commit this op (resume scheduled, wait cleared) BEFORE starting
        // the release machinery: its completion path re-enters onRetry()
        // and must not see this op still gated.
        const Op release_op = op;
        chargeBusy(1);
        finishAt(now + 1, 0);
        deferRelease(release_op);
        return;
    }

    // Weak ordering: every sync operation waits for all outstanding
    // references to be performed before it is issued.
    if (model.syncDrains && is_sync && outstanding > 0) {
        if (skipNextDrain || syncOrderingDisabled) {
            skipNextDrain = false;  // fault injection: skip the drain
        } else {
            gateOn(Gate::Drain);
            return;
        }
    }

    // Sequential consistency: any access stalls while another is
    // outstanding. SC2 additionally prefetches the stalled access's line.
    if (model.singleOutstanding && outstanding > 0) {
        if (model.prefetchOnStall && !active->prefetched) {
            active->prefetched = true;
            cache.prefetch(op.addr,
                           mem::needsExclusive(accessTypeFor(op.kind)));
        }
        gateOn(Gate::SingleOutstanding);
        return;
    }

    // Issue to the cache.
    if (checker)
        checker->onIssueCheck(cfg.id, is_sync, /*is_release=*/false);
    const std::uint64_t cookie = nextCookie++;
    mem::AccessType acc_type = accessTypeFor(op.kind);
    if (op.own && acc_type == mem::AccessType::Load)
        acc_type = mem::AccessType::LoadOwn;
    const auto outcome = cache.access(op.addr, acc_type, cookie);
    switch (outcome) {
      case mem::AccessOutcome::Hit:
        clearGate();
        handleHit();
        return;
      case mem::AccessOutcome::Miss:
      case mem::AccessOutcome::Merged:
        clearGate();
        handleIssued(cookie);
        return;
      case mem::AccessOutcome::Blocked:
        gateOn(Gate::CacheBlocked);
        return;
    }
}

void
Processor::handleHit()
{
    const Op &op = active->op;
    const Tick now = queue.now();
    switch (op.kind) {
      case OpKind::Load: {
        if (checker)
            checker->onDataRead(cfg.id, op.addr, op.width);
        const std::uint64_t value = readMem(op.addr, op.width);
        if (recorder)
            recorder->recordRead(cfg.id, op.addr, op.width, value, now,
                                 now, now);
        const std::uint64_t id = nextToken++;
        tokens[id] = TokenState{value, now + cfg.loadDelay, true};
        chargeBusy(1);
        finishAt(now + 1, id);
        return;
      }
      case OpKind::LoadUse: {
        if (checker)
            checker->onDataRead(cfg.id, op.addr, op.width);
        const std::uint64_t value = readMem(op.addr, op.width);
        if (recorder)
            recorder->recordRead(cfg.id, op.addr, op.width, value, now,
                                 now, now);
        procStats.useStallCycles += cfg.loadDelay > 1
                                        ? cfg.loadDelay - 1
                                        : 0;
        chargeBusy(1);
        chargeStall(obs::StallCause::LoadMiss, now + 1, now + cfg.loadDelay);
        finishAt(now + cfg.loadDelay, value);
        return;
      }
      case OpKind::Store:
        if (checker)
            checker->onDataWrite(cfg.id, op.addr, op.width);
        writeMem(op.addr, op.value, op.width);
        if (recorder)
            recorder->recordWrite(cfg.id, op.addr, op.width, op.value,
                                  now, now);
        chargeBusy(1);
        finishAt(now + 1, 0);
        return;
      case OpKind::SyncLoad: {
        const Addr a = op.addr;
        const std::uint32_t tid =
            recorder ? recorder->recordPendingRead(
                           cfg.id, axiom::EventKind::SyncRead, a, now)
                     : noTraceId;
        chargeBusy(1);
        chargeStall(obs::StallCause::Acquire, now + 1, now + cfg.loadDelay);
        finishSyncHit(now + cfg.loadDelay, a, tid, /*rmw=*/false);
        return;
      }
      case OpKind::SyncRmw: {
        const Addr a = op.addr;
        const std::uint32_t tid =
            recorder ? recorder->recordPendingRead(
                           cfg.id, axiom::EventKind::SyncRmw, a, now)
                     : noTraceId;
        chargeBusy(1);
        chargeStall(obs::StallCause::Acquire, now + 1, now + cfg.loadDelay);
        finishSyncHit(now + cfg.loadDelay, a, tid, /*rmw=*/true);
        return;
      }
      case OpKind::SyncStore:
        // Hit in M state: the write is globally performed immediately
        // (every other copy is already invalid).
        if (checker)
            checker->onRelease(cfg.id, op.addr);
        mem.writeU64(op.addr, op.value);
        if (recorder) {
            const std::uint32_t tid = recorder->recordPendingWrite(
                cfg.id, op.addr, op.value, now);
            recorder->commitWrite(tid, now);
        }
        chargeBusy(1);
        finishAt(now + 1, 0);
        return;
      case OpKind::Exec:
      case OpKind::Use:
      case OpKind::Fence:
        // Non-memory kinds: no cache access can ever hit for them.
        unreachableOp("hit path", op.kind);
    }
    unreachableOp("hit path", op.kind);
}

void
Processor::handleIssued(std::uint64_t cookie)
{
    const Op &op = active->op;
    const Tick now = queue.now();
    outstanding += 1;
    if (checker)
        checker->onRefIssued(cfg.id, cookie);

    InFlight rec;
    rec.kind = op.kind;
    rec.addr = op.addr;
    rec.value = op.value;

    switch (op.kind) {
      case OpKind::Load: {
        if (checker)
            checker->onDataRead(cfg.id, op.addr, op.width);
        const std::uint64_t value = readMem(op.addr, op.width);
        if (recorder)
            rec.traceId = recorder->recordRead(cfg.id, op.addr, op.width,
                                               value, now, now, now);
        const std::uint64_t id = nextToken++;
        rec.token = id;
        tokens[id] = TokenState{value, maxTick, false};
        inFlight.emplace(cookie, rec);
        if (cfg.model.blockingLoads) {
            active->wait = WaitKind::Completion;
            active->waitStart = now;
            active->waitCookie = cookie;
        } else {
            chargeBusy(1);
            finishAt(now + 1, id);
        }
        return;
      }
      case OpKind::LoadUse: {
        if (checker)
            checker->onDataRead(cfg.id, op.addr, op.width);
        rec.value = readMem(op.addr, op.width);
        if (recorder)
            rec.traceId = recorder->recordRead(cfg.id, op.addr, op.width,
                                               rec.value, now, now, now);
        inFlight.emplace(cookie, rec);
        active->wait = WaitKind::Completion;
        active->waitStart = now;
        active->waitCookie = cookie;
        return;
      }
      case OpKind::Store: {
        if (checker)
            checker->onDataWrite(cfg.id, op.addr, op.width);
        writeMem(op.addr, op.value, op.width);
        if (recorder)
            rec.traceId = recorder->recordWrite(cfg.id, op.addr, op.width,
                                                op.value, now, now);
        inFlight.emplace(cookie, rec);
        if (cfg.model.scStoreBufferRelease) {
            // The write stops being "the outstanding reference" once its
            // request is in the network interface buffer; the line fill
            // still completes (and frees the MSHR) in the background.
            const Tick handoff =
                now + cache.params().missHandleCycles + 2;
            queue.schedule(
                handoff,
                [this, cookie]() {
                    auto it = inFlight.find(cookie);
                    if (it == inFlight.end() || it->second.earlyReleased)
                        return;
                    it->second.earlyReleased = true;
                    MCSIM_ASSERT(outstanding > 0,
                                 "early release with zero outstanding");
                    outstanding -= 1;
                    if (checker)
                        checker->onRefEarlyReleased(cfg.id, cookie);
                    if (recorder && it->second.traceId != noTraceId)
                        recorder->setOrdered(it->second.traceId,
                                             queue.now());
                    onRetry();
                },
                EventQueue::prioDeliver);
        }
        chargeBusy(1);
        finishAt(now + 1, 0);
        return;
      }
      case OpKind::SyncStore:
        // The release happens-before edge is established at the program-
        // order point even though the functional write is deferred to the
        // timed completion: later accesses of this processor must not leak
        // into the edge.
        if (checker)
            checker->onRelease(cfg.id, op.addr);
        if (recorder)
            rec.traceId = recorder->recordPendingWrite(cfg.id, op.addr,
                                                       op.value, now);
        if (cfg.model.singleOutstanding) {
            // Under SC a sync write needs no extra stall: the
            // single-outstanding rule already orders everything after it.
            // Its value still becomes visible to other processors only at
            // completion (when sharers' invalidations have been taken),
            // the same protocol point as under the relaxed models.
            inFlight.emplace(cookie, rec);
            chargeBusy(1);
            finishAt(now + 1, 0);
            return;
        }
        [[fallthrough]];
      case OpKind::SyncLoad:
      case OpKind::SyncRmw:
        // Blocking: the sync operation must be performed before the
        // processor proceeds (weak ordering / SC / RC acquire). A
        // falling-through relaxed sync store recorded its pending write
        // above and must not also record a read.
        if (recorder && op.kind != OpKind::SyncStore) {
            rec.traceId = recorder->recordPendingRead(
                cfg.id,
                op.kind == OpKind::SyncLoad ? axiom::EventKind::SyncRead
                                            : axiom::EventKind::SyncRmw,
                op.addr, now);
        }
        inFlight.emplace(cookie, rec);
        active->wait = WaitKind::Completion;
        active->waitStart = now;
        active->waitCookie = cookie;
        return;
      case OpKind::Exec:
      case OpKind::Use:
      case OpKind::Fence:
        // Exec/Use never issue to memory; Fence drains before issue.
        unreachableOp("issue path", op.kind);
    }
    unreachableOp("issue path", op.kind);
}

void
Processor::deferRelease(const Op &op)
{
    MCSIM_ASSERT(!releasePending, "second release while one pending");
    releasePending = true;
    deferredRelease = op;
    if (checker) {
        // Program-order point of the release: the happens-before edge and
        // the linter's snapshot of prior references both form here.
        checker->onRelease(cfg.id, op.addr);
        checker->onReleaseDeferred(cfg.id);
    }
    if (recorder)
        releaseTraceId = recorder->recordPendingWrite(cfg.id, op.addr,
                                                      op.value,
                                                      queue.now());
    if (outstanding > 0 && !syncOrderingDisabled) {
        procStats.releasesDeferred += 1;
        releaseCounter = outstanding;
        // mcsim-lint: order-insensitive(uniform flag set on every entry)
        for (auto &[cookie, rec] : inFlight)
            rec.releaseTagged = true;
    } else {
        releaseCounter = 0;
        tryIssueRelease();
    }
}

void
Processor::tryIssueRelease()
{
    MCSIM_ASSERT(releasePending && deferredRelease && releaseCounter == 0,
                 "tryIssueRelease in bad state");
    const Op op = *deferredRelease;
    if (checker)
        checker->onIssueCheck(cfg.id, /*is_sync=*/true, /*is_release=*/true);
    const std::uint64_t cookie = nextCookie++;
    const auto outcome =
        cache.access(op.addr, mem::AccessType::SyncStore, cookie);
    switch (outcome) {
      case mem::AccessOutcome::Hit:
        mem.writeU64(op.addr, op.value);
        if (recorder && releaseTraceId != noTraceId) {
            recorder->commitWrite(releaseTraceId, queue.now());
            releaseTraceId = noTraceId;
        }
        releasePending = false;
        deferredRelease.reset();
        if (checker)
            checker->onReleaseDone(cfg.id);
        onRetry();  // a fence or second release may be waiting
        return;
      case mem::AccessOutcome::Miss:
      case mem::AccessOutcome::Merged: {
        outstanding += 1;
        if (checker)
            checker->onRefIssued(cfg.id, cookie);
        InFlight rec;
        rec.kind = OpKind::SyncStore;
        rec.addr = op.addr;
        rec.value = op.value;
        rec.isRelease = true;
        rec.traceId = releaseTraceId;
        releaseTraceId = noTraceId;
        inFlight.emplace(cookie, rec);
        deferredRelease.reset();
        return;
      }
      case mem::AccessOutcome::Blocked:
        // Keep deferredRelease set; onRetry() will try again.
        return;
    }
}

void
Processor::onCompletion(std::uint64_t cookie)
{
    auto node = inFlight.extract(cookie);
    MCSIM_ASSERT(!node.empty(), "completion for unknown cookie");
    const InFlight rec = node.mapped();
    if (checker)
        checker->onRefCompleted(cfg.id, cookie);
    if (!rec.earlyReleased) {
        MCSIM_ASSERT(outstanding > 0, "completion with zero outstanding");
        outstanding -= 1;
    }

    if (rec.releaseTagged) {
        MCSIM_ASSERT(releaseCounter > 0, "tagged completion, zero counter");
        releaseCounter -= 1;
        if (releaseCounter == 0 && deferredRelease)
            tryIssueRelease();
    }

    const Tick now = queue.now();
    if (recorder && rec.traceId != noTraceId &&
        (rec.kind == OpKind::Load || rec.kind == OpKind::LoadUse ||
         rec.kind == OpKind::Store)) {
        recorder->setPerformed(rec.traceId, now);
    }
    switch (rec.kind) {
      case OpKind::Load: {
        auto it = tokens.find(rec.token);
        MCSIM_ASSERT(it != tokens.end(), "completion for missing token");
        it->second.ready = now;
        it->second.readyKnown = true;
        if (active && active->wait == WaitKind::Register &&
            active->waitToken == rec.token) {
            procStats.useStallCycles += now - active->startTick;
            chargeStall(obs::StallCause::LoadMiss, active->waitStart, now);
            const std::uint64_t value = it->second.value;
            tokens.erase(it);
            resumeNow(value);
        } else if (active && active->wait == WaitKind::Completion &&
                   active->waitCookie == cookie) {
            // Blocking-load wait: hand back the (ready) token.
            procStats.useStallCycles += now - active->startTick;
            chargeStall(obs::StallCause::LoadMiss, active->waitStart, now);
            resumeNow(rec.token);
        }
        break;
      }

      case OpKind::LoadUse:
        if (active && active->wait == WaitKind::Completion &&
            active->waitCookie == cookie) {
            procStats.useStallCycles += now - active->startTick;
            chargeStall(obs::StallCause::LoadMiss, active->waitStart, now);
            resumeNow(rec.value);
        }
        break;

      case OpKind::Store:
        break;

      case OpKind::SyncLoad:
        if (active && active->wait == WaitKind::Completion &&
            active->waitCookie == cookie) {
            procStats.syncStallCycles += now - active->startTick;
            chargeStall(obs::StallCause::Acquire, active->waitStart, now);
            if (checker)
                checker->onAcquire(cfg.id, rec.addr);
            const std::uint64_t v = mem.readU64(rec.addr);
            if (recorder && rec.traceId != noTraceId)
                recorder->bindRead(rec.traceId, v, now);
            resumeNow(v);
        }
        break;

      case OpKind::SyncRmw:
        if (active && active->wait == WaitKind::Completion &&
            active->waitCookie == cookie) {
            procStats.syncStallCycles += now - active->startTick;
            chargeStall(obs::StallCause::Acquire, active->waitStart, now);
            if (checker)
                checker->onAcquire(cfg.id, rec.addr);
            const std::uint64_t v = mem.testAndSet(rec.addr);
            if (recorder && rec.traceId != noTraceId)
                recorder->bindRead(rec.traceId, v, now);
            resumeNow(v);
        }
        break;

      case OpKind::SyncStore:
        mem.writeU64(rec.addr, rec.value);
        if (recorder && rec.traceId != noTraceId)
            recorder->commitWrite(rec.traceId, now);
        if (rec.isRelease) {
            releasePending = false;
            if (checker)
                checker->onReleaseDone(cfg.id);
        } else if (active && active->wait == WaitKind::Completion &&
                   active->waitCookie == cookie) {
            procStats.syncStallCycles += now - active->startTick;
            chargeStall(obs::StallCause::Release, active->waitStart, now);
            resumeNow(0);
        }
        break;

      case OpKind::Exec:
      case OpKind::Use:
      case OpKind::Fence:
        // Never tracked in inFlight, so no completion can name them.
        unreachableOp("completion", rec.kind);
    }

    onRetry();
}

void
Processor::onRetry()
{
    // A deferred release whose counter has drained (or that was blocked on
    // cache resources) gets priority: it is older than the active op.
    if (releasePending && deferredRelease && releaseCounter == 0)
        tryIssueRelease();

    if (active && active->wait == WaitKind::Gated)
        attemptMem();
}

void
Processor::finishAt(Tick when, std::uint64_t result)
{
    MCSIM_ASSERT(active, "finishAt without active op");
    active->wait = WaitKind::None;
    queue.schedule(
        when, [this, result]() { resumeNow(result); },
        EventQueue::prioCpu);
}

void
Processor::finishSyncHit(Tick when, Addr addr, std::uint32_t trace_id,
                         bool rmw)
{
    MCSIM_ASSERT(active, "finishSyncHit without active op");
    active->wait = WaitKind::None;
    queue.schedule(
        when,
        [this, addr, trace_id, rmw]() {
            if (checker)
                checker->onAcquire(cfg.id, addr);
            const std::uint64_t v =
                rmw ? mem.testAndSet(addr) : mem.readU64(addr);
            if (recorder)
                recorder->bindRead(trace_id, v, queue.now());
            resumeNow(v);
        },
        EventQueue::prioCpu);
}

void
Processor::resumeNow(std::uint64_t result)
{
    MCSIM_ASSERT(active, "resume without active op");
    opResult = result;
    auto h = active->h;
    active.reset();
    h.resume();
    afterResume();
}

} // namespace mcsim::cpu
